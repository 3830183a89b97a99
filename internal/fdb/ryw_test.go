package fdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"recordlayer/internal/fdb/internal/cluster"
	"sort"
	"testing"
)

// rywModel is read-your-writes written the slow way: the write buffer is a
// map, a range read walks every key of a small universe in order, and cleared
// ranges and read conflicts are one bit per universe key. It states the rules
// a transaction follows — what a buffered set, a pending atomic and a clear
// each do to a later read, what a read counts and what it conflicts on — and
// shares nothing with the transaction but applyMutations, the arithmetic of
// one atomic op, which is not what the buffer decides.
type rywModel struct {
	universe [][]byte
	snap     map[string][]byte // the store as of the read version
	cur      map[string][]byte // the store now (snap plus concurrent commits)
	writes   map[string]*rywEntry
	cleared  []bool // per universe key: covered by a buffered clear
	conflict []bool // per universe key: covered by a read conflict range
	stats    TxnStats
}

type rywEntry struct {
	isSet   bool
	value   []byte
	ops     []cluster.Mutation // pending; on a set, only after a versionstamp
	vsOff   int                // versionstamp offset in value, -1 when none
	fetched bool               // a snapshot read has read the base: no later read counts it
}

// own is what a read of a set entry sees. A versionstamp is unknown until
// commit, so the read sees the placeholder with any later ops folded over it;
// ok is false when one of them clears the key.
func (e *rywEntry) own() (val []byte, ok bool) {
	if len(e.ops) == 0 {
		return e.value, true
	}
	val, cleared := cluster.ApplyMutations(e.value, e.ops, DefaultLimits().MaxValueSize)
	return val, !cleared
}

func (m *rywModel) pos(k []byte) int {
	return sort.Search(len(m.universe), func(i int) bool { return bytes.Compare(m.universe[i], k) >= 0 })
}

func (m *rywModel) countRead(key string, val []byte) {
	m.stats.KeysRead++
	m.stats.BytesRead += len(key) + len(val)
}

func (m *rywModel) account(n int) {
	m.stats.Size += n
	m.stats.Mutations++
}

// materialize folds the pending atomics of key over the base, which is read
// and counted the first time, into what a read sees. A serializable read
// (convert) turns them into a set, or a clear when COMPARE_AND_CLEAR matched;
// a snapshot read records no conflict on key, so they stay pending.
func (m *rywModel) materialize(key string, e *rywEntry, convert bool) ([]byte, bool) {
	base := m.snap[key]
	if !e.fetched {
		m.countRead(key, base)
	}
	val, cleared := cluster.ApplyMutations(base, e.ops, DefaultLimits().MaxValueSize)
	if !convert {
		e.fetched = true
		return val, !cleared
	}
	if cleared {
		delete(m.writes, key)
		m.cleared[m.pos([]byte(key))] = true
		return nil, false
	}
	e.isSet, e.value, e.ops = true, val, nil
	return val, true
}

func (m *rywModel) get(key []byte, snapshot bool) []byte {
	k := string(key)
	if e, ok := m.writes[k]; ok {
		if e.isSet {
			val, _ := e.own()
			return val
		}
		if !snapshot {
			m.conflict[m.pos(key)] = true
		}
		val, _ := m.materialize(k, e, !snapshot)
		return val
	}
	if m.cleared[m.pos(key)] {
		return nil
	}
	val := m.snap[k]
	m.countRead(k, val)
	if !snapshot {
		m.conflict[m.pos(key)] = true
	}
	return val
}

func (m *rywModel) getRange(begin, end []byte, o RangeOptions, snapshot bool) ([]KeyValue, bool) {
	if bytes.Compare(begin, end) >= 0 {
		return nil, false
	}
	lo, hi := m.pos(begin), m.pos(end)
	order := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		order = append(order, i)
	}
	if o.Reverse {
		sort.Sort(sort.Reverse(sort.IntSlice(order)))
	}
	visible := func(i int) bool { // would the scan stop at this key?
		k := string(m.universe[i])
		if _, ok := m.writes[k]; ok {
			return true
		}
		_, ok := m.snap[k]
		return ok && !m.cleared[i]
	}
	var out []KeyValue
	nbytes, more := 0, false
	for n, i := range order {
		if (o.Limit > 0 && len(out) >= o.Limit) || (o.ByteLimit > 0 && nbytes >= o.ByteLimit) {
			for _, j := range order[n:] {
				more = more || visible(j)
			}
			break
		}
		if !visible(i) {
			continue
		}
		k := string(m.universe[i])
		var val []byte
		if e, ok := m.writes[k]; ok {
			if e.isSet {
				val, ok = e.own()
			} else {
				val, ok = m.materialize(k, e, !snapshot)
			}
			if !ok {
				continue
			}
		} else {
			val = m.snap[k]
			m.countRead(k, val)
		}
		out = append(out, KeyValue{Key: m.universe[i], Value: val})
		nbytes += len(k) + len(val)
	}
	if !snapshot {
		// Only what was observed conflicts: up to and including the last key
		// delivered when a limit cut the scan short.
		if more && len(out) > 0 {
			last := m.pos(out[len(out)-1].Key)
			if o.Reverse {
				lo = last
			} else {
				hi = last + 1
			}
		}
		for i := lo; i < hi; i++ {
			m.conflict[i] = true
		}
	}
	return out, more
}

func (m *rywModel) set(key, value []byte) {
	m.writes[string(key)] = &rywEntry{isSet: true, value: value, vsOff: -1}
	m.account(len(key) + len(value))
}

func (m *rywModel) clearRange(begin, end []byte, point bool) {
	if bytes.Compare(begin, end) >= 0 {
		return
	}
	for i := m.pos(begin); i < m.pos(end); i++ {
		delete(m.writes, string(m.universe[i]))
		m.cleared[i] = true
	}
	if !point {
		m.stats.RangeClears++ // Clear's one key is not a range
	}
	m.account(len(begin) + len(end))
}

func (m *rywModel) setVersionstampedValue(key, raw []byte, off int) {
	m.writes[string(key)] = &rywEntry{isSet: true, value: raw, vsOff: off}
	m.account(len(key) + len(raw))
}

func (m *rywModel) atomic(typ MutationType, key, param []byte) {
	k, op := string(key), []cluster.Mutation{{Type: typ, Param: param}}
	switch e, ok := m.writes[k]; {
	case ok && e.isSet && e.vsOff < 0:
		val, cleared := cluster.ApplyMutations(e.value, op, DefaultLimits().MaxValueSize)
		if cleared {
			delete(m.writes, k)
			m.cleared[m.pos(key)] = true
		} else {
			e.value = val
		}
	case ok: // pending atomics, or a versionstamped value: the op waits for commit
		e.ops = append(e.ops, op[0])
	case m.cleared[m.pos(key)]:
		if val, cleared := cluster.ApplyMutations(nil, op, DefaultLimits().MaxValueSize); !cleared {
			m.writes[k] = &rywEntry{isSet: true, value: val, vsOff: -1}
		}
	default:
		m.writes[k] = &rywEntry{ops: op, vsOff: -1}
	}
	m.account(len(key) + len(param))
}

// readOnly says commit has nothing to send: it succeeds whatever was read.
func (m *rywModel) readOnly() bool {
	for _, c := range m.cleared {
		if c {
			return false
		}
	}
	return len(m.writes) == 0
}

// commit applies the buffer to the current store: clears, then writes in key
// order, pending atomics folding over the store as it is now, or over the
// stamped value when they follow a versionstamp.
func (m *rywModel) commit(version int64) {
	for i, c := range m.cleared {
		if c {
			delete(m.cur, string(m.universe[i]))
		}
	}
	keys := make([]string, 0, len(m.writes))
	for k := range m.writes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := m.writes[k]
		val := e.value
		if !e.isSet {
			val = m.cur[k]
		} else if e.vsOff >= 0 {
			val = append([]byte(nil), val...)
			copy(val[e.vsOff:e.vsOff+10], cluster.Versionstamp(version))
		}
		if len(e.ops) > 0 {
			var cleared bool
			if val, cleared = cluster.ApplyMutations(val, e.ops, DefaultLimits().MaxValueSize); cleared {
				delete(m.cur, k)
				m.stats.KeysWritten++
				m.stats.BytesWritten += len(k)
				continue
			}
		}
		m.cur[k] = val
		m.stats.KeysWritten++
		m.stats.BytesWritten += len(k) + len(val)
	}
}

func sameKVs(got, want []KeyValue) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			return false
		}
	}
	return true
}

// TestReadYourWritesMatchesMapSortModel drives one transaction per seed with
// Set / Clear / ClearRange / Atomic (ADD, BYTE_MIN, BYTE_MAX, COMPARE_AND_CLEAR,
// versionstamped value) over a pre-populated store, interleaved with Get and
// GetRange (both directions, Limit, ByteLimit, snapshot and serializable), and
// requires after every step that results, the more flag, Stats and the read
// conflict ranges equal rywModel's. In half the histories another transaction
// commits midway, so the snapshot and the store differ when this one commits:
// the model then predicts the conflict, or — pending atomics folding over the
// current store — the store's contents and KeysWritten/BytesWritten. Keys are
// at most three bytes of a three-letter alphabet, so every range end, Clear's
// and a limited scan's key-after included, is a key of the four-byte universe.
// An atomic op may follow a versionstamped value of the same key: commit
// stamps first and folds the op after.
func TestReadYourWritesMatchesMapSortModel(t *testing.T) {
	universe := rangeSetUniverse(4)
	var keys [][]byte // what ops are called with
	for _, k := range universe {
		if len(k) <= 3 {
			keys = append(keys, k)
		}
	}
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randBytes := func(min, max int) []byte {
			b := make([]byte, min+rng.Intn(max-min+1))
			for i := range b {
				b[i] = byte(rng.Intn(4)) // small alphabet: BYTE_MIN/MAX and CAC ties happen
			}
			return b
		}
		pick := func() []byte { return append([]byte(nil), keys[rng.Intn(len(keys))]...) }

		db := Open(nil)
		m := &rywModel{
			universe: universe,
			snap:     map[string][]byte{},
			cur:      map[string][]byte{},
			writes:   map[string]*rywEntry{},
			cleared:  make([]bool, len(universe)),
			conflict: make([]bool, len(universe)),
		}
		seedTxn := db.CreateTransaction()
		for _, k := range keys {
			if rng.Intn(2) == 0 {
				v := randBytes(0, 8)
				m.snap[string(k)], m.cur[string(k)] = v, v
				if err := seedTxn.Set(k, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := seedTxn.Commit(); err != nil {
			t.Fatal(err)
		}

		tr := db.CreateTransaction()
		if _, err := tr.GetReadVersion(); err != nil {
			t.Fatal(err)
		}
		steps := 20 + rng.Intn(40)
		otherAt := -1
		if rng.Intn(2) == 0 {
			otherAt = rng.Intn(steps)
		}
		otherWrote := make([]bool, len(universe))
		for step := 0; step < steps; step++ {
			what := fmt.Sprintf("seed %d step %d", seed, step)
			if step == otherAt {
				other := db.CreateTransaction()
				for i := 0; i < 1+rng.Intn(4); i++ {
					k := pick()
					if rng.Intn(3) == 0 {
						_ = other.Clear(k)
						delete(m.cur, string(k))
					} else {
						v := randBytes(0, 8)
						_ = other.Set(k, v)
						m.cur[string(k)] = v
					}
					otherWrote[m.pos(k)] = true
				}
				if err := other.Commit(); err != nil {
					t.Fatalf("%s: concurrent commit: %v", what, err)
				}
			}
			snapshot := rng.Intn(3) == 0
			switch op := rng.Intn(12); op {
			case 0, 1:
				k, v := pick(), randBytes(0, 8)
				what += fmt.Sprintf(" Set(%q, %q)", k, v)
				m.set(k, v)
				if err := tr.Set(k, v); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			case 2:
				k := pick()
				what += fmt.Sprintf(" Clear(%q)", k)
				m.clearRange(k, keyAfter(k), true)
				if err := tr.Clear(k); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			case 3:
				b, e := pick(), pick()
				what += fmt.Sprintf(" ClearRange(%q, %q)", b, e)
				m.clearRange(b, e, false)
				if err := tr.ClearRange(b, e); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			case 4, 5, 6:
				k := pick()
				if op == 6 && rng.Intn(2) == 0 {
					raw := randBytes(10, 14)
					off := rng.Intn(len(raw) - 10 + 1)
					what += fmt.Sprintf(" Atomic(VS_VALUE, %q, %q@%d)", k, raw, off)
					m.setVersionstampedValue(k, raw, off)
					param := binary.LittleEndian.AppendUint32(append([]byte(nil), raw...), uint32(off))
					if err := tr.Atomic(MutationSetVersionstampedValue, k, param); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					break
				}
				typ := []MutationType{MutationAdd, MutationByteMin, MutationByteMax, MutationCompareAndClear}[rng.Intn(4)]
				param := randBytes(0, 8)
				if typ == MutationCompareAndClear && rng.Intn(2) == 0 {
					// Aim at what the key holds so the clear actually happens.
					if e, ok := m.writes[string(k)]; ok && e.isSet {
						param = e.value
					} else {
						param = m.snap[string(k)]
					}
				}
				what += fmt.Sprintf(" Atomic(%d, %q, %q)", typ, k, param)
				m.atomic(typ, k, param)
				if err := tr.Atomic(typ, k, param); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			case 7, 8:
				k := pick()
				what += fmt.Sprintf(" Get(%q, snapshot=%v)", k, snapshot)
				want := m.get(k, snapshot)
				var got []byte
				var err error
				if snapshot {
					got, err = tr.Snapshot().Get(k)
				} else {
					got, err = tr.Get(k)
				}
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if !bytes.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("%s = %q (nil %v), want %q (nil %v)", what, got, got == nil, want, want == nil)
				}
			default:
				b, e := pick(), pick()
				if rng.Intn(4) > 0 && bytes.Compare(b, e) > 0 {
					b, e = e, b
				}
				o := RangeOptions{Reverse: rng.Intn(2) == 0}
				if rng.Intn(2) == 0 {
					o.Limit = 1 + rng.Intn(4)
				}
				if rng.Intn(3) == 0 {
					o.ByteLimit = 1 + rng.Intn(20)
				}
				what += fmt.Sprintf(" GetRange(%q, %q, %+v, snapshot=%v)", b, e, o, snapshot)
				want, wantMore := m.getRange(b, e, o, snapshot)
				var got []KeyValue
				var more bool
				var err error
				if snapshot {
					got, more, err = tr.Snapshot().GetRange(b, e, o)
				} else {
					got, more, err = tr.GetRange(b, e, o)
				}
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if !sameKVs(got, want) || more != wantMore {
					t.Fatalf("%s = %q more=%v, want %q more=%v", what, got, more, want, wantMore)
				}
			}
			if got := tr.Stats(); got != m.stats {
				t.Fatalf("%s: stats %+v, want %+v", what, got, m.stats)
			}
			got, want := tr.req.ReadConflicts.All(), coveredRuns(m.universe, m.conflict)
			if len(got) != len(want) {
				t.Fatalf("%s: read conflicts %q, want %q", what, got, want)
			}
			for i := range want {
				if !bytes.Equal(got[i].Begin, want[i].Begin) || !bytes.Equal(got[i].End, want[i].End) {
					t.Fatalf("%s: read conflicts %q, want %q", what, got, want)
				}
			}
		}

		what := fmt.Sprintf("seed %d commit", seed)
		conflicts := false
		for i := range universe {
			conflicts = conflicts || (otherWrote[i] && m.conflict[i])
		}
		err := tr.Commit()
		switch {
		case m.readOnly():
			if err != nil {
				t.Fatalf("%s: read-only commit: %v", what, err)
			}
		case conflicts:
			if !IsRetryable(err) {
				t.Fatalf("%s: err %v, want a conflict", what, err)
			}
		default:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			v, _ := tr.CommittedVersion()
			m.commit(v)
			if got := tr.Stats(); got != m.stats {
				t.Fatalf("%s: stats %+v, want %+v", what, got, m.stats)
			}
		}
		var want []KeyValue
		for _, k := range universe {
			if v, ok := m.cur[string(k)]; ok {
				want = append(want, KeyValue{Key: k, Value: v})
			}
		}
		got, _, err := db.CreateTransaction().GetRange([]byte{}, []byte{0xff}, RangeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameKVs(got, want) {
			t.Fatalf("%s: store holds %q, want %q", what, got, want)
		}
		if db.Size() != len(want) {
			t.Fatalf("%s: Size() = %d, want %d", what, db.Size(), len(want))
		}
	}
}
