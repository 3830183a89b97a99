package bunched

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"recordlayer/internal/fdb"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// refOp applies an issued op the way the map's write path did before it
// edited bunches as bytes: decode the located bunch into entries, change the
// list, encode it again. TestSpliceMatchesDecodeEncode holds Op.Apply to it.
type refOp struct {
	op      *Op
	token   string
	pk      tuple.Tuple
	offsets []int64
	insert  bool
}

func (r refOp) apply() (bool, error) {
	if err := r.op.a.ov.Turn(r.op.seq); err != nil {
		return false, err
	}
	if r.insert {
		return true, r.applyInsert()
	}
	return r.applyDelete()
}

func (r refOp) applyInsert() error {
	a := r.op.a
	begin, endTok := a.m.space.RangeForTuple(tuple.Tuple{r.token})
	logical := a.m.key(r.token, r.pk)
	loc, ok, err := r.op.boundary(r.op.locate, begin, fdb.KeyAfter(logical), true)
	if err != nil {
		return err
	}
	newEntry := Entry{PK: r.pk, Offsets: r.offsets}
	if ok {
		_, entries, err := a.m.decodeBunch(loc.Key, loc.Value)
		if err != nil {
			return err
		}
		idx := sort.Search(len(entries), func(i int) bool { return tuple.Compare(entries[i].PK, r.pk) >= 0 })
		if idx < len(entries) && tuple.Compare(entries[idx].PK, r.pk) == 0 {
			entries[idx] = newEntry
			return a.ov.Set(loc.Key, encodeBunch(entries))
		}
		entries = append(entries, Entry{})
		copy(entries[idx+1:], entries[idx:])
		entries[idx] = newEntry
		if len(entries) <= a.m.bunchSize {
			return a.ov.Set(loc.Key, encodeBunch(entries))
		}
		spill := entries[len(entries)-1]
		entries = entries[:len(entries)-1]
		if err := a.ov.Set(loc.Key, encodeBunch(entries)); err != nil {
			return err
		}
		return r.applySpill(spill, fdb.KeyAfter(logical), endTok)
	}
	return r.applySpill(newEntry, fdb.KeyAfter(logical), endTok)
}

func (r refOp) applySpill(entry Entry, nbrBegin, nbrEnd []byte) error {
	a := r.op.a
	nbr, ok, err := r.op.boundary(r.op.next, nbrBegin, nbrEnd, false)
	if err != nil {
		return err
	}
	bunch := []Entry{entry}
	if ok {
		_, nEntries, err := a.m.decodeBunch(nbr.Key, nbr.Value)
		if err != nil {
			return err
		}
		if len(nEntries)+1 <= a.m.bunchSize {
			if err := a.ov.Clear(nbr.Key); err != nil {
				return err
			}
			bunch = append(bunch, nEntries...)
		}
	}
	return a.ov.Set(a.m.key(r.token, entry.PK), encodeBunch(bunch))
}

func (r refOp) applyDelete() (bool, error) {
	a := r.op.a
	begin, _ := a.m.space.RangeForTuple(tuple.Tuple{r.token})
	loc, ok, err := r.op.boundary(r.op.locate, begin, fdb.KeyAfter(a.m.key(r.token, r.pk)), true)
	if err != nil || !ok {
		return false, err
	}
	_, entries, err := a.m.decodeBunch(loc.Key, loc.Value)
	if err != nil {
		return false, err
	}
	idx := -1
	for i, e := range entries {
		if tuple.Compare(e.PK, r.pk) == 0 {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false, nil
	}
	if len(entries) == 1 {
		return true, a.ov.Clear(loc.Key)
	}
	entries = append(entries[:idx], entries[idx+1:]...)
	if idx == 0 {
		if err := a.ov.Clear(loc.Key); err != nil {
			return false, err
		}
		return true, a.ov.Set(a.m.key(r.token, entries[0].PK), encodeBunch(entries))
	}
	return true, a.ov.Set(loc.Key, encodeBunch(entries))
}

type histOp struct {
	insert  bool
	token   string
	pk      tuple.Tuple
	offsets []int64
}

// edgePKs are primary keys whose encodings stress byte order against
// tuple.Compare: every integer width and sign, uint64 past MaxInt64, escaped
// zero bytes, nested tuples holding nil, and tuples that prefix one another.
var edgePKs = []tuple.Tuple{
	{int64(math.MinInt64)}, {int64(-1 << 40)}, {int64(-256)}, {int64(-1)}, {int64(0)},
	{int64(1)}, {int64(255)}, {int64(1 << 33)}, {int64(math.MaxInt64)},
	{uint64(1<<63 + 9)}, {uint64(math.MaxUint64)},
	{""}, {"a"}, {"a\x00"}, {"a\x00b"}, {"\x00\xff"},
	{[]byte{}}, {[]byte{0}}, {[]byte{0, 0xff, 1}}, {[]byte("a")},
	{nil}, {nil, int64(2)}, {int64(3), nil}, {int64(3), "x"}, {int64(3)},
	{tuple.Tuple{}}, {tuple.Tuple{nil}}, {tuple.Tuple{nil, int64(1)}},
	{tuple.Tuple{"a\x00", tuple.Tuple{nil}}}, {tuple.Tuple{tuple.Tuple{}}},
	{-0.5}, {2.25}, {float32(1.5)}, {true}, {false},
	{tuple.UUID{1, 2, 3}}, {tuple.Versionstamp{TransactionVersion: [10]byte{1}, UserVersion: 7}},
	{},
}

// randomHistory builds a few transactions of inserts and deletes over a
// per-seed universe of primary keys and tokens.
func randomHistory(rng *rand.Rand) [][]histOp {
	var universe []tuple.Tuple
	for _, p := range edgePKs {
		if rng.Intn(3) > 0 {
			universe = append(universe, p)
		}
	}
	for i := rng.Intn(20); i > 0; i-- {
		universe = append(universe, tuple.Tuple{int64(rng.Intn(2000) - 1000)})
	}
	allTokens := []string{"t", "", "a\x00b", "whale"}
	tokens := allTokens[:1+rng.Intn(len(allTokens))]
	txns := make([][]histOp, 2+rng.Intn(5))
	for i := range txns {
		for j := 1 + rng.Intn(30); j > 0; j-- {
			o := histOp{
				insert: rng.Intn(3) > 0,
				token:  tokens[rng.Intn(len(tokens))],
				pk:     universe[rng.Intn(len(universe))],
			}
			for k := rng.Intn(4); k > 0; k-- {
				o.offsets = append(o.offsets, rng.Int63n(1<<34)-1<<20)
			}
			txns[i] = append(txns[i], o)
		}
	}
	return txns
}

type applyFunc func(op *Op, o histOp) (bool, error)

func applySplice(op *Op, _ histOp) (bool, error) { return op.Apply() }

func applyReference(op *Op, o histOp) (bool, error) {
	return refOp{op: op, token: o.token, pk: o.pk, offsets: o.offsets, insert: o.insert}.apply()
}

// runHistoryTxn runs one transaction of the history, serial or batched, and
// reports everything an observer could see of it.
func runHistoryTxn(db *fdb.Database, m *Map, ops []histOp, batched bool, apply applyFunc) (string, error) {
	tr := db.CreateTransaction()
	a := m.Async(tr)
	issue := func(o histOp) *Op {
		if o.insert {
			return &a.IssueInsert(nil, o.token, o.pk, o.offsets)[0]
		}
		return &a.IssueDelete(nil, o.token, o.pk)[0]
	}
	changed := make([]bool, len(ops))
	pending := make([]*Op, len(ops))
	for i, o := range ops {
		pending[i] = issue(o)
		if batched {
			continue
		}
		var err error
		if changed[i], err = apply(pending[i], o); err != nil {
			return "", err
		}
	}
	for i := 0; batched && i < len(ops); i++ {
		var err error
		if changed[i], err = apply(pending[i], ops[i]); err != nil {
			return "", err
		}
	}
	if err := tr.Commit(); err != nil {
		return "", err
	}
	return fmt.Sprintf("changed=%v stats=%+v", changed, tr.Stats()), nil
}

// TestMalformedBunchesFail stores bunches that are well-formed tuples of the
// wrong shape, or not tuples at all, and requires every read and both write
// paths — the spliced one and the decode/encode reference — to return an
// error rather than panic.
func TestMalformedBunchesFail(t *testing.T) {
	space := subspace.FromTuple(tuple.Tuple{"text"})
	anchor := space.Pack(tuple.Tuple{"tok", pk(1)})
	good := tuple.Tuple{tuple.Tuple{int64(1)}, tuple.Tuple{int64(2)}, tuple.Tuple{int64(3)}}.Pack()
	cases := []struct {
		name       string
		key, value []byte
	}{
		{"string for a nested pk", anchor, tuple.Tuple{tuple.Tuple{int64(1)}, "pk", tuple.Tuple{int64(2)}}.Pack()},
		{"string offset", anchor, tuple.Tuple{tuple.Tuple{"x"}}.Pack()},
		{"uint64 offset", anchor, tuple.Tuple{tuple.Tuple{uint64(1 << 63)}}.Pack()},
		{"truncated value", anchor, good[:len(good)-1]},
		{"pair without offsets", anchor, good[:len(good)-4]},
		{"string for the anchor pk", space.Pack(tuple.Tuple{"tok", "pk"}), good},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db, m := newMap(4)
			if _, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
				return nil, tr.Set(c.key, c.value)
			}); err != nil {
				t.Fatal(err)
			}
			tr := db.CreateTransaction()
			if _, err := m.ScanToken(tr, "tok"); err == nil {
				t.Error("ScanToken: no error")
			}
			if _, _, err := m.Get(tr, "tok", pk(1)); err == nil {
				t.Error("Get: no error")
			}
			for _, apply := range []applyFunc{applySplice, applyReference} {
				for _, o := range []histOp{{insert: true, token: "tok", pk: pk(1), offsets: []int64{5}}, {token: "tok", pk: pk(1)}} {
					a := m.Async(db.CreateTransaction())
					var op *Op
					if o.insert {
						op = &a.IssueInsert(nil, o.token, o.pk, o.offsets)[0]
					} else {
						op = &a.IssueDelete(nil, o.token, o.pk)[0]
					}
					if _, err := apply(op, o); err == nil {
						t.Errorf("apply %+v: no error", o)
					}
				}
			}
		})
	}
}

// TestApplyAllocs pins what a posting edit allocates once its reads are in:
// applying one insert into the middle of a 7-entry bunch and one delete of
// it. Decoding the bunch into tuples and encoding it again took 217
// allocations for the pair; splicing the encoded bunch takes 8 (Go 1.24),
// mostly the transaction's copies of what is written. The bound of 20 leaves
// room for another Go version, not for decode/encode.
func TestApplyAllocs(t *testing.T) {
	const runs, bound = 20, 20
	db, m := newMap(20)
	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		for n := 0; n < 14; n += 2 {
			if err := m.Insert(tr, "tok", pk(n), []int64{int64(n), 40}); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := db.CreateTransaction()
	a := m.Async(tr)
	// Issue every op up front, so the measured function only applies.
	ops := make([]Op, 0, 2*(runs+1))
	for i := 0; i <= runs; i++ {
		ops = a.IssueDelete(a.IssueInsert(ops, "tok", pk(7), []int64{3, 9}), "tok", pk(7))
	}
	allocs := testing.AllocsPerRun(runs, func() {
		for i := range ops[:2] {
			if ok, err := ops[i].Apply(); err != nil || !ok {
				t.Fatalf("apply: %v %v", ok, err)
			}
		}
		ops = ops[2:]
	})
	if allocs > bound {
		t.Errorf("a mid-bunch insert and delete allocated %.0f times, bound %d", allocs, bound)
	}
	t.Logf("a mid-bunch insert and delete: %.0f allocations", allocs)
}

// TestSpliceMatchesDecodeEncode drives seeded histories through Op.Apply and
// through the decode/encode reference, serial and batched, at bunch sizes 1–4
// and 20. Each transaction's results and TxnStats, and the
// keyspace after it, must be identical: splicing encoded elements is the
// same write path, byte for byte.
func TestSpliceMatchesDecodeEncode(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 20}
	for seed := int64(0); seed < 320; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bunchSize := sizes[rng.Intn(len(sizes))]
		history := randomHistory(rng)
		dbS, mS := newMap(bunchSize)
		dbR, mR := newMap(bunchSize)
		for i, ops := range history {
			batched := rng.Intn(2) == 0
			got, err := runHistoryTxn(dbS, mS, ops, batched, applySplice)
			if err != nil {
				t.Fatalf("seed %d txn %d: splice: %v", seed, i, err)
			}
			want, err := runHistoryTxn(dbR, mR, ops, batched, applyReference)
			if err != nil {
				t.Fatalf("seed %d txn %d: reference: %v", seed, i, err)
			}
			if got != want {
				t.Fatalf("seed %d txn %d (bunch size %d, batched %v):\nsplice    %s\nreference %s", seed, i, bunchSize, batched, got, want)
			}
			s, r := dumpAll(t, dbS), dumpAll(t, dbR)
			if fmt.Sprint(s) != fmt.Sprint(r) {
				t.Fatalf("seed %d txn %d (bunch size %d, batched %v): keyspaces differ\nsplice    %v\nreference %v", seed, i, bunchSize, batched, s, r)
			}
		}
	}
}
