package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// maxValue is the value limit the tests' clusters fold MutationAppendIfFits
// against: FoundationDB's 100 kB.
const maxValue = 100_000

// kind is one shape of write a generated request holds.
type kind int

const (
	kSet kind = iota
	kClearKey
	kClearRange
	kAdd
	kByteMax
	kCompareAndClear
	kVsKey
	kVsValue
	kWriteConflict
	kBump
	numKinds
)

var allKinds = []kind{kSet, kSet, kSet, kClearKey, kClearRange, kAdd, kByteMax, kCompareAndClear, kVsKey, kVsValue, kWriteConflict, kBump}

// reqGen builds CommitRequests by hand, as a client's write buffer would hold
// them: each op lands in the request the way Transaction buffers it, so a
// clear drops the buffered keys under it, a later set overrides a clear, and
// an atomic op on a key whose value the buffer knows folds at once.
type reqGen struct {
	rng   *rand.Rand
	keys  [][]byte // the key universe, sorted
	kinds []kind
}

// letterKeys is a small universe whose ends land on one another: a clear of
// b ends at b\x00, a key of its own.
func letterKeys() [][]byte {
	var keys [][]byte
	for _, k := range []string{"a", "b", "b\x00", "ba", "c", "d", "e", "f", "g", "h", "z"} {
		keys = append(keys, []byte(k))
	}
	return keys
}

// numberedKeys is k00000, k00001, … up to n keys.
func numberedKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%05d", i))
	}
	return keys
}

func newReqGen(rng *rand.Rand, keys [][]byte, kinds []kind) *reqGen {
	return &reqGen{rng: rng, keys: keys, kinds: kinds}
}

// key draws a key, one time in three from a hot spot of eight adjacent keys.
func (g *reqGen) key() []byte {
	if n := len(g.keys); n > 16 && g.rng.Intn(3) == 0 {
		return g.keys[n/2+g.rng.Intn(8)]
	}
	return g.keys[g.rng.Intn(len(g.keys))]
}

func (g *reqGen) value() []byte { return []byte(fmt.Sprintf("v%d", g.rng.Intn(3))) }

// request draws nops writes and up to three read conflict ranges at
// readVersion.
func (g *reqGen) request(readVersion int64, nops int) *CommitRequest {
	r := &CommitRequest{ReadVersion: readVersion, Deferred: map[*Entry]*BufEntry{}}
	for ; nops > 0; nops-- {
		k := g.key()
		switch g.kinds[g.rng.Intn(len(g.kinds))] {
		case kSet:
			g.put(r, &Entry{Key: k, Value: g.value()}, nil)
		case kClearKey:
			g.clear(r, k, append(bytes.Clone(k), 0))
		case kClearRange:
			g.clear(r, k, g.key())
		case kAdd:
			g.atomic(r, k, Mutation{MutationAdd, []byte{1, 0}[:1+g.rng.Intn(2)]})
		case kByteMax:
			g.atomic(r, k, Mutation{MutationByteMax, g.value()})
		case kCompareAndClear:
			g.atomic(r, k, Mutation{MutationCompareAndClear, g.value()})
		case kVsKey:
			raw := append(bytes.Clone(k), make([]byte, 10)...)
			r.VsKeys = append(r.VsKeys, VsKey{RawKey: raw, Offset: len(k), Value: g.value()})
		case kVsValue:
			g.put(r, &Entry{Key: k, Value: append([]byte("s"), make([]byte, 10)...)}, &BufEntry{VsOff: 1})
		case kWriteConflict:
			if g.rng.Intn(2) == 0 {
				r.WriteConflicts.AddKey(k)
			} else {
				r.WriteConflicts.Add(k, g.key())
			}
		case kBump:
			r.BumpMeta = true
		}
	}
	for i := g.rng.Intn(4); i > 0; i-- {
		if k := g.key(); g.rng.Intn(2) == 0 {
			r.ReadConflicts.AddKey(k)
		} else {
			r.ReadConflicts.Add(k, g.key())
		}
	}
	return r
}

// put buffers e in place of whatever r held for its key.
func (g *reqGen) put(r *CommitRequest, e *Entry, be *BufEntry) {
	var old *Entry
	r.Writes, old = Put(r.Writes, e)
	delete(r.Deferred, old)
	if be != nil {
		r.Deferred[e] = be
	}
}

// clear drops the buffered keys of [begin, end) and records the clear.
func (g *reqGen) clear(r *CommitRequest, begin, end []byte) {
	if bytes.Compare(begin, end) >= 0 {
		return
	}
	var it Iter
	for it.Seek(r.Writes, begin, false); it.Peek() != nil && bytes.Compare(it.Peek().E.Key, end) < 0; {
		delete(r.Deferred, it.Next().E)
	}
	r.Writes = ClearRange(r.Writes, begin, end)
	r.Clears.Add(begin, end)
}

// atomic buffers op on key: after the pending ops or the stamp the key
// already has, folded at once over a value the buffer knows, else pending.
func (g *reqGen) atomic(r *CommitRequest, key []byte, op Mutation) {
	e := Get(r.Writes, key)
	if be := r.Deferred[e]; be != nil {
		be.Ops = append(be.Ops, op)
		return
	}
	if e == nil && !r.Clears.ContainsKey(key) {
		g.put(r, &Entry{Key: key}, &BufEntry{Ops: []Mutation{op}, VsOff: -1})
		return
	}
	if val, cleared := ApplyMutations(e.Val(), []Mutation{op}, maxValue); cleared {
		g.clear(r, key, append(bytes.Clone(key), 0))
	} else {
		g.put(r, &Entry{Key: key, Value: val}, nil)
	}
}

// replay is the serial model: the committed requests applied one at a time,
// in commit order, to a sorted map.
type replay struct {
	kv      map[string][]byte
	commits []replayed // ascending by version
	states  [][]kvPair // states[v]: the store as of version v, sorted
	metas   []int64    // metas[v]: the metadata version as of v
}

type replayed struct {
	version int64
	writes  []KeyRange // in the order the resolver checks them
}

type kvPair struct{ k, v string }

func newReplay() *replay {
	return &replay{kv: map[string][]byte{}, states: [][]kvPair{nil}, metas: []int64{0}}
}

// conflict returns the first pair the resolver should name for r: the newest
// commit above r's read version first, its writes in order, the first read
// range each overlaps.
func (m *replay) conflict(r *CommitRequest) (read, write KeyRange, ok bool) {
	if r.ReadConflicts.Len() == 0 {
		return read, write, false
	}
	for i := len(m.commits) - 1; i >= 0 && m.commits[i].version > r.ReadVersion; i-- {
		for _, w := range m.commits[i].writes {
			for _, rr := range r.ReadConflicts.All() {
				hit := bytes.Compare(rr.Begin, w.Begin) <= 0 && bytes.Compare(w.Begin, rr.End) < 0
				if w.End != nil {
					hit = bytes.Compare(rr.Begin, w.End) < 0 && bytes.Compare(w.Begin, rr.End) < 0
				}
				if hit {
					return rr, w, true
				}
			}
		}
	}
	return read, write, false
}

// apply commits r at the next version, returning the keys and bytes it
// wrote.
func (m *replay) apply(r *CommitRequest) (keys, size int) {
	version := int64(len(m.states))
	stamp := Versionstamp(version)
	var writes []KeyRange
	for k := range m.kv {
		for _, cr := range r.Clears.All() {
			if string(cr.Begin) <= k && k < string(cr.End) {
				delete(m.kv, k)
			}
		}
	}
	// The resolver sees clears and written keys merged in key order, a clear
	// before a key it begins at.
	clears := r.Clears.All()
	var it Iter
	it.Seek(r.Writes, nil, false)
	for n := it.Next(); n != nil; n = it.Next() {
		for len(clears) > 0 && bytes.Compare(clears[0].Begin, n.E.Key) <= 0 {
			writes, clears = append(writes, clears[0]), clears[1:]
		}
		key, val := n.E.Key, n.E.Value
		writes = append(writes, KeyRange{Begin: key})
		keys++
		size += len(key)
		be := r.Deferred[n.E]
		if be != nil && be.VsOff >= 0 {
			val = append(val[:be.VsOff:be.VsOff], stamp...)
			val = append(val, n.E.Value[be.VsOff+10:]...)
		} else if be != nil {
			val = m.kv[string(key)]
		}
		if be != nil && be.Ops != nil {
			var cleared bool
			if val, cleared = ApplyMutations(val, be.Ops, maxValue); cleared {
				delete(m.kv, string(key))
				continue
			}
		}
		m.kv[string(key)] = val
		size += len(val)
	}
	writes = append(writes, clears...)
	for _, op := range r.VsKeys {
		key := append(append(op.RawKey[:op.Offset:op.Offset], stamp...), op.RawKey[op.Offset+10:]...)
		m.kv[string(key)] = op.Value
		writes = append(writes, KeyRange{Begin: key})
		keys++
		size += len(key) + len(op.Value)
	}
	writes = append(writes, r.WriteConflicts.All()...)
	m.commits = append(m.commits, replayed{version: version, writes: writes})

	state := make([]kvPair, 0, len(m.kv))
	for k, v := range m.kv {
		state = append(state, kvPair{k, string(v)})
	}
	sort.Slice(state, func(i, j int) bool { return state[i].k < state[j].k })
	meta := m.metas[len(m.metas)-1]
	if r.BumpMeta {
		meta = version
	}
	m.states, m.metas = append(m.states, state), append(m.metas, meta)
	return keys, size
}

// sameStore reports how the tree under root differs from state, or "".
func sameStore(root *Node, state []kvPair) string {
	var it Iter
	it.Seek(root, nil, false)
	for i, p := range state {
		n := it.Next()
		if n == nil {
			return fmt.Sprintf("missing %q and %d keys after it", p.k, len(state)-i-1)
		}
		if string(n.E.Key) != p.k || string(n.E.Value) != p.v {
			return fmt.Sprintf("key %d is %q=%q, want %q=%q", i, n.E.Key, n.E.Value, p.k, p.v)
		}
	}
	if n := it.Next(); n != nil {
		return fmt.Sprintf("extra key %q", n.E.Key)
	}
	return ""
}

// checkHistory commits n requests drawn from g to a new cluster, with a
// commit fault roll drawn from g too, and checks every verdict, the store,
// every retained snapshot and the metadata version against the serial
// replay. It returns a description of the first disagreement, or "".
func checkHistory(g *reqGen, n int) string {
	rolls, rolled := 0, Committed
	c := New(maxValue, func() Outcome {
		rolls++
		switch p := g.rng.Intn(20); {
		case p == 0:
			rolled = InjectedNotCommitted
		case p == 1:
			rolled = InjectedUnknownDropped
		case p == 2:
			rolled = InjectedUnknownApplied
		default:
			rolled = Committed
		}
		return rolled
	})
	m := newReplay()
	for i := 0; i < n; i++ {
		cur := int64(len(m.states) - 1)
		rv := cur - int64(g.rng.Intn(int(min(cur, SnapshotHistory))+1))
		r := g.request(rv, 1+g.rng.Intn(6))
		rolls = 0
		v := c.Commit(r)
		what := fmt.Sprintf("request %d (read version %d of %d)", i, rv, cur)
		if read, write, ok := m.conflict(r); ok {
			if v.Outcome != Conflicted || rolls != 0 {
				return fmt.Sprintf("%s: outcome %d after %d rolls, want a conflict on [%q, %q) by %q-%q", what, v.Outcome, rolls, read.Begin, read.End, write.Begin, write.End)
			}
			if !bytes.Equal(v.Read.Begin, read.Begin) || !bytes.Equal(v.Read.End, read.End) ||
				!bytes.Equal(v.Write.Begin, write.Begin) || !bytes.Equal(v.Write.End, write.End) || (v.Write.End == nil) != (write.End == nil) {
				return fmt.Sprintf("%s: conflict [%q, %q) by %q-%q, want [%q, %q) by %q-%q", what,
					v.Read.Begin, v.Read.End, v.Write.Begin, v.Write.End, read.Begin, read.End, write.Begin, write.End)
			}
		} else {
			if rolls != 1 || v.Outcome != rolled {
				return fmt.Sprintf("%s: outcome %d after %d rolls, want %d after one", what, v.Outcome, rolls, rolled)
			}
			if rolled == Committed || rolled == InjectedUnknownApplied {
				keys, size := m.apply(r)
				if v.Version != cur+VersionStep || v.KeysWritten != keys || v.BytesWritten != size {
					return fmt.Sprintf("%s: version %d, %d keys and %d bytes written, want %d, %d and %d", what,
						v.Version, v.KeysWritten, v.BytesWritten, cur+VersionStep, keys, size)
				}
			}
		}
		cur = int64(len(m.states) - 1)
		if c.ReadVersion() != cur {
			return fmt.Sprintf("%s: read version %d, want %d", what, c.ReadVersion(), cur)
		}
		for at := cur; at >= 0 && at >= cur-SnapshotHistory-1; at-- {
			s, ok := c.SnapshotAt(at)
			switch {
			case at < cur-SnapshotHistory:
				if ok {
					return fmt.Sprintf("%s: version %d is still retained", what, at)
				}
			case !ok || s.Version != at:
				return fmt.Sprintf("%s: snapshot of version %d is missing or at another version", what, at)
			case s.Meta != m.metas[at]:
				return fmt.Sprintf("%s: metadata version %d at version %d, want %d", what, s.Meta, at, m.metas[at])
			default:
				if d := sameStore(s.Root, m.states[at]); d != "" {
					return fmt.Sprintf("%s: the store at version %d: %s", what, at, d)
				}
			}
		}
	}
	return ""
}

// TestCommitRequestsMatchSerialReplay commits 300 seeded histories of 50 to
// 200 hand-built requests — sets, clears of one key and of ranges, ADD,
// BYTE_MAX and COMPARE_AND_CLEAR atomics, versionstamped keys and values,
// write conflict ranges and metadata bumps, each at a read version from the
// retained history with read conflict ranges over eleven keys — with a
// seeded commit fault roll. A verdict must be a conflict exactly when a
// request committed after its read version wrote, cleared or write-conflicted
// a key one of its read ranges holds, naming the first such pair as the
// resolver orders them; the roll must be drawn exactly when it is not. After
// every commit the store, and SnapshotAt of every retained version, must equal
// a serial replay of the committed requests on a sorted map, and the
// metadata version the last bump's commit version. A failure prints the seed.
func TestCommitRequestsMatchSerialReplay(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		if d := checkHistory(newReqGen(rng, letterKeys(), allKinds), 50+rng.Intn(151)); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
	}
}

// FuzzCommitHistory is TestCommitRequestsMatchSerialReplay with the
// generator's draws taken from the fuzz input (bytesSource). The first byte
// picks the kinds of write: 0 any, k the k-th kind alone; the second the
// number of requests. testdata/fuzz/FuzzCommitHistory holds one history per
// kind.
func FuzzCommitHistory(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		kinds := allKinds
		if k := int(data[0]) % (int(numKinds) + 1); k > 0 {
			kinds = []kind{kind(k - 1)}
		}
		rng := rand.New(&bytesSource{data: data[2:], rest: rand.NewSource(int64(data[0]))})
		if d := checkHistory(newReqGen(rng, letterKeys(), kinds), 1+int(data[1])); d != "" {
			t.Fatal(d)
		}
	})
}

// bytesSource is a rand.Source that takes each draw from the next two bytes
// of data and, once fewer are left, from rest: a fuzzer's input steers a
// history, and every input draws a whole one.
type bytesSource struct {
	data []byte
	rest rand.Source
}

// Int63 spreads two bytes over 63 bits with a multiplicative hash: the high
// bits rand.Rand's Intn reads depend on both.
func (s *bytesSource) Int63() int64 {
	if len(s.data) < 2 {
		return s.rest.Int63()
	}
	v := uint64(binary.LittleEndian.Uint16(s.data)) * 0x9E3779B97F4A7C15
	s.data = s.data[2:]
	return int64(v >> 1)
}

func (s *bytesSource) Seed(seed int64) { s.data, s.rest = nil, rand.NewSource(seed) }

// TestResolverWindowEvictionBoundary: the resolver window holds exactly the
// last ResolverWindow commits with writes, its floor is the newest version it
// evicted, and a request whose read version falls below the floor is too old,
// not one commit earlier; SnapshotAt finds exactly the SnapshotHistory
// snapshots below the current one.
func TestResolverWindowEvictionBoundary(t *testing.T) {
	c := New(maxValue, nil)
	write := func(rv int64, key string) *CommitRequest {
		r := &CommitRequest{ReadVersion: rv}
		r.Writes, _ = Put(nil, &Entry{Key: []byte(key), Value: []byte("v")})
		r.ReadConflicts.AddKey([]byte("k"))
		return r
	}
	for i := 0; i < 5; i++ {
		c.Commit(write(c.ReadVersion(), fmt.Sprintf("w%d", i)))
	}
	rv := c.ReadVersion()
	for i := 0; i < ResolverWindow; i++ {
		c.Commit(write(c.ReadVersion(), "w"))
	}
	// ResolverWindow commits after rv: the window still holds every one.
	if c.floor != rv {
		t.Fatalf("floor %d, want the read version %d", c.floor, rv)
	}
	if v := c.Commit(write(rv, "x")); v.Outcome != Committed {
		t.Fatalf("a read version at the floor: outcome %d, want committed", v.Outcome)
	}
	// That commit evicted version rv+1: rv is now below the floor.
	if v := c.Commit(write(rv, "x")); v.Outcome != TooOld {
		t.Fatalf("one commit past the window: outcome %d, want too old", v.Outcome)
	}
	if c.recent.len() != ResolverWindow || c.floor != rv+1 {
		t.Fatalf("window holds %d commits above floor %d, want %d above %d", c.recent.len(), c.floor, ResolverWindow, rv+1)
	}
	cur := c.ReadVersion()
	if _, ok := c.SnapshotAt(cur - SnapshotHistory); !ok {
		t.Fatalf("SnapshotAt(%d) at version %d: not retained", cur-SnapshotHistory, cur)
	}
	if _, ok := c.SnapshotAt(cur - SnapshotHistory - 1); ok {
		t.Fatalf("SnapshotAt(%d) at version %d: still retained", cur-SnapshotHistory-1, cur)
	}
}
