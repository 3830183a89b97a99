package bunched

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"recordlayer/internal/fdb"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// dumpAll returns every pair in the database as "hexkey=hexval" lines.
func dumpAll(t *testing.T, db *fdb.Database) []string {
	t.Helper()
	var out []string
	_, err := db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		kvs, _, err := tr.Snapshot().GetRange([]byte{0x00}, []byte{0xFF, 0xFF, 0xFF}, fdb.RangeOptions{})
		if err != nil {
			return nil, err
		}
		out = out[:0]
		for _, kv := range kvs {
			out = append(out, fmt.Sprintf("%x=%x", kv.Key, kv.Value))
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

type mapOp struct {
	insert  bool
	token   string
	n       int
	offsets []int64
}

// runOps drives the ops through one transaction. Serial mode issues and
// applies each op in turn; batched mode issues every op before applying any —
// the cross-record pipelining shape. Both report the transaction's stats, so
// the test can require the writes issued to match too.
func runOps(t *testing.T, db *fdb.Database, m *Map, ops []mapOp, batched bool) (changed []bool, stats fdb.TxnStats) {
	t.Helper()
	changed = make([]bool, len(ops))
	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		defer func() { stats = tr.Stats() }()
		a := m.Async(tr)
		issue := func(o mapOp) *Op {
			if o.insert {
				return &a.IssueInsert(nil, o.token, pk(o.n), o.offsets)[0]
			}
			return &a.IssueDelete(nil, o.token, pk(o.n))[0]
		}
		if !batched {
			for i, o := range ops {
				var err error
				changed[i], err = issue(o).Apply()
				if err != nil {
					return nil, err
				}
			}
			return nil, nil
		}
		pending := make([]*Op, len(ops))
		for i, o := range ops {
			pending[i] = issue(o)
		}
		for i, p := range pending {
			var err error
			changed[i], err = p.Apply()
			if err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return changed, stats
}

func compareRuns(t *testing.T, bunchSize int, seed, ops []mapOp) {
	t.Helper()
	mk := func() (*fdb.Database, *Map) {
		db, m := newMap(bunchSize)
		_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
			for _, o := range seed {
				if err := m.Insert(tr, o.token, pk(o.n), o.offsets); err != nil {
					return nil, err
				}
			}
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return db, m
	}
	dbS, mS := mk()
	dbB, mB := mk()
	chS, statsS := runOps(t, dbS, mS, ops, false)
	chB, statsB := runOps(t, dbB, mB, ops, true)
	for i := range ops {
		if chS[i] != chB[i] {
			t.Fatalf("op %d (%+v): serial changed=%v batched changed=%v", i, ops[i], chS[i], chB[i])
		}
	}
	if statsS.Mutations != statsB.Mutations || statsS.Size != statsB.Size {
		t.Fatalf("writes differ: serial %d mutations / %d bytes, batched %d / %d",
			statsS.Mutations, statsS.Size, statsB.Mutations, statsB.Size)
	}
	s, b := dumpAll(t, dbS), dumpAll(t, dbB)
	if len(s) != len(b) {
		t.Fatalf("keyspace size differs: serial %d batched %d", len(s), len(b))
	}
	for i := range s {
		if s[i] != b[i] {
			t.Fatalf("keyspace differs at %d:\nserial  %s\nbatched %s", i, s[i], b[i])
		}
	}
}

// TestAsyncBatchMatchesSerial drives randomized mixed insert/delete batches
// through the issue-all-then-apply-all path and the serial path, requiring
// byte-identical keyspaces and identical issued writes — locates resolved
// through the write log must equal locates read under read-your-writes.
func TestAsyncBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tokens := []string{"ahab", "boat", "call", "dick", "east"}
	for round := 0; round < 40; round++ {
		bunchSize := 1 + rng.Intn(4)
		var seed []mapOp
		for i := 0; i < rng.Intn(15); i++ {
			seed = append(seed, mapOp{insert: true, token: tokens[rng.Intn(len(tokens))],
				n: rng.Intn(12), offsets: []int64{int64(rng.Intn(50))}})
		}
		var ops []mapOp
		for i := 0; i < 3+rng.Intn(18); i++ {
			ops = append(ops, mapOp{insert: rng.Intn(3) > 0, token: tokens[rng.Intn(len(tokens))],
				n: rng.Intn(12), offsets: []int64{int64(rng.Intn(50))}})
		}
		compareRuns(t, bunchSize, seed, ops)
	}
}

// TestAsyncOverlayBoundaryCases pins the adversarial interleavings the
// overlay must resolve: a later op's locate landing on a bunch an earlier op
// rewrote, re-anchored, or spilled; a delete clearing the raw locate result
// (reissue path); and spill-merge against a neighbor created in the batch.
func TestAsyncOverlayBoundaryCases(t *testing.T) {
	off := []int64{1}
	cases := []struct {
		seed []mapOp
		ops  []mapOp
	}{
		// Overflow spill, then an insert whose locate is the spilled bunch.
		{
			seed: []mapOp{{true, "t", 1, off}, {true, "t", 2, off}},
			ops:  []mapOp{{true, "t", 3, off}, {true, "t", 4, off}},
		},
		// Delete the anchor (re-anchors the bunch), then insert below the new
		// anchor: the second op's raw locate key was cleared.
		{
			seed: []mapOp{{true, "t", 2, off}, {true, "t", 5, off}},
			ops:  []mapOp{{false, "t", 2, off}, {true, "t", 3, off}},
		},
		// Delete the only entry (bunch vanishes), then insert the same token:
		// the raw locate is gone and nothing logged dominates.
		{
			seed: []mapOp{{true, "t", 4, off}},
			ops:  []mapOp{{false, "t", 4, off}, {true, "t", 6, off}},
		},
		// Spill-merge with a neighbor bunch that was rewritten in the batch.
		{
			seed: []mapOp{{true, "t", 1, off}, {true, "t", 2, off}, {true, "t", 8, off}},
			ops:  []mapOp{{false, "t", 8, off}, {true, "t", 8, off}, {true, "t", 0, off}},
		},
		// Churn one logical entry.
		{
			seed: []mapOp{{true, "t", 3, off}},
			ops:  []mapOp{{true, "t", 3, off}, {false, "t", 3, off}, {true, "t", 3, off}},
		},
	}
	for i, c := range cases {
		t.Run(fmt.Sprintf("case%d", i), func(t *testing.T) {
			compareRuns(t, 2, c.seed, c.ops)
		})
	}
}

// TestAsyncBatchSharesWindow asserts the point of the pipeline on the virtual
// clock: N batched inserts resolve their boundary scans in ~1 window, while
// the serial loop pays at least one window per insert.
func TestAsyncBatchSharesWindow(t *testing.T) {
	const window = time.Millisecond
	const n = 10
	simwait := func(batched bool) int64 {
		db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{PerRead: window, Virtual: true}})
		m := New(subspace.FromTuple(tuple.Tuple{"text"}), 4)
		var waited int64
		_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
			ops := make([]*Op, 0, n)
			a := m.Async(tr)
			for i := 0; i < n; i++ {
				op := &a.IssueInsert(nil, fmt.Sprintf("tok%02d", i), pk(i), []int64{int64(i)})[0]
				if batched {
					ops = append(ops, op)
					continue
				}
				if _, err := op.Apply(); err != nil {
					return nil, err
				}
			}
			for _, op := range ops {
				if _, err := op.Apply(); err != nil {
					return nil, err
				}
			}
			waited = tr.Stats().SimWaitNanos
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return waited
	}
	serial, batched := simwait(false), simwait(true)
	if minSerial := int64(n) * int64(window); serial < minSerial {
		t.Fatalf("serial simwait %v, expected >= %v", serial, minSerial)
	}
	if batched >= serial/3 {
		t.Fatalf("batched simwait %v not well below serial %v", time.Duration(batched), time.Duration(serial))
	}
}
