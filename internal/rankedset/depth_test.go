package rankedset

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"
	"time"

	"recordlayer/internal/fdb"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// refCountLess is the level-by-level descent countLess replaced, kept as the
// reference: one range read per level, each starting where the level above
// stopped. It must return what countLess returns and read the same pairs.
func refCountLess(rs *RankedSet, tr *fdb.Transaction, key []byte) (int64, error) {
	var rank int64
	cur := head
	for l := rs.levels - 1; l >= 0; l-- {
		begin := rs.levelKey(l, cur)
		end := rs.levelKey(l, key)
		kvs, _, err := tr.Snapshot().GetRange(begin, end, fdb.RangeOptions{})
		if err != nil {
			return 0, err
		}
		if l == 0 {
			for _, kv := range kvs {
				rank += decodeCount(kv.Value)
			}
			break
		}
		for i, kv := range kvs {
			if i == len(kvs)-1 {
				t, err := rs.space.Unpack(kv.Key)
				if err != nil {
					return 0, err
				}
				cur = t[1].([]byte)
			} else {
				rank += decodeCount(kv.Value)
			}
		}
	}
	return rank, nil
}

// refSelect is the entry-by-entry walk Select replaced, kept as the
// reference: a Get of the current entry's count and a Limit-1 range read of
// its successor for every entry passed.
func refSelect(rs *RankedSet, tr *fdb.Transaction, rank int64) ([]byte, bool, error) {
	if rank < 0 {
		return nil, false, nil
	}
	var passed int64
	cur := head
	for l := rs.levels - 1; l >= 0; l-- {
		for {
			raw, err := tr.Snapshot().Get(rs.levelKey(l, cur))
			if err != nil {
				return nil, false, err
			}
			count := decodeCount(raw)
			if passed+count > rank {
				break // descend: the target lies within cur's finger
			}
			begin := fdb.KeyAfter(rs.levelKey(l, cur))
			_, end := rs.levelRange(l)
			kvs, _, err := tr.Snapshot().GetRange(begin, end, fdb.RangeOptions{Limit: 1})
			if err != nil {
				return nil, false, err
			}
			if len(kvs) == 0 {
				if l == 0 {
					return nil, false, nil // rank beyond the end
				}
				break
			}
			t, err := rs.space.Unpack(kvs[0].Key)
			if err != nil {
				return nil, false, err
			}
			passed += count
			cur = t[1].([]byte)
		}
		if l == 0 {
			if passed == rank && len(cur) > 0 {
				return cur, true, nil
			}
			return nil, false, nil
		}
	}
	return nil, false, nil
}

const depthWindow = time.Millisecond

func latencyDB() *fdb.Database {
	return fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{PerRead: depthWindow, Virtual: true}})
}

// randomConfig draws a level count in 2..6 and, per level, the share of the
// level below it keeps (1/2 .. 1/16). Levels nest, as the skip list requires.
func randomConfig(rng *rand.Rand) *Config {
	levels := 2 + rng.Intn(5)
	keep := make([]uint64, levels)
	for l := range keep {
		keep[l] = 2 << rng.Intn(4)
	}
	salt := byte(rng.Intn(256))
	return &Config{Levels: levels, LevelFunc: func(key []byte, level int) bool {
		h := fnv.New64a()
		h.Write([]byte{salt})
		h.Write(key)
		v := h.Sum64()
		for l := 1; l <= level; l++ {
			if v%keep[l] != 0 {
				return false
			}
			v /= 16
		}
		return true
	}}
}

// TestCountLessAndSelectMatchReference drives random insert/delete histories
// into sets nothing ever initialised, with random level counts and densities,
// and requires of every probe key and every rank: the answer equals the
// serial reference's and a sorted model's; CountLess reads exactly the pairs
// the reference reads and waits at most two windows; Select waits at most one
// window per level plus one and reads at most a batch per level.
func TestCountLessAndSelectMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 320; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := randomConfig(rng)
		db := latencyDB()
		rs := New(subspace.FromTuple(tuple.Tuple{"rank"}), cfg)
		model := map[string]bool{}
		universe := func() string { return fmt.Sprintf("k%02d", rng.Intn(48)) }
		for step, steps := 0, rng.Intn(90); step < steps; {
			_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
				for n := 1 + rng.Intn(4); n > 0; n-- {
					k := universe()
					step++
					if rng.Intn(3) == 0 {
						delete(model, k)
						if _, err := rs.Delete(tr, []byte(k)); err != nil {
							return nil, err
						}
						continue
					}
					model[k] = true
					if _, err := rs.Insert(tr, []byte(k)); err != nil {
						return nil, err
					}
				}
				return nil, nil
			})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		sorted := make([]string, 0, len(model))
		for m := range model {
			sorted = append(sorted, m)
		}
		sort.Strings(sorted)

		// Probe keys: every member, non-members between them, below all, above all.
		probes := []string{"!", "~"}
		for i := 0; i < 48; i++ {
			probes = append(probes, fmt.Sprintf("k%02d", i))
		}
		_, err := db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
			for _, p := range probes {
				want := int64(sort.SearchStrings(sorted, p))
				s0 := tr.Stats()
				got, err := rs.CountLess(tr, []byte(p))
				if err != nil {
					return nil, err
				}
				s1 := tr.Stats()
				ref, err := refCountLess(rs, tr, []byte(p))
				if err != nil {
					return nil, err
				}
				s2 := tr.Stats()
				if got != want || ref != want {
					t.Fatalf("seed %d: CountLess(%s) = %d, reference %d, model %d", seed, p, got, ref, want)
				}
				if a, b := s1.KeysRead-s0.KeysRead, s2.KeysRead-s1.KeysRead; a != b {
					t.Fatalf("seed %d: CountLess(%s) read %d keys, reference %d", seed, p, a, b)
				}
				if w := time.Duration(s1.SimWaitNanos - s0.SimWaitNanos); w > 2*depthWindow {
					t.Fatalf("seed %d: CountLess(%s) waited %v, want at most two windows", seed, p, w)
				}
				r, ok, err := rs.Rank(tr, []byte(p))
				if err != nil {
					return nil, err
				}
				if ok != model[p] || (ok && r != want) {
					t.Fatalf("seed %d: Rank(%s) = %d, %v; model %d, %v", seed, p, r, ok, want, model[p])
				}
			}
			for rank := int64(-1); rank <= int64(len(sorted))+1; rank++ {
				s0 := tr.Stats()
				got, ok, err := rs.Select(tr, rank)
				if err != nil {
					return nil, err
				}
				s1 := tr.Stats()
				ref, refOK, err := refSelect(rs, tr, rank)
				if err != nil {
					return nil, err
				}
				wantOK := rank >= 0 && rank < int64(len(sorted))
				if ok != wantOK || refOK != wantOK || (ok && (string(got) != sorted[rank] || string(ref) != sorted[rank])) {
					t.Fatalf("seed %d: Select(%d) = %q, %v; reference %q, %v; model has %d", seed, rank, got, ok, ref, refOK, len(sorted))
				}
				if w := time.Duration(s1.SimWaitNanos - s0.SimWaitNanos); w > time.Duration(cfg.Levels+1)*depthWindow {
					t.Fatalf("seed %d: Select(%d) waited %v with %d levels", seed, rank, w, cfg.Levels)
				}
				if n := s1.KeysRead - s0.KeysRead; n > selectBatch*cfg.Levels {
					t.Fatalf("seed %d: Select(%d) read %d keys with %d levels", seed, rank, n, cfg.Levels)
				}
			}
			return nil, nil
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestSelectContinuesPastABatch covers the one case the random histories
// keep small: a level longer than a batch. 100 members all promoted to level
// 1 of 2 put 101 entries there, so reaching the last takes four batches, and
// the level-0 read below it one more.
func TestSelectContinuesPastABatch(t *testing.T) {
	db := latencyDB()
	rs := New(subspace.FromTuple(tuple.Tuple{"rank"}), &Config{Levels: 2,
		LevelFunc: func([]byte, int) bool { return true }})
	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		for i := 0; i < 100; i++ {
			if _, err := rs.Insert(tr, []byte(fmt.Sprintf("m%03d", i))); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		for _, c := range []struct {
			rank    int64
			windows int
		}{{0, 2}, {30, 2}, {31, 3}, {99, 5}, {100, 4}} {
			before := tr.Stats().SimWaitNanos
			got, ok, err := rs.Select(tr, c.rank)
			if err != nil {
				return nil, err
			}
			if want := fmt.Sprintf("m%03d", c.rank); c.rank < 100 && (!ok || string(got) != want) {
				t.Errorf("Select(%d) = %q, %v; want %q", c.rank, got, ok, want)
			} else if c.rank >= 100 && ok {
				t.Errorf("Select(%d) = %q, want none", c.rank, got)
			}
			if w := time.Duration(tr.Stats().SimWaitNanos - before); w != time.Duration(c.windows)*depthWindow {
				t.Errorf("Select(%d) waited %v, want %d windows", c.rank, w, c.windows)
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInsertBatchWindows: a batch of inserts into a set nothing initialised
// waits for its shared probe window and for nothing else — no head window
// before it — except one fresh in-level sum per finger a promoted key splits.
func TestInsertBatchWindows(t *testing.T) {
	const n = 64
	for _, c := range []struct {
		name string
		cfg  *Config
	}{
		{"all on level 0", &Config{LevelFunc: func([]byte, int) bool { return false }}},
		{"default promotion", nil},
	} {
		db := latencyDB()
		rs := New(subspace.FromTuple(tuple.Tuple{"rank"}), c.cfg)
		splits := 0
		_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
			a := rs.Async(tr)
			ops := make([]*Op, n)
			for i := range ops {
				key := []byte(fmt.Sprintf("w%02d", i))
				for l := 1; l < rs.levels; l++ {
					if rs.inLvl(key, l) {
						splits++
					}
				}
				var err error
				if ops[i], err = a.IssueInsert(key); err != nil {
					return nil, err
				}
			}
			for _, op := range ops {
				if _, err := op.Apply(); err != nil {
					return nil, err
				}
			}
			if got, want := time.Duration(tr.Stats().SimWaitNanos), time.Duration(1+splits)*depthWindow; got != want {
				t.Errorf("%s: %d inserts waited %v, want %v (1 probe window + %d split sums)", c.name, n, got, want, splits)
			}
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if c.cfg == nil && splits == 0 {
			t.Errorf("%s: no key of the batch is promoted; the split case is not covered", c.name)
		}
		if size, _ := db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) { return rs.Size(tr) }); size != int64(n) {
			t.Errorf("%s: size %v after %d inserts", c.name, size, n)
		}
	}
}

// TestConcurrentFirstWriters: two transactions each make the first write to a
// skip list, so each finds every level without a head and creates it. Both
// commit — the heads are written with ADD, and neither insert reads a key the
// other writes — and both counts must survive. A head created with a blind
// Set of 0 erases the count of whichever transaction committed first.
func TestConcurrentFirstWriters(t *testing.T) {
	db, rs := newSet(t, nil)
	t1, t2 := db.CreateTransaction(), db.CreateTransaction()
	if _, err := rs.Insert(t1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Insert(t2, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	size, err := db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) { return rs.Size(tr) })
	if err != nil || size != int64(2) {
		t.Fatalf("size %v, %v after two concurrent first inserts; want 2", size, err)
	}
	for i, k := range []string{"a", "b"} {
		if r, ok := rankOf(t, db, rs, k); !ok || r != int64(i) {
			t.Errorf("rank(%s) = %d, %v; want %d", k, r, ok, i)
		}
	}
}
