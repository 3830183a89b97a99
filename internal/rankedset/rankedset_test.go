package rankedset

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"recordlayer/internal/fdb"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

func newSet(t *testing.T, cfg *Config) (*fdb.Database, *RankedSet) {
	t.Helper()
	return fdb.Open(nil), New(subspace.FromTuple(tuple.Tuple{"rank"}), cfg)
}

func insert(t *testing.T, db *fdb.Database, rs *RankedSet, keys ...string) {
	t.Helper()
	for _, k := range keys {
		_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
			return rs.Insert(tr, []byte(k))
		})
		if err != nil {
			t.Fatalf("insert %s: %v", k, err)
		}
	}
}

func rankOf(t *testing.T, db *fdb.Database, rs *RankedSet, key string) (int64, bool) {
	t.Helper()
	var r int64
	var ok bool
	_, err := db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		var err error
		r, ok, err = rs.Rank(tr, []byte(key))
		return nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, ok
}

// figure5Config reproduces the exact skip list of the paper's Figure 5:
// levels 0..2; a, b, d promoted to level 1; a promoted to level 2.
func figure5Config() *Config {
	return &Config{
		Levels: 3,
		LevelFunc: func(key []byte, level int) bool {
			k := string(key)
			switch level {
			case 1:
				return k == "a" || k == "b" || k == "d"
			case 2:
				return k == "a"
			}
			return false
		},
	}
}

// TestFigure5 reproduces Appendix B Figure 5: the 6-element skip list and
// the worked rank("e") = 4 computation.
func TestFigure5(t *testing.T) {
	db, rs := newSet(t, figure5Config())
	insert(t, db, rs, "a", "b", "c", "d", "e", "f")

	// Figure 5(b): the rank of set element "e" is 4.
	if r, ok := rankOf(t, db, rs, "e"); !ok || r != 4 {
		t.Fatalf("rank(e) = %d, %v; paper says 4", r, ok)
	}
	// And every other element's rank is its ordinal.
	for i, k := range []string{"a", "b", "c", "d", "e", "f"} {
		if r, ok := rankOf(t, db, rs, k); !ok || r != int64(i) {
			t.Errorf("rank(%s) = %d, %v; want %d", k, r, ok, i)
		}
	}

	// Figure 5(a): level-1 fingers are a/1, b/2, d/3; level 2 is a/6.
	_, err := db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		checks := []struct {
			level int
			key   string
			count int64
		}{
			{1, "a", 1}, {1, "b", 2}, {1, "d", 3}, {2, "a", 6},
		}
		for _, c := range checks {
			raw, err := tr.Get(rs.levelKey(c.level, []byte(c.key)))
			if err != nil {
				return nil, err
			}
			if got := decodeCount(raw); got != c.count {
				t.Errorf("level %d %s: count %d, want %d", c.level, c.key, got, c.count)
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFigure5InsertOrderIndependent(t *testing.T) {
	db, rs := newSet(t, figure5Config())
	insert(t, db, rs, "e", "b", "f", "a", "d", "c") // scrambled order
	if r, ok := rankOf(t, db, rs, "e"); !ok || r != 4 {
		t.Fatalf("rank(e) = %d after scrambled inserts", r)
	}
}

func TestSelect(t *testing.T) {
	db, rs := newSet(t, figure5Config())
	insert(t, db, rs, "a", "b", "c", "d", "e", "f")
	_, err := db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		for i, want := range []string{"a", "b", "c", "d", "e", "f"} {
			got, ok, err := rs.Select(tr, int64(i))
			if err != nil {
				return nil, err
			}
			if !ok || string(got) != want {
				t.Errorf("select(%d) = %q, %v; want %q", i, got, ok, want)
			}
		}
		if _, ok, _ := rs.Select(tr, 6); ok {
			t.Error("select past end should miss")
		}
		if _, ok, _ := rs.Select(tr, -1); ok {
			t.Error("select(-1) should miss")
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDelete(t *testing.T) {
	db, rs := newSet(t, figure5Config())
	insert(t, db, rs, "a", "b", "c", "d", "e", "f")
	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		return rs.Delete(tr, []byte("c"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := rankOf(t, db, rs, "e"); !ok || r != 3 {
		t.Fatalf("rank(e) after deleting c: %d", r)
	}
	if _, ok := rankOf(t, db, rs, "c"); ok {
		t.Fatal("deleted element still ranked")
	}
	// Delete a promoted element (b is on level 1).
	_, err = db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		return rs.Delete(tr, []byte("b"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := rankOf(t, db, rs, "f"); !ok || r != 3 {
		t.Fatalf("rank(f) after deletes: %d", r)
	}
	var size int64
	_, _ = db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		var err error
		size, err = rs.Size(tr)
		return nil, err
	})
	if size != 4 {
		t.Fatalf("size after deletes: %d", size)
	}
}

func TestInsertIdempotent(t *testing.T) {
	db, rs := newSet(t, nil)
	v, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		return rs.Insert(tr, []byte("x"))
	})
	if err != nil || v.(bool) != true {
		t.Fatalf("first insert: %v %v", v, err)
	}
	v, err = db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		return rs.Insert(tr, []byte("x"))
	})
	if err != nil || v.(bool) != false {
		t.Fatalf("duplicate insert: %v %v", v, err)
	}
	if r, ok := rankOf(t, db, rs, "x"); !ok || r != 0 {
		t.Fatalf("rank after duplicate insert: %d", r)
	}
}

func TestCountLessNonMember(t *testing.T) {
	db, rs := newSet(t, nil)
	insert(t, db, rs, "b", "d", "f")
	_, err := db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		for _, c := range []struct {
			key  string
			want int64
		}{{"a", 0}, {"b", 0}, {"c", 1}, {"e", 2}, {"g", 3}} {
			got, err := rs.CountLess(tr, []byte(c.key))
			if err != nil {
				return nil, err
			}
			if got != c.want {
				t.Errorf("countLess(%s) = %d, want %d", c.key, got, c.want)
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRandomizedAgainstModel checks rank/select against a sorted-slice model
// through a random insert/delete workload with the default hash promotion.
func TestRandomizedAgainstModel(t *testing.T) {
	db, rs := newSet(t, nil)
	rng := rand.New(rand.NewSource(11))
	model := map[string]bool{}

	for step := 0; step < 400; step++ {
		k := fmt.Sprintf("key%04d", rng.Intn(300))
		if rng.Intn(3) == 0 {
			_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
				return rs.Delete(tr, []byte(k))
			})
			if err != nil {
				t.Fatal(err)
			}
			delete(model, k)
		} else {
			_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
				return rs.Insert(tr, []byte(k))
			})
			if err != nil {
				t.Fatal(err)
			}
			model[k] = true
		}

		if step%40 != 0 {
			continue
		}
		sorted := make([]string, 0, len(model))
		for m := range model {
			sorted = append(sorted, m)
		}
		sort.Strings(sorted)
		_, err := db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
			size, err := rs.Size(tr)
			if err != nil {
				return nil, err
			}
			if size != int64(len(sorted)) {
				t.Fatalf("step %d: size %d, model %d", step, size, len(sorted))
			}
			for i, m := range sorted {
				r, ok, err := rs.Rank(tr, []byte(m))
				if err != nil {
					return nil, err
				}
				if !ok || r != int64(i) {
					t.Fatalf("step %d: rank(%s) = %d,%v; want %d", step, m, r, ok, i)
				}
				sel, ok, err := rs.Select(tr, int64(i))
				if err != nil {
					return nil, err
				}
				if !ok || string(sel) != m {
					t.Fatalf("step %d: select(%d) = %q,%v; want %q", step, i, sel, ok, m)
				}
			}
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentInsertsDoNotConflict verifies the §10.1 claim: inserts of
// distinct keys sharing skip-list fingers use atomic adds and snapshot
// reads, so they commit concurrently without retries in the common case.
func TestConcurrentInsertsDistinctKeys(t *testing.T) {
	db, rs := newSet(t, nil)
	// Interleave two transactions inserting different keys.
	t1 := db.CreateTransaction()
	t2 := db.CreateTransaction()
	if _, err := rs.Insert(t1, []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Insert(t2, []byte("omega")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	err2 := t2.Commit()
	if err2 != nil && !fdb.IsRetryable(err2) {
		t.Fatal(err2)
	}
	if err2 != nil {
		// A retryable conflict is permitted (e.g. both split the same
		// finger); retry must succeed and preserve correctness.
		_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
			return rs.Insert(tr, []byte("omega"))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if r, ok := rankOf(t, db, rs, "omega"); !ok || r != 1 {
		t.Fatalf("rank(omega) = %d, %v", r, ok)
	}
	if r, ok := rankOf(t, db, rs, "alpha"); !ok || r != 0 {
		t.Fatalf("rank(alpha) = %d, %v", r, ok)
	}
}

func TestClear(t *testing.T) {
	db, rs := newSet(t, nil)
	insert(t, db, rs, "a", "b")
	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		return nil, rs.Clear(tr)
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.Size() != 0 {
		t.Fatalf("keys remain after clear: %d", db.Size())
	}
}
