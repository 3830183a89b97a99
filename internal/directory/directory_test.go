package directory

import (
	"sync"
	"testing"

	"recordlayer/internal/fdb"
	"recordlayer/internal/subspace"
)

func newLayer() (*fdb.Database, *Layer) {
	db := fdb.Open(nil)
	l := NewLayerAt(subspace.FromBytes([]byte{0xFE}), subspace.FromBytes(nil), 7)
	return db, l
}

func TestAllocateUniqueSequential(t *testing.T) {
	db, l := newLayer()
	seen := map[int64]bool{}
	for i := 0; i < 200; i++ {
		v, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
			return l.Allocate(tr)
		})
		if err != nil {
			t.Fatal(err)
		}
		id := v.(int64)
		if seen[id] {
			t.Fatalf("duplicate allocation %d", id)
		}
		seen[id] = true
	}
}

func TestAllocateKeepsValuesSmall(t *testing.T) {
	db, l := newLayer()
	var maxID int64
	for i := 0; i < 100; i++ {
		v, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
			return l.Allocate(tr)
		})
		if err != nil {
			t.Fatal(err)
		}
		if id := v.(int64); id > maxID {
			maxID = id
		}
	}
	// 100 allocations with 64-entry windows should stay well under 1024.
	if maxID >= 1024 {
		t.Fatalf("allocated values grew too fast: max %d", maxID)
	}
}

func TestAllocateConcurrentUnique(t *testing.T) {
	db, l := newLayer()
	var mu sync.Mutex
	seen := map[int64]int{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				v, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
					return l.Allocate(tr)
				})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				seen[v.(int64)]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != 200 {
		t.Fatalf("expected 200 unique allocations, got %d", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("id %d allocated %d times", id, n)
		}
	}
}

func TestInternStable(t *testing.T) {
	db, l := newLayer()
	get := func(name string) int64 {
		v, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
			return l.Intern(tr, name)
		})
		if err != nil {
			t.Fatal(err)
		}
		return v.(int64)
	}
	a1 := get("com.example.application-with-a-long-name")
	b := get("another-app")
	a2 := get("com.example.application-with-a-long-name")
	if a1 != a2 {
		t.Fatalf("interning not stable: %d vs %d", a1, a2)
	}
	if a1 == b {
		t.Fatalf("distinct names share id %d", a1)
	}
}

func TestLookupNameReverse(t *testing.T) {
	db, l := newLayer()
	v, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		return l.Intern(tr, "my-app")
	})
	if err != nil {
		t.Fatal(err)
	}
	name, ok, err := resolveName(db, l, v.(int64))
	if err != nil || !ok || name != "my-app" {
		t.Fatalf("reverse lookup: %q %v %v", name, ok, err)
	}
}

func resolveName(db *fdb.Database, l *Layer, id int64) (string, bool, error) {
	var name string
	var ok bool
	_, err := db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		var err error
		name, ok, err = l.LookupName(tr, id)
		return nil, err
	})
	return name, ok, err
}

func TestCreateOrOpenDisjoint(t *testing.T) {
	db, l := newLayer()
	v, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		s1, err := l.CreateOrOpen(tr, "users", "alice")
		if err != nil {
			return nil, err
		}
		s2, err := l.CreateOrOpen(tr, "users", "bob")
		if err != nil {
			return nil, err
		}
		return [2]subspace.Subspace{s1, s2}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ss := v.([2]subspace.Subspace)
	if ss[0].Contains(ss[1].Bytes()) || ss[1].Contains(ss[0].Bytes()) {
		t.Fatal("sibling directories overlap")
	}
	// Short prefixes: two interned components should pack into a few bytes.
	if len(ss[0].Bytes()) > 8 {
		t.Fatalf("directory prefix too long: %d bytes", len(ss[0].Bytes()))
	}
}

func TestOpenMissing(t *testing.T) {
	db, l := newLayer()
	_, err := db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		_, ok, err := l.Open(tr, "does", "not", "exist")
		if err != nil {
			return nil, err
		}
		if ok {
			t.Error("open of missing path succeeded")
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestList(t *testing.T) {
	db, l := newLayer()
	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		for _, n := range []string{"b", "a", "c"} {
			if _, err := l.Intern(tr, n); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		names, err := l.List(tr)
		if err != nil {
			return nil, err
		}
		if len(names) != 3 || names[0] != "a" || names[2] != "c" {
			t.Errorf("list: %v", names)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInternCacheServesCommittedMappingsOnly: a committed mapping is answered
// from the cache with no read; a mapping the reading transaction itself wrote,
// or read after any other write of its own, is cached only when that
// transaction commits — so an Intern that never commits, conflicts, or ends
// in commit_unknown_result leaves nothing behind for later transactions to
// trust.
func TestInternCacheServesCommittedMappingsOnly(t *testing.T) {
	db, l := newLayer()

	// An Intern that is rolled back: the name must stay unknown.
	tr := db.CreateTransaction()
	ghost, err := l.Intern(tr, "ghost")
	if err != nil {
		t.Fatal(err)
	}
	if id, ok, err := l.LookupInterned(tr, "ghost"); err != nil || !ok || id != ghost {
		t.Fatalf("read-your-writes lookup: %d %v %v", id, ok, err)
	}
	tr.Cancel()
	_, err = db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		if _, ok, err := l.LookupInterned(tr, "ghost"); err != nil || ok {
			t.Fatalf("uncommitted mapping leaked out of its transaction: ok=%v err=%v", ok, err)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A committed Intern fills the cache as it commits: no reader after it
	// reads the mapping.
	v, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) { return l.Intern(tr, "app") })
	if err != nil {
		t.Fatal(err)
	}
	want := v.(int64)
	// lookup interns "app" through layer in a transaction that commits or
	// not, after a write of its own or not.
	lookup := func(layer *Layer, dirty, commit bool) (id int64, keysRead int) {
		run := db.ReadTransact
		if commit {
			run = db.Transact
		}
		_, err := run(func(tr *fdb.Transaction) (interface{}, error) {
			if dirty {
				if err := tr.Set([]byte("unrelated"), nil); err != nil {
					return nil, err
				}
			}
			var err error
			id, err = layer.Intern(tr, "app")
			keysRead = tr.Stats().KeysRead
			return nil, err
		})
		if err != nil {
			t.Fatal(err)
		}
		return id, keysRead
	}
	if id, reads := lookup(l, true, false); id != want || reads != 0 {
		t.Fatalf("lookup after the interning commit: id %d (want %d), %d keys read (want 0)", id, want, reads)
	}
	hits, misses := l.CacheStats()
	if hits != 1 || misses != 4 {
		t.Fatalf("cache stats: %d hits, %d misses; want 1 and 4", hits, misses)
	}

	// A second server's cold layer: a dirty reader that never commits fills
	// nothing, a clean one fills at once, and a dirty one when it commits.
	for _, c := range []struct {
		name          string
		dirty, commit bool
		fills         bool
	}{
		{"dirty, not committed", true, false, false},
		{"clean", false, false, true},
		{"dirty, committed", true, true, true},
	} {
		cold := NewLayerAt(subspace.FromBytes([]byte{0xFE}), subspace.FromBytes(nil), 8)
		if id, reads := lookup(cold, c.dirty, c.commit); id != want || reads != 1 {
			t.Fatalf("%s: id %d (want %d), %d keys read (want 1)", c.name, id, want, reads)
		}
		if _, reads := lookup(cold, false, false); (reads == 0) != c.fills {
			t.Fatalf("%s: next lookup read %d keys, want the cache filled=%v", c.name, reads, c.fills)
		}
	}

	// Interning attempts that fail cache nothing: the loser of a race for one
	// name, and a commit_unknown_result whether or not it applied.
	trA, trB := db.CreateTransaction(), db.CreateTransaction()
	if _, err := l.Intern(trA, "raced"); err != nil {
		t.Fatal(err)
	}
	winner, err := l.Intern(trB, "raced")
	if err != nil {
		t.Fatal(err)
	}
	if err := trB.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := trA.Commit(); !fdb.IsConflict(err) {
		t.Fatalf("second Intern of one name committed: %v", err)
	}
	if id, ok, err := l.LookupInterned(db.CreateTransaction(), "raced"); err != nil || !ok || id != winner {
		t.Fatalf("after the race the cache says %d %v %v, want the winner's %d", id, ok, err, winner)
	}
	for _, cfg := range []fdb.FaultConfig{
		{Seed: 1, PCommitUnknown: 1, PUnknownApplied: 1},
		{Seed: 1, PCommitUnknown: 1, UnknownNeverApplies: true},
	} {
		inj := fdb.NewFaultInjector(cfg)
		fdbWithFaults := fdb.Open(&fdb.Options{Faults: inj})
		tr := fdbWithFaults.CreateTransaction()
		if _, err := l.Intern(tr, "unknown"); err != nil {
			t.Fatal(err)
		}
		if err := tr.Commit(); !fdb.IsMaybeCommitted(err) {
			t.Fatalf("%+v: commit = %v, want commit_unknown_result", cfg, err)
		}
		inj.Disable()
		check := fdbWithFaults.CreateTransaction()
		_, ok, err := l.LookupInterned(check, "unknown")
		if err != nil || ok != (cfg.PUnknownApplied == 1) || check.Stats().KeysRead != 1 {
			t.Fatalf("%+v: lookup found=%v err=%v after %d reads; want found only if applied, read from the database",
				cfg, ok, err, check.Stats().KeysRead)
		}
	}

	// The cache is per cluster: another database knows nothing of "app".
	db2 := fdb.Open(nil)
	_, err = db2.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		if _, ok, err := l.LookupInterned(tr, "app"); err != nil || ok {
			t.Fatalf("mapping of one database served for another: ok=%v err=%v", ok, err)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
