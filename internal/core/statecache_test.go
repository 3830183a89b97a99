package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/metadata"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// cached runs f on a store opened through c in its own committed transaction
// and returns what the open (not f) read.
func cached(t testing.TB, c *StateCache, db *fdb.Database, md *metadata.MetaData, sp subspace.Subspace,
	f func(s *Store) error) (openKeysRead int) {
	t.Helper()
	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		s, err := c.Open(tr, md, sp, OpenOptions{CreateIfMissing: true})
		if err != nil {
			return nil, err
		}
		openKeysRead = tr.Stats().KeysRead
		if f == nil {
			return nil, nil
		}
		return nil, f(s)
	})
	if err != nil {
		t.Fatal(err)
	}
	return openKeysRead
}

// TestStateCacheValidityRule pins lastBump(R) <= V <= R on the cache alone.
func TestStateCacheValidityRule(t *testing.T) {
	c := NewStateCache()
	db := fdb.Open(nil)
	st := &storeState{header: Header{MetaDataVersion: 1, FormatVersion: FormatVersion}}
	prefix := []byte("store")
	c.put(db, prefix, 10, st) // V = 10
	for _, tc := range []struct {
		name            string
		readVersion     int64
		lastBump        int64
		hit, invalidate bool
	}{
		{"same version", 10, 0, true, false},
		{"later, no bump since", 25, 10, true, false},
		{"later, bump before V", 25, 7, true, false},
		{"later, bump after V", 25, 11, false, true},
		{"entry from the reader's future", 9, 0, false, false},
	} {
		before := c.Stats()
		got := c.lookup(db, prefix, tc.readVersion, tc.lastBump)
		d := c.Stats()
		if (got != nil) != tc.hit {
			t.Errorf("%s: hit=%v, want %v", tc.name, got != nil, tc.hit)
		}
		if inv := d.Invalidations-before.Invalidations == 1; inv != tc.invalidate {
			t.Errorf("%s: invalidation counted=%v, want %v", tc.name, inv, tc.invalidate)
		}
		if d.Hits+d.Misses != before.Hits+before.Misses+1 {
			t.Errorf("%s: lookup not counted exactly once", tc.name)
		}
	}
	if c.lookup(fdb.Open(nil), prefix, 10, 0) != nil {
		t.Error("entry of one database served for another")
	}
	// A loader pinned to an old snapshot must not replace a newer entry.
	c.put(db, prefix, 5, &storeState{header: Header{MetaDataVersion: 9}})
	if got := c.lookup(db, prefix, 10, 0); got == nil || got.header.MetaDataVersion != 1 {
		t.Errorf("older load overwrote the newer entry: %+v", got)
	}
}

// TestStateCacheEntryFootprint is the memory half of the trade: a cached
// store costs at most 96 bytes of live heap, map overhead and key included,
// because all stores in the common state share one storeState. 20 000 entries
// is tenant_fanout's population.
func TestStateCacheEntryFootprint(t *testing.T) {
	const n = 20000
	db := fdb.Open(nil)
	prefixes := make([][]byte, n)
	for i := range prefixes {
		prefixes[i] = subspace.FromTuple(tuple.Tuple{"bench", int64(7), int64(i)}).Bytes()
	}
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := live()
	c := NewStateCache()
	for i, p := range prefixes {
		c.put(db, p, int64(i), &storeState{header: Header{MetaDataVersion: 1, FormatVersion: FormatVersion}})
	}
	after := live()
	if len(c.entries[db]) != n {
		t.Fatalf("cache holds %d entries, want %d", len(c.entries[db]), n)
	}
	perEntry := float64(after-before) / n
	t.Logf("%.1f live bytes per cached store", perEntry)
	if perEntry > 96 {
		t.Fatalf("%.1f live bytes per cached store, want <= 96", perEntry)
	}
	runtime.KeepAlive(prefixes)
	runtime.KeepAlive(c)
}

// TestStateCacheBounded: the cache never exceeds its fixed cap.
func TestStateCacheBounded(t *testing.T) {
	c := NewStateCache()
	db := fdb.Open(nil)
	st := &storeState{}
	for i := 0; i < maxCachedStates+100; i++ {
		c.put(db, []byte(fmt.Sprintf("s%07d", i)), 1, st)
	}
	if len(c.entries[db]) != maxCachedStates {
		t.Fatalf("cache holds %d entries, cap is %d", len(c.entries[db]), maxCachedStates)
	}
}

// TestCachedOpenReadsNothingAndStillConflicts: a warm open issues no read,
// yet a concurrent change of the state it relied on aborts its commit exactly
// as if it had read header and states.
func TestCachedOpenReadsNothingAndStillConflicts(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	c := NewStateCache()
	cached(t, c, db, md, sp, nil) // creates: its commit caches the header it wrote
	if got := cached(t, c, db, md, sp, nil); got != 0 {
		t.Fatalf("first open after the creating commit read %d keys, want 0", got)
	}
	if got := cached(t, c, db, md, sp, nil); got != 0 {
		t.Fatalf("warm open read %d keys, want 0", got)
	}
	if s := c.Stats(); s.Hits != 2 || s.Misses != 1 || s.Invalidations != 0 {
		t.Fatalf("stats %+v, want 2 hits, 1 miss", s)
	}

	// A saves from cache while B disables an index: A must not commit.
	trA := db.CreateTransaction()
	sA, err := c.Open(trA, md, sp, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if trA.Stats().KeysRead != 0 {
		t.Fatal("A's open was not served from cache")
	}
	withStore(t, db, md, sp, func(s *Store) error { return s.MarkIndexDisabled("user_by_name") })
	if _, err := sA.SaveRecord(mkUser(1, "ann", 10)); err != nil {
		t.Fatal(err)
	}
	if err := trA.Commit(); !fdb.IsConflict(err) {
		t.Fatalf("save that skipped nothing but relied on stale state committed: %v", err)
	}

	// The retry sees the bump: one miss, the new state, and the index skipped.
	if got := cached(t, c, db, md, sp, func(s *Store) error {
		if st := s.IndexState("user_by_name"); st != metadata.StateDisabled {
			t.Fatalf("after B's change A sees %v", st)
		}
		_, err := s.SaveRecord(mkUser(1, "ann", 10))
		return err
	}); got != 2 {
		t.Fatalf("open after a bump read %d keys, want 2 (header + one state)", got)
	}
	if s := c.Stats(); s.Invalidations != 1 {
		t.Fatalf("stats %+v, want 1 invalidation", s)
	}
}

// TestEveryStateWriterBumps: each operation that changes what a cache may
// hold advances the metadata version — with or without a cache in sight — and
// nothing else does, creation included.
func TestEveryStateWriterBumps(t *testing.T) {
	db := fdb.Open(nil)
	sp := subspace.FromTuple(tuple.Tuple{"t"})
	v1, v2 := baseSchemaV1(t), evolveSchema(t)
	metaNow := func() int64 {
		v, _, err := db.CreateTransaction().MetadataVersion()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	step := func(name string, wantBump bool, md *metadata.MetaData, f func(s *Store) error) {
		t.Helper()
		before := metaNow()
		withStore(t, db, md, sp, f)
		if bumped := metaNow() != before; bumped != wantBump {
			t.Errorf("%s: bumped=%v, want %v", name, bumped, wantBump)
		}
	}
	step("create", false, v1, func(s *Store) error { return nil })
	step("open", false, v1, func(s *Store) error { return nil })
	step("save", false, v1, func(s *Store) error { _, err := s.SaveRecord(mkUser(1, "a", 1)); return err })
	step("SetUserVersion", true, v1, func(s *Store) error { return s.SetUserVersion(3) })
	step("metadata upgrade", true, v2, func(s *Store) error { return nil })
	step("MarkIndexWriteOnly", true, v2, func(s *Store) error { return s.MarkIndexWriteOnly("by_score") })
	step("MarkIndexReadable", true, v2, func(s *Store) error { return s.MarkIndexReadable("by_score") })
	step("MarkIndexDisabled", true, v2, func(s *Store) error { return s.MarkIndexDisabled("by_score") })
	step("clearIndexData", true, v2, func(s *Store) error { return s.clearIndexData("by_score") })
	step("DeleteAllRecords", true, v2, func(s *Store) error { return s.DeleteAllRecords() })
	step("delete record", false, v2, func(s *Store) error { _, err := s.DeleteRecord(tuple.Tuple{"User", int64(1)}); return err })
	before := metaNow()
	if _, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) { return nil, DeleteStore(tr, sp) }); err != nil {
		t.Fatal(err)
	}
	if metaNow() == before {
		t.Error("DeleteStore did not bump")
	}
}

// TestCacheNeverOutlivesWhatItDescribes walks one store through the state
// changes a second server makes, with server A opening through its cache
// after each: A's view must equal an uncached open's, every time.
func TestCacheNeverOutlivesWhatItDescribes(t *testing.T) {
	db := fdb.Open(nil)
	sp := subspace.FromTuple(tuple.Tuple{"t"})
	v1, v2 := baseSchemaV1(t), evolveSchema(t)
	a := NewStateCache()
	saveUsers(t, db, v1, sp, mkUser(1, "a", 10))
	view := func(s *Store) string {
		return fmt.Sprintf("%+v by_score=%v", s.Header(), s.IndexState("by_score"))
	}
	agree := func(step string, md *metadata.MetaData) {
		t.Helper()
		var fromCache, fresh string
		for i := 0; i < 2; i++ { // second pass is the warm one
			cached(t, a, db, md, sp, func(s *Store) error { fromCache = view(s); return nil })
			withStore(t, db, md, sp, func(s *Store) error { fresh = view(s); return nil })
			if fromCache != fresh {
				t.Fatalf("%s (pass %d): cached open sees %s, uncached %s", step, i, fromCache, fresh)
			}
		}
	}
	agree("initial", v1)
	withStore(t, db, v1, sp, func(s *Store) error { return s.SetUserVersion(7) })
	agree("SetUserVersion", v1)
	withStore(t, db, v2, sp, func(s *Store) error { return nil }) // B upgrades; by_score built inline
	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		_, err := a.Open(tr, v1, sp, OpenOptions{})
		return nil, err
	})
	var stale *ErrStaleMetaData
	if !errors.As(err, &stale) {
		t.Fatalf("A with the old schema after B's upgrade: %v, want ErrStaleMetaData", err)
	}
	agree("upgrade", v2)
	for _, mark := range []struct {
		name string
		f    func(s *Store) error
	}{
		{"write-only", func(s *Store) error { return s.MarkIndexWriteOnly("by_score") }},
		{"readable", func(s *Store) error { return s.MarkIndexReadable("by_score") }},
		{"disabled", func(s *Store) error { return s.MarkIndexDisabled("by_score") }},
		{"delete all", func(s *Store) error { return s.DeleteAllRecords() }},
	} {
		withStore(t, db, v2, sp, mark.f)
		agree(mark.name, v2)
	}

	// Delete and recreate: the dead store's header (user version 7) must not
	// come back from the cache — not later, and not inside the deleting
	// transaction, whose own bump makes it bypass the cache.
	_, err = db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		if err := DeleteStore(tr, sp); err != nil {
			return nil, err
		}
		s, err := a.Open(tr, v2, sp, OpenOptions{CreateIfMissing: true})
		if err != nil {
			return nil, err
		}
		if s.Header().UserVersion != 0 {
			t.Fatalf("reopen inside the deleting transaction got the dead header: %+v", s.Header())
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	agree("delete + recreate", v2)

	// A transaction pinned below the entry's version neither uses it nor
	// replaces it.
	entry := a.entries[db][string(sp.Bytes())]
	hits := a.Stats().Hits
	tr := db.CreateTransaction()
	tr.SetReadVersion(entry.version - 1)
	if _, err := a.Open(tr, v2, sp, OpenOptions{}); err != nil {
		t.Fatal(err)
	}
	if a.Stats().Hits != hits || a.entries[db][string(sp.Bytes())] != entry {
		t.Fatal("a transaction pinned to an older snapshot used or replaced a newer entry")
	}
}

// TestOpenDoesNotCacheWhatItsOwnTransactionWrote: a state read after the
// transaction buffered a write may be uncommitted, so it is cached only when
// that transaction commits — at the commit version, and not if the commit
// fails or the transaction bumped.
func TestOpenDoesNotCacheWhatItsOwnTransactionWrote(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	c := NewStateCache()
	saveUsers(t, db, md, sp, mkUser(1, "a", 1))
	dirtyOpen := func() *fdb.Transaction {
		t.Helper()
		tr := db.CreateTransaction()
		if err := tr.Set([]byte("elsewhere"), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Open(tr, md, sp, OpenOptions{}); err != nil {
			t.Fatal(err)
		}
		if len(c.entries[db]) != 0 {
			t.Fatal("a dirty transaction populated the cache before it committed")
		}
		return tr
	}
	tr := dirtyOpen()
	withStore(t, db, md, sp, func(s *Store) error { return s.SetUserVersion(2) })
	if err := tr.Commit(); !fdb.IsConflict(err) {
		t.Fatalf("dirty open across a concurrent header change committed: %v", err)
	}
	if len(c.entries[db]) != 0 {
		t.Fatal("a conflicted transaction populated the cache")
	}
	tr = dirtyOpen()
	tr.Cancel()
	if len(c.entries[db]) != 0 {
		t.Fatal("a canceled transaction populated the cache")
	}

	tr = dirtyOpen()
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	cv, _ := tr.CommittedVersion()
	if e := c.entries[db][string(sp.Bytes())]; e.st == nil || e.version != cv || e.st.header.UserVersion != 2 {
		t.Fatalf("committed dirty open cached %+v, want user version 2 at version %d", e, cv)
	}
	if got := cached(t, c, db, md, sp, nil); got != 0 {
		t.Fatalf("open after a committed dirty open read %d keys, want 0", got)
	}
	c = NewStateCache()
	// The scan below goes through the index, whose readability came from Open.
	cached(t, c, db, md, sp, func(s *Store) error {
		if n := len(scanIndex(t, s, "user_by_name", index.TupleRange{})); n != 1 {
			t.Fatalf("%d index entries, want 1", n)
		}
		return nil
	})
	if len(c.entries[db]) != 1 {
		t.Fatal("a clean transaction did not populate the cache")
	}
}

// TestCreatorWarmsTheCache: the transaction that creates a store caches the
// header it wrote when it commits, unless it also changed store state (and so
// bumped) or lost the creation race.
func TestCreatorWarmsTheCache(t *testing.T) {
	db, md, _ := newStoreEnv(t)
	c := NewStateCache()
	n := 0
	fresh := func() subspace.Subspace {
		n++
		return subspace.FromTuple(tuple.Tuple{"created", int64(n)})
	}
	view := func(s *Store) string {
		return fmt.Sprintf("%+v user_by_name=%v", s.Header(), s.IndexState("user_by_name"))
	}
	for _, tc := range []struct {
		name string
		then func(s *Store) error
		warm bool
	}{
		{"create", func(*Store) error { return nil }, true},
		{"create and save", func(s *Store) error { _, err := s.SaveRecord(mkUser(1, "a", 1)); return err }, true},
		{"create and SetUserVersion", func(s *Store) error { return s.SetUserVersion(4) }, false},
		{"create and MarkIndexWriteOnly", func(s *Store) error { return s.MarkIndexWriteOnly("user_by_name") }, false},
		{"create and delete", func(s *Store) error { return DeleteStore(s.tr, s.space) }, false},
	} {
		sp := fresh()
		cached(t, c, db, md, sp, tc.then)
		var fromCache, uncached string
		reads := cached(t, c, db, md, sp, func(s *Store) error { fromCache = view(s); return nil })
		withStore(t, db, md, sp, func(s *Store) error { uncached = view(s); return nil })
		if fromCache != uncached {
			t.Errorf("%s: cached open sees %s, uncached %s", tc.name, fromCache, uncached)
		}
		if warm := reads == 0; warm != tc.warm {
			t.Errorf("%s: next open read %d keys, want warm=%v", tc.name, reads, tc.warm)
		}
	}

	// Two servers create one store at once: the loser conflicts, caches
	// nothing, and its retry finds the winner's store.
	sp := fresh()
	b := NewStateCache()
	trA, trB := db.CreateTransaction(), db.CreateTransaction()
	if _, err := c.Open(trA, md, sp, OpenOptions{CreateIfMissing: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Open(trB, md, sp, OpenOptions{CreateIfMissing: true}); err != nil {
		t.Fatal(err)
	}
	if err := trA.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := trB.Commit(); !fdb.IsConflict(err) {
		t.Fatalf("second creator committed: %v", err)
	}
	if len(b.entries[db]) != 0 {
		t.Fatal("the losing creator populated its cache")
	}
	if got := cached(t, c, db, md, sp, nil); got != 0 {
		t.Fatalf("winner's next open read %d keys, want 0", got)
	}
	if got := cached(t, b, db, md, sp, nil); got != 1 {
		t.Fatalf("loser's retry read %d keys, want 1 (the winner's header)", got)
	}
}

// BenchmarkOpen prices an open with nothing cached (header ∥ states read)
// against one served from a warm StateCache, in CPU terms; bench/'s
// core.open_ns probe measures the first.
func BenchmarkOpen(b *testing.B) {
	db, md, sp := newStoreEnv(b)
	saveUsers(b, db, md, sp, mkUser(1, "a", 1))
	for _, bc := range []struct {
		name  string
		cache *StateCache
	}{{"uncached", nil}, {"warm", NewStateCache()}} {
		b.Run(bc.name, func(b *testing.B) {
			tr := db.CreateTransaction()
			for i := 0; i < b.N+1; i++ { // the first open fills the cache
				if i == 1 {
					b.ResetTimer()
				}
				if _, err := bc.cache.Open(tr, md, sp, OpenOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
