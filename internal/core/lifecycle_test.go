package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

func TestOpenCreatesHeader(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	withStore(t, db, md, sp, func(s *Store) error {
		if s.Header().MetaDataVersion != 1 || s.Header().FormatVersion != FormatVersion {
			t.Fatalf("header: %+v", s.Header())
		}
		return nil
	})
	// Opening without CreateIfMissing fails for a fresh subspace.
	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		_, err := Open(tr, md, subspace.FromTuple(tuple.Tuple{"other"}), OpenOptions{})
		return nil, err
	})
	if err == nil {
		t.Fatal("open of missing store succeeded")
	}
}

func TestStaleMetadataRejected(t *testing.T) {
	db, _, sp := newStoreEnv(t)
	// Create at version 2.
	v2 := metadata.NewBuilder(2).
		AddRecordType(userDesc(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		MustBuild()
	withStore(t, db, v2, sp, func(s *Store) error { return nil })

	// A client with version-1 metadata must be told its cache is stale (§5).
	v1 := metadata.NewBuilder(1).
		AddRecordType(userDesc(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		MustBuild()
	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		_, err := Open(tr, v1, sp, OpenOptions{})
		return nil, err
	})
	if _, ok := err.(*ErrStaleMetaData); !ok {
		t.Fatalf("expected ErrStaleMetaData, got %v", err)
	}
}

// evolveSchema builds a v2 adding an index over the name field.
func evolveSchema(t testing.TB) *metadata.MetaData {
	t.Helper()
	b := metadata.NewBuilder(2).
		AddRecordType(userDesc(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		AddIndex(&metadata.Index{Name: "by_score", Type: metadata.IndexValue,
			Expression: keyexpr.Field("score"), AddedVersion: 2}, "User")
	return b.MustBuild()
}

func baseSchemaV1(t testing.TB) *metadata.MetaData {
	t.Helper()
	return metadata.NewBuilder(1).
		AddRecordType(userDesc(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		MustBuild()
}

func TestAddIndexSmallStoreBuildsInline(t *testing.T) {
	db := fdb.Open(nil)
	sp := subspace.FromTuple(tuple.Tuple{"t"})
	v1 := baseSchemaV1(t)
	saveUsers(t, db, v1, sp, mkUser(1, "a", 10), mkUser(2, "b", 20))

	// Open with v2: the store has few records, so the new index is built
	// inline within the opening transaction (§5).
	v2 := evolveSchema(t)
	withStore(t, db, v2, sp, func(s *Store) error {
		st := s.IndexState("by_score")
		if st != metadata.StateReadable {
			t.Fatalf("state after inline build: %v", st)
		}
		entries := scanIndex(t, s, "by_score", index.TupleRange{})
		if len(entries) != 2 || entries[0].Key()[0].(int64) != 10 {
			t.Fatalf("inline-built entries: %v", entries)
		}
		return nil
	})
}

func TestAddIndexLargeStoreRequiresOnlineBuild(t *testing.T) {
	db := fdb.Open(nil)
	sp := subspace.FromTuple(tuple.Tuple{"t"})
	v1 := baseSchemaV1(t)
	var users []*message.Message
	for i := int64(1); i <= 50; i++ {
		users = append(users, mkUser(i, fmt.Sprintf("u%d", i), i*10))
	}
	saveUsers(t, db, v1, sp, users...)

	v2 := evolveSchema(t)
	cfg := Config{InlineBuildLimit: 10} // force the online path
	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		s, err := Open(tr, v2, sp, OpenOptions{Config: cfg})
		if err != nil {
			return nil, err
		}
		st := s.IndexState("by_score")
		if st != metadata.StateDisabled {
			t.Fatalf("state for large store: %v", st)
		}
		// Reads from the unbuilt index must be refused (§6).
		if _, err := s.ScanIndex("by_score", index.TupleRange{}, index.ScanOptions{}); err == nil {
			t.Fatal("scan of disabled index succeeded")
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Build online in small batches across many transactions (§6).
	indexer := &OnlineIndexer{DB: db, MetaData: v2, Space: sp, IndexName: "by_score", BatchSize: 7, Config: cfg}
	n, err := indexer.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("indexed %d records", n)
	}

	_, err = db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		s, err := Open(tr, v2, sp, OpenOptions{Config: cfg})
		if err != nil {
			return nil, err
		}
		entries := scanIndex(t, s, "by_score", index.TupleRange{})
		if len(entries) != 50 {
			t.Fatalf("entries after online build: %d", len(entries))
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWriteOnlyIndexMaintainedDuringBuild(t *testing.T) {
	db := fdb.Open(nil)
	sp := subspace.FromTuple(tuple.Tuple{"t"})
	v1 := baseSchemaV1(t)
	var users []*message.Message
	for i := int64(1); i <= 30; i++ {
		users = append(users, mkUser(i, fmt.Sprintf("u%d", i), i))
	}
	saveUsers(t, db, v1, sp, users...)

	v2 := evolveSchema(t)
	cfg := Config{InlineBuildLimit: 5}
	withStore(t, db, v2, sp, func(s *Store) error { return nil }) // migrate header; index disabled

	// Transition to write-only manually, then save a record: the write-only
	// index must be maintained even though it cannot serve reads (§6).
	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		s, err := Open(tr, v2, sp, OpenOptions{Config: cfg})
		if err != nil {
			return nil, err
		}
		if err := s.MarkIndexWriteOnly("by_score"); err != nil {
			return nil, err
		}
		_, err = s.SaveRecord(mkUser(99, "new", 990))
		return nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		s, err := Open(tr, v2, sp, OpenOptions{Config: cfg})
		if err != nil {
			return nil, err
		}
		if _, err := s.ScanIndex("by_score", index.TupleRange{}, index.ScanOptions{}); err == nil {
			t.Fatal("write-only index served a read")
		}
		// The write-only index has the new record's entry.
		m, err := index.NewMaintainer(mustIndex(t, v2, "by_score"))
		if err != nil {
			return nil, err
		}
		_ = m
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Finish the build; the concurrent save must appear exactly once.
	indexer := &OnlineIndexer{DB: db, MetaData: v2, Space: sp, IndexName: "by_score", BatchSize: 8, Config: cfg}
	if _, err := indexer.Build(context.Background()); err != nil {
		t.Fatal(err)
	}
	withStore(t, db, v2, sp, func(s *Store) error {
		entries := scanIndex(t, s, "by_score", index.TupleRange{Low: tuple.Tuple{int64(990)}, LowInclusive: true})
		if len(entries) != 1 {
			t.Fatalf("write-only maintained entry: %v", entries)
		}
		all := scanIndex(t, s, "by_score", index.TupleRange{})
		if len(all) != 31 {
			t.Fatalf("total entries: %d", len(all))
		}
		return nil
	})
}

func mustIndex(t testing.TB, md *metadata.MetaData, name string) *metadata.Index {
	t.Helper()
	ix, ok := md.Index(name)
	if !ok {
		t.Fatalf("no index %s", name)
	}
	return ix
}

func TestRemovedIndexDataCleared(t *testing.T) {
	db := fdb.Open(nil)
	sp := subspace.FromTuple(tuple.Tuple{"t"})
	v1 := metadata.NewBuilder(1).
		AddRecordType(userDesc(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		AddIndex(&metadata.Index{Name: "by_name", Type: metadata.IndexValue,
			Expression: keyexpr.Field("name")}, "User").
		MustBuild()
	saveUsers(t, db, v1, sp, mkUser(1, "a", 1))
	before := db.Size()

	v2 := metadata.NewBuilder(2).
		AddRecordType(userDesc(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		AddIndex(&metadata.Index{Name: "by_name", Type: metadata.IndexValue,
			Expression: keyexpr.Field("name"), AddedVersion: 1}, "User").
		RemoveIndex("by_name").
		MustBuild()
	withStore(t, db, v2, sp, func(s *Store) error { return nil })
	if db.Size() >= before {
		t.Fatalf("index data not cleared: %d -> %d keys", before, db.Size())
	}
}

func TestUniqueIndex(t *testing.T) {
	db := fdb.Open(nil)
	sp := subspace.FromTuple(tuple.Tuple{"t"})
	md := metadata.NewBuilder(1).
		AddRecordType(userDesc(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		AddIndex(&metadata.Index{Name: "uniq_name", Type: metadata.IndexValue, Unique: true,
			Expression: keyexpr.Field("name")}, "User").
		MustBuild()
	saveUsers(t, db, md, sp, mkUser(1, "alice", 1))

	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		s, err := Open(tr, md, sp, OpenOptions{})
		if err != nil {
			return nil, err
		}
		_, err = s.SaveRecord(mkUser(2, "alice", 2))
		return nil, err
	})
	if err == nil || !strings.Contains(err.Error(), "uniqueness") {
		t.Fatalf("duplicate unique key accepted: %v", err)
	}
	// Same record (same pk) may be re-saved.
	saveUsers(t, db, md, sp, mkUser(1, "alice", 5))
}

func TestSparseIndexFilter(t *testing.T) {
	metadata.RegisterIndexFilter("core_high_score", func(m *message.Message) bool {
		v, ok := m.Get("score")
		return ok && v.(int64) >= 100
	})
	db := fdb.Open(nil)
	sp := subspace.FromTuple(tuple.Tuple{"t"})
	md := metadata.NewBuilder(1).
		AddRecordType(userDesc(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		AddIndex(&metadata.Index{Name: "high_scores", Type: metadata.IndexValue,
			Expression: keyexpr.Field("score"), FilterName: "core_high_score"}, "User").
		MustBuild()
	saveUsers(t, db, md, sp, mkUser(1, "low", 10), mkUser(2, "high", 500))

	withStore(t, db, md, sp, func(s *Store) error {
		entries := scanIndex(t, s, "high_scores", index.TupleRange{})
		if len(entries) != 1 || entries[0].Key()[0].(int64) != 500 {
			t.Fatalf("sparse index: %v", entries)
		}
		// Dropping below the threshold removes the entry.
		if _, err := s.SaveRecord(mkUser(2, "high", 50)); err != nil {
			return err
		}
		if entries := scanIndex(t, s, "high_scores", index.TupleRange{}); len(entries) != 0 {
			t.Fatalf("sparse index after drop: %v", entries)
		}
		return nil
	})
}

func TestSplitDisabledRejectsBigRecords(t *testing.T) {
	db := fdb.Open(nil)
	sp := subspace.FromTuple(tuple.Tuple{"t"})
	md := metadata.NewBuilder(1).
		SetSplitLongRecords(false).
		AddRecordType(userDesc(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		MustBuild()
	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		s, err := Open(tr, md, sp, OpenOptions{CreateIfMissing: true, Config: Config{SplitChunkSize: 100}})
		if err != nil {
			return nil, err
		}
		big := mkUser(1, strings.Repeat("x", 500), 1)
		_, err = s.SaveRecord(big)
		return nil, err
	})
	if err == nil {
		t.Fatal("oversized record accepted with splitting disabled")
	}
}

func TestDeleteStoreRemovesEverything(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	saveUsers(t, db, md, sp, mkUser(1, "a", 1), mkUser(2, "b", 2))
	if db.Size() == 0 {
		t.Fatal("expected data")
	}
	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		return nil, DeleteStore(tr, sp)
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.Size() != 0 {
		t.Fatalf("%d keys remain after store deletion", db.Size())
	}
}

func TestUserVersionPersists(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	withStore(t, db, md, sp, func(s *Store) error { return s.SetUserVersion(7) })
	withStore(t, db, md, sp, func(s *Store) error {
		if s.Header().UserVersion != 7 {
			t.Fatalf("user version: %d", s.Header().UserVersion)
		}
		return nil
	})
}

func TestScanRecordsByPrimaryKeyRange(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	var users []*message.Message
	for i := int64(1); i <= 9; i++ {
		users = append(users, mkUser(i, fmt.Sprintf("u%d", i), i))
	}
	saveUsers(t, db, md, sp, users...)

	withStore(t, db, md, sp, func(s *Store) error {
		recs, _, _, err := cursor.Collect(s.ScanRecords(ScanOptions{
			Range: index.TupleRange{
				Low: tuple.Tuple{"User", int64(3)}, LowInclusive: true,
				High: tuple.Tuple{"User", int64(6)}, HighInclusive: true,
			},
		}))
		if err != nil {
			return err
		}
		if len(recs) != 4 {
			t.Fatalf("pk range scan: %d records", len(recs))
		}
		// Reverse scan.
		recs, _, _, err = cursor.Collect(s.ScanRecords(ScanOptions{Reverse: true}))
		if err != nil {
			return err
		}
		if len(recs) != 9 {
			t.Fatalf("reverse scan: %d", len(recs))
		}
		if v, _ := recs[0].Message.Get("id"); v.(int64) != 9 {
			t.Fatalf("reverse order: %v", v)
		}
		return nil
	})
}

// TestOnlineIndexerCancellation checks that a background build stops at a
// batch boundary when its context is cancelled between batches, that the
// partial progress is durable, and that a later Build resumes from it and
// completes the index.
func TestOnlineIndexerCancellation(t *testing.T) {
	db := fdb.Open(nil)
	sp := subspace.FromTuple(tuple.Tuple{"cancel"})
	v1 := baseSchemaV1(t)
	var users []*message.Message
	for i := int64(1); i <= 30; i++ {
		users = append(users, mkUser(i, fmt.Sprintf("u%d", i), i*10))
	}
	saveUsers(t, db, v1, sp, users...)

	v2 := evolveSchema(t)
	cfg := Config{InlineBuildLimit: 5} // force the online path
	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		_, err := Open(tr, v2, sp, OpenOptions{Config: cfg})
		return nil, err
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Transaction 1 marks the index write-only, 2 and 3 are the first two
	// batches; a stop request arrives before the third.
	door := &hookDoor{Door: db, before: func(n int) {
		if n == 4 {
			cancel()
		}
	}}
	indexer := &OnlineIndexer{DB: door, MetaData: v2, Space: sp, IndexName: "by_score", BatchSize: 7, Config: cfg}
	n, err := indexer.Build(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build returned %v (n=%d), want context.Canceled", err, n)
	}
	if n != 14 {
		t.Fatalf("cancelled after %d records, want 14 (two 7-record batches)", n)
	}
	// The index must not have become readable.
	withStore(t, db, v2, sp, func(s *Store) error {
		st := s.IndexState("by_score")
		if st != metadata.StateWriteOnly {
			t.Fatalf("state after cancellation: %v, want write-only", st)
		}
		return nil
	})

	// A fresh build resumes from the durable progress: only the remaining
	// records are scanned.
	resume := &OnlineIndexer{DB: db, MetaData: v2, Space: sp, IndexName: "by_score", BatchSize: 7, Config: cfg}
	n2, err := resume.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n+n2 != 30 {
		t.Fatalf("resume indexed %d records after %d, want 30 total", n2, n)
	}
	withStore(t, db, v2, sp, func(s *Store) error {
		if entries := scanIndex(t, s, "by_score", index.TupleRange{}); len(entries) != 30 {
			t.Fatalf("final index has %d entries", len(entries))
		}
		return nil
	})

	// An already-cancelled context fails fast without touching the store.
	dead, cancelDead := context.WithCancel(context.Background())
	cancelDead()
	if _, err := resume.Build(dead); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled build returned %v", err)
	}
}

// TestInlineBuildLimitCountsRecords: with record versions on, each record is
// two pairs; the inline-build limit still counts records, so three records
// under a limit of four build the new index inline.
func TestInlineBuildLimitCountsRecords(t *testing.T) {
	db := fdb.Open(nil)
	sp := subspace.FromTuple(tuple.Tuple{"t"})
	versioned := func(version int) *metadata.Builder {
		return metadata.NewBuilder(version).SetStoreRecordVersions(true).
			AddRecordType(userDesc(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id")))
	}
	saveUsers(t, db, versioned(1).MustBuild(), sp, mkUser(1, "a", 10), mkUser(2, "b", 20), mkUser(3, "c", 30))
	v2 := versioned(2).AddIndex(&metadata.Index{Name: "by_score", Type: metadata.IndexValue,
		Expression: keyexpr.Field("score"), AddedVersion: 2}, "User").MustBuild()
	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		s, err := Open(tr, v2, sp, OpenOptions{Config: Config{InlineBuildLimit: 4}})
		if err != nil {
			return nil, err
		}
		if st := s.IndexState("by_score"); st != metadata.StateReadable {
			t.Fatalf("3 records under a limit of 4: by_score is %v", st)
		}
		if entries := scanIndex(t, s, "by_score", index.TupleRange{}); len(entries) != 3 {
			t.Fatalf("inline-built entries: %v", entries)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSaveTwiceInOneTransactionKeepsOneVersionEntry: a record saved, saved
// again and another saved then deleted, all in one transaction, leave one
// VERSION entry, the second save's.
func TestSaveTwiceInOneTransactionKeepsOneVersionEntry(t *testing.T) {
	db := fdb.Open(nil)
	sp := subspace.FromTuple(tuple.Tuple{"t"})
	md := metadata.NewBuilder(1).SetStoreRecordVersions(true).
		AddRecordType(userDesc(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		AddIndex(&metadata.Index{Name: "by_version", Type: metadata.IndexVersion, Expression: keyexpr.Version()}).
		MustBuild()
	withStore(t, db, md, sp, func(s *Store) error {
		for _, u := range []*message.Message{mkUser(1, "a", 10), mkUser(2, "b", 20), mkUser(1, "a2", 11)} {
			if _, err := s.SaveRecord(u); err != nil {
				return err
			}
		}
		_, err := s.DeleteRecord(tuple.Tuple{"User", int64(2)})
		return err
	})
	withStore(t, db, md, sp, func(s *Store) error {
		entries := scanIndex(t, s, "by_version", index.TupleRange{})
		rec, err := s.LoadRecordByKey(tuple.Tuple{"User", int64(1)})
		if err != nil {
			return err
		}
		if len(entries) != 1 || entries[0].Key()[0] != rec.Version {
			t.Fatalf("version entries %v, record 1 at %v", entries, rec.Version)
		}
		return nil
	})
}

// TestOpensInOneTransactionShareUserVersions: a store opened twice in one
// transaction, and a second store opened beside it, draw user versions from
// the transaction's one counter, so no two records the transaction saves
// share a version, and the VERSION index keeps them in save order.
func TestOpensInOneTransactionShareUserVersions(t *testing.T) {
	db := fdb.Open(nil)
	spaces := []subspace.Subspace{subspace.FromTuple(tuple.Tuple{"t", int64(1)}), subspace.FromTuple(tuple.Tuple{"t", int64(2)})}
	md := metadata.NewBuilder(1).SetStoreRecordVersions(true).
		AddRecordType(userDesc(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		AddIndex(&metadata.Index{Name: "by_version", Type: metadata.IndexVersion, Expression: keyexpr.Version()}).
		MustBuild()
	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		for i, sp := range []subspace.Subspace{spaces[0], spaces[0], spaces[1]} {
			s, err := Open(tr, md, sp, OpenOptions{CreateIfMissing: true})
			if err != nil {
				return nil, err
			}
			if _, err := s.SaveRecord(mkUser(int64(3-i), "u", 0)); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int64{}
	for i, sp := range spaces {
		withStore(t, db, md, sp, func(s *Store) error {
			var order []int64
			for _, e := range scanIndex(t, s, "by_version", index.TupleRange{}) {
				order = append(order, e.PrimaryKey()[1].(int64))
				v := string(e.Key()[0].(tuple.Versionstamp).Bytes())
				if id, dup := seen[v]; dup {
					t.Fatalf("records %d and %d share version %x", id, order[len(order)-1], v)
				}
				seen[v] = order[len(order)-1]
			}
			if want := [][]int64{{3, 2}, {1}}[i]; fmt.Sprint(order) != fmt.Sprint(want) {
				t.Fatalf("store %d: version order %v, want save order %v", i+1, order, want)
			}
			return nil
		})
	}
}
