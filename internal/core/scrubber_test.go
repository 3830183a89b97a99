package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// scrubEnv builds a store of n users and returns a scrubber over the
// user_by_name VALUE index.
func scrubEnv(t *testing.T, n int) (*fdb.Database, *Scrubber) {
	t.Helper()
	db, md, sp := newStoreEnv(t)
	withStore(t, db, md, sp, func(s *Store) error {
		for i := 0; i < n; i++ {
			u := mkUser(int64(i+1), "user-"+string(rune('a'+i%26)), int64(i*10))
			if _, err := s.SaveRecord(u); err != nil {
				return err
			}
		}
		return nil
	})
	return db, &Scrubber{DB: db, MetaData: md, Space: sp, IndexName: "user_by_name", BatchSize: 4}
}

// corrupt performs raw index-key surgery inside one transaction.
func corrupt(t *testing.T, db *fdb.Database, scr *Scrubber, f func(s *Store, kvs []fdb.KeyValue) error) {
	t.Helper()
	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		s, err := Open(tr, scr.MetaData, scr.Space, OpenOptions{})
		if err != nil {
			return nil, err
		}
		begin, end := s.IndexSubspace(scr.IndexName).Range()
		kvs, _, err := tr.GetRange(begin, end, fdb.RangeOptions{})
		if err != nil {
			return nil, err
		}
		return nil, f(s, kvs)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScrubCleanStore(t *testing.T) {
	_, scr := scrubEnv(t, 10)
	rep, err := scr.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("fresh store not clean: %v", rep.Issues)
	}
	if rep.EntriesScanned != 10 || rep.RecordsScanned != 10 {
		t.Fatalf("scanned %d entries / %d records, want 10/10", rep.EntriesScanned, rep.RecordsScanned)
	}
}

func TestScrubDetectsAllThreeKinds(t *testing.T) {
	db, scr := scrubEnv(t, 10)
	corrupt(t, db, scr, func(s *Store, kvs []fdb.KeyValue) error {
		ispace := s.IndexSubspace(scr.IndexName)
		// Dangling: an entry whose primary key names a nonexistent record.
		et, err := ispace.Unpack(kvs[0].Key)
		if err != nil {
			return err
		}
		ghost := append(tuple.Tuple{}, et...)
		ghost[len(ghost)-1] = int64(999)
		if err := s.tr.Set(ispace.Pack(ghost), nil); err != nil {
			return err
		}
		// Missing: clear an entry a record legitimately produces.
		if err := s.tr.Clear(kvs[3].Key); err != nil {
			return err
		}
		// Mismatch: a well-formed but wrong covering value.
		return s.tr.Set(kvs[5].Key, tuple.Tuple{"stale"}.Pack())
	})
	rep, err := scr.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count(ScrubDangling) != 1 || rep.Count(ScrubMissing) != 1 || rep.Count(ScrubMismatch) != 1 {
		t.Fatalf("issues = %v, want one of each kind", rep.Issues)
	}
	if rep.Repaired != 0 {
		t.Fatalf("report-only scrub repaired %d issues", rep.Repaired)
	}
	// Issue strings carry kind, index, and keys for operators.
	if s := rep.Issues[0].String(); !strings.Contains(s, "by_name") {
		t.Errorf("issue string %q should name the index", s)
	}
}

func TestScrubRepairConvergesToClean(t *testing.T) {
	db, scr := scrubEnv(t, 12)
	corrupt(t, db, scr, func(s *Store, kvs []fdb.KeyValue) error {
		ispace := s.IndexSubspace(scr.IndexName)
		et, err := ispace.Unpack(kvs[1].Key)
		if err != nil {
			return err
		}
		ghost := append(tuple.Tuple{}, et...)
		ghost[len(ghost)-1] = int64(777)
		if err := s.tr.Set(ispace.Pack(ghost), nil); err != nil {
			return err
		}
		if err := s.tr.Clear(kvs[4].Key); err != nil {
			return err
		}
		return s.tr.Set(kvs[7].Key, tuple.Tuple{"wrong"}.Pack())
	})
	fix := *scr
	fix.Repair = true
	rep, err := fix.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired < 3 {
		t.Fatalf("repaired %d, want >= 3", rep.Repaired)
	}
	rep, err = scr.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("store still inconsistent after repair: %v", rep.Issues)
	}
}

// TestScrubSmallBatchesResume: a batch size far below the store size forces
// both directions through their continuation paths without losing or
// double-counting anything.
func TestScrubSmallBatchesResume(t *testing.T) {
	_, scr := scrubEnv(t, 23)
	scr.BatchSize = 2
	rep, err := scr.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.EntriesScanned != 23 || rep.RecordsScanned != 23 {
		t.Fatalf("scanned %d entries / %d records, want 23/23", rep.EntriesScanned, rep.RecordsScanned)
	}
	if !rep.Clean() {
		t.Fatalf("clean store reported issues under small batches: %v", rep.Issues)
	}
}

func TestScrubRefusesUnreadableIndex(t *testing.T) {
	db, scr := scrubEnv(t, 4)
	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		s, err := Open(tr, scr.MetaData, scr.Space, OpenOptions{})
		if err != nil {
			return nil, err
		}
		return nil, s.MarkIndexWriteOnly(scr.IndexName)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scr.Scrub(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "readable") {
		t.Fatalf("scrub of a write-only index: err = %v, want readable-index refusal", err)
	}
}

// TestScrubMaxEverIndex: a MAX_EVER value keeps the largest value any past
// write had, which no stored state records, so a scrub checks a bound: at
// least the largest live value. A fresh index scrubs clean, and so does one
// whose largest record was deleted, which leaves it above every live value.
func TestScrubMaxEverIndex(t *testing.T) {
	db, scr := scrubEnv(t, 3)
	scr.IndexName = "score_max"
	check := func(when string) {
		t.Helper()
		rep, err := scr.Scrub(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if !rep.Clean() || rep.EntriesScanned != 1 {
			t.Fatalf("%s: issues %v in %d entries, want none in 1", when, rep.Issues, rep.EntriesScanned)
		}
	}
	check("fresh")
	withStore(t, db, scr.MetaData, scr.Space, func(s *Store) error {
		_, err := s.DeleteRecord(tuple.Tuple{"User", int64(3)})
		return err
	})
	check("after deleting the largest")
}

// TestOnlineIndexerBuildsThroughFaultStorm: the batched online build, whose
// batches are idempotent by construction, completes through injected
// conflicts, stale reads, and maybe-committed commits — and the built index
// passes a full scrub.
func TestOnlineIndexerBuildsThroughFaultStorm(t *testing.T) {
	inj := fdb.NewFaultInjector(fdb.FaultConfig{
		Seed:                21,
		PCommitNotCommitted: 0.1,
		PCommitUnknown:      0.1,
		PReadTooOld:         0.02,
		PReadFuture:         0.02,
	})
	inj.Disable()
	db := fdb.Open(&fdb.Options{Faults: inj, Sleep: func(time.Duration) {}})
	md := testSchema(t)
	space := subspace.FromTuple(tuple.Tuple{"tenant", int64(1)})
	saveN := 150
	withStore(t, db, md, space, func(s *Store) error {
		for i := 0; i < saveN; i++ {
			u := mkUser(int64(i+1), "u-"+string(rune('a'+i%26)), int64(i))
			if _, err := s.SaveRecord(u); err != nil {
				return err
			}
		}
		return s.MarkIndexDisabled("user_by_name")
	})

	inj.Enable()
	ixr := &OnlineIndexer{DB: db, MetaData: md, Space: space, IndexName: "user_by_name", BatchSize: 16}
	total, err := ixr.Build(context.Background())
	inj.Disable()
	if err != nil {
		t.Fatalf("build under faults: %v", err)
	}
	// The count is exact: a batch whose commit ended unknown-but-applied
	// advanced the durable progress key, and its retry counts the records
	// that batch indexed along with its own.
	if total != saveN {
		t.Fatalf("indexed %d records, want %d", total, saveN)
	}
	if inj.Counts().Total() == 0 {
		t.Fatal("the storm dealt no faults; the test proves nothing")
	}

	scr := &Scrubber{DB: db, MetaData: md, Space: space, IndexName: "user_by_name", BatchSize: 32}
	rep, err := scr.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("index built under faults is inconsistent: %v", rep.Issues)
	}
	if rep.EntriesScanned != saveN || rep.RecordsScanned != saveN {
		t.Fatalf("scrubbed %d entries / %d records, want %d/%d", rep.EntriesScanned, rep.RecordsScanned, saveN, saveN)
	}
}

// TestOnlineIndexerCountsAppliedUnknownBatches: Build's count is exact when
// batch commits end unknown, applied or not: a retry that finds the progress
// the unknown commit wrote counts that batch's records too.
func TestOnlineIndexerCountsAppliedUnknownBatches(t *testing.T) {
	md := testSchema(t)
	space := subspace.FromTuple(tuple.Tuple{"tenant", int64(1)})
	const saveN = 40
	var applied int64
	for seed := int64(1); seed <= 10; seed++ {
		inj := fdb.NewFaultInjector(fdb.FaultConfig{Seed: seed, PCommitUnknown: 0.3})
		inj.Disable()
		db := fdb.Open(&fdb.Options{Faults: inj, Sleep: func(time.Duration) {}})
		withStore(t, db, md, space, func(s *Store) error {
			for i := 0; i < saveN; i++ {
				if _, err := s.SaveRecord(mkUser(int64(i+1), "u", int64(i))); err != nil {
					return err
				}
			}
			return s.MarkIndexDisabled("user_by_name")
		})
		inj.Enable()
		ixr := &OnlineIndexer{DB: db, MetaData: md, Space: space, IndexName: "user_by_name", BatchSize: 4}
		total, err := ixr.Build(context.Background())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if total != saveN {
			t.Fatalf("seed %d: Build counted %d records of %d (faults %+v)", seed, total, saveN, inj.Counts())
		}
		applied += inj.Counts().UnknownApplied
	}
	if applied == 0 {
		t.Fatal("no unknown commit applied; the test proves nothing")
	}
}

// hookDoor is a Door that runs before(n) ahead of the n-th transaction
// (1-based) a background loop sends through it, and counts the attempts of
// the latest one.
type hookDoor struct {
	fdb.Door
	before   func(n int)
	n        int
	attempts int
}

func (d *hookDoor) RunIdempotent(ctx context.Context, fn fdb.TransactFunc) (interface{}, error) {
	d.n++
	d.attempts = 0
	d.before(d.n)
	//rl:idempotent passes the wrapped loop's own promise through
	return d.Door.RunIdempotent(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		d.attempts++
		return fn(ctx, tr)
	})
}

// TestCancelDuringBackoffStopsBatch: a batch that keeps failing under the
// FaultInjector, whose context is cancelled during its third backoff, stops
// within that attempt — the build and the scrub return ctx.Err() after
// exactly three attempts instead of running on toward the database policy's
// 101 — and the build keeps the progress of the batches it committed.
func TestCancelDuringBackoffStopsBatch(t *testing.T) {
	// faulty opens a database of 20 users under a paused injector; its
	// backoff sleep cancels ctx on the third retry.
	faulty := func(t *testing.T, cfg fdb.FaultConfig, ctx context.Context, cancel func()) (*fdb.Database, *fdb.FaultInjector, subspace.Subspace) {
		inj := fdb.NewFaultInjector(cfg)
		inj.Disable()
		backoffs := 0
		db := fdb.Open(&fdb.Options{Faults: inj, Sleep: func(time.Duration) {
			if backoffs++; backoffs == 3 {
				cancel()
			}
		}})
		space := subspace.FromTuple(tuple.Tuple{"tenant", int64(1)})
		withStore(t, db, testSchema(t), space, func(s *Store) error {
			for i := 0; i < 20; i++ {
				if _, err := s.SaveRecord(mkUser(int64(i+1), "u-"+string(rune('a'+i)), int64(i))); err != nil {
					return err
				}
			}
			return s.MarkIndexDisabled("user_by_name")
		})
		return db, inj, space
	}

	t.Run("build", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		db, inj, space := faulty(t, fdb.FaultConfig{Seed: 1, PCommitNotCommitted: 1}, ctx, cancel)
		md := testSchema(t)
		// Transaction 1 marks the index write-only; 2 and 3 are the first two
		// batches; from 4, the third batch, every commit conflicts.
		door := &hookDoor{Door: db, before: func(n int) {
			if n == 4 {
				inj.Enable()
			}
		}}
		ixr := &OnlineIndexer{DB: door, MetaData: md, Space: space, IndexName: "user_by_name", BatchSize: 5}
		n, err := ixr.Build(ctx)
		if !errors.Is(err, context.Canceled) || n != 10 {
			t.Fatalf("Build = (%d, %v), want (10, context.Canceled)", n, err)
		}
		if door.n != 4 || door.attempts != 3 || inj.Counts().CommitsNotCommitted != 3 {
			t.Fatalf("transaction %d ran %d attempts (%+v), want transaction 4 to stop after 3 conflicts",
				door.n, door.attempts, inj.Counts())
		}
		inj.Disable()
		rest, err := (&OnlineIndexer{DB: db, MetaData: md, Space: space, IndexName: "user_by_name", BatchSize: 5}).Build(context.Background())
		if err != nil || rest != 10 {
			t.Fatalf("resumed Build = (%d, %v), want the 10 records past the persisted progress", rest, err)
		}
	})

	t.Run("scrub", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		db, inj, space := faulty(t, fdb.FaultConfig{Seed: 1, PReadTooOld: 1}, ctx, cancel)
		withStore(t, db, testSchema(t), space, func(s *Store) error {
			return s.RebuildIndexInline("user_by_name")
		})
		// The second entry batch's every read is stale.
		door := &hookDoor{Door: db, before: func(n int) {
			if n == 2 {
				inj.Enable()
			}
		}}
		scr := &Scrubber{DB: door, MetaData: testSchema(t), Space: space, IndexName: "user_by_name", BatchSize: 4}
		rep, err := scr.Scrub(ctx)
		if !errors.Is(err, context.Canceled) || rep.EntriesScanned != 4 {
			t.Fatalf("Scrub = (%d entries, %v), want (4, context.Canceled)", rep.EntriesScanned, err)
		}
		if door.n != 2 || door.attempts != 3 {
			t.Fatalf("transaction %d ran %d attempts, want transaction 2 to stop after 3", door.n, door.attempts)
		}
	})
}

// TestScrubRemovesStrayNestedFanOutEntries: a fan-out nest under an unset
// parent once indexed one (null) entry. A store written then holds it, and
// the scrubber reports it as dangling, since the record no longer produces
// it; Repair clears it.
func TestScrubRemovesStrayNestedFanOutEntries(t *testing.T) {
	item := message.MustDescriptor("Item", message.Field("x", 1, message.TypeInt64))
	box := message.MustDescriptor("Box", message.RepeatedMessageField("items", 1, item))
	crate := message.MustDescriptor("Crate", message.Field("id", 1, message.TypeInt64), message.MessageField("box", 2, box))
	md := metadata.NewBuilder(1).AddMessageType(item).AddMessageType(box).
		AddRecordType(crate, keyexpr.Field("id")).
		AddIndex(&metadata.Index{Name: "by_x", Type: metadata.IndexValue,
			Expression: keyexpr.Nest("box", keyexpr.NestFan("items", keyexpr.FanOut, keyexpr.Field("x")))}).
		MustBuild()
	db, sp := fdb.Open(nil), subspace.FromTuple(tuple.Tuple{"crates"})
	withStore(t, db, md, sp, func(s *Store) error {
		if _, err := s.SaveRecord(message.New(crate).MustSet("id", int64(1))); err != nil {
			return err
		}
		// The entry the old evaluation wrote for the record's unset box.
		return s.tr.Set(s.IndexSubspace("by_x").Pack(tuple.Tuple{nil, int64(1)}), nil)
	})
	scr := &Scrubber{DB: db, MetaData: md, Space: sp, IndexName: "by_x", Repair: true}
	rep, err := scr.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count(ScrubDangling) != 1 || rep.Repaired != 1 {
		t.Fatalf("scrub found %v and repaired %d; want the one stray entry, repaired", rep.Issues, rep.Repaired)
	}
	scr.Repair = false
	if rep, err = scr.Scrub(context.Background()); err != nil || !rep.Clean() {
		t.Fatalf("after repair: %v, %v", rep.Issues, err)
	}
}
