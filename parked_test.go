package recordlayer

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"recordlayer/internal/core"
	"recordlayer/internal/fdb"
	"recordlayer/internal/history"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// A delete's index maintenance is parked on the transaction and resolves at
// the next store call or at commit. These tests hold the settle points to
// what resolving it at the call would give.

var parkedTenant = history.Tenant{Container: history.Containers[0], User: 1}

// parkedEnv is a database holding one history-schema store of six records,
// whose RANK and TEXT indexes give every delete probe reads to park.
func parkedEnv(t *testing.T, opts *fdb.Options) (*fdb.Database, *StoreProvider) {
	t.Helper()
	db := fdb.Open(opts)
	internContainers(t, db)
	p := newServer(t, false, false, ProviderOptions{}).providers[1]
	words := []string{"ahab boat", "call dick", "east fish east", "boat", "fish call", "dick ahab"}
	parkedRun(t, db, p, func(s *Store) error {
		for id := int64(1); id <= 6; id++ {
			d := history.Doc{ID: id, Tag: "red", Kind: "x", Level: id % 3, Slug: fmt.Sprintf("s%d", id),
				Score: 7 * id, Body: words[id-1], N: id}
			if _, err := s.SaveRecord(d.Message()); err != nil {
				return err
			}
		}
		return nil
	})
	return db, p
}

// parkedRun runs fn on the tenant's store in one committed transaction.
func parkedRun(t *testing.T, db *fdb.Database, p *StoreProvider, fn func(s *Store) error) {
	t.Helper()
	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		s, err := p.Open(context.Background(), tr, parkedTenant.Container, parkedTenant.User)
		if err != nil {
			return nil, err
		}
		return nil, fn(s)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// deleteAll deletes each primary key through s, failing on an absent one.
func deleteAll(s *Store, pks ...int64) error {
	for _, pk := range pks {
		if ok, err := s.DeleteRecord(tuple.Tuple{pk}); err != nil || !ok {
			return fmt.Errorf("delete %d: %v, %v", pk, ok, err)
		}
	}
	return nil
}

// rawKeys reads every key of db.
func rawKeys(t *testing.T, db *fdb.Database, begin, end []byte) []fdb.KeyValue {
	t.Helper()
	v, err := db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		kvs, _, err := tr.GetRange(begin, end, fdb.RangeOptions{})
		return kvs, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return v.([]fdb.KeyValue)
}

// storeSpace resolves the tenant's store subspace.
func storeSpace(t *testing.T, db *fdb.Database, p *StoreProvider) subspace.Subspace {
	t.Helper()
	path, err := p.ks.PathFor(p.template, parkedTenant.Container, parkedTenant.User)
	if err != nil {
		t.Fatal(err)
	}
	v, err := db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		sp, _, err := path.LookupSubspace(tr)
		return sp, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return v.(subspace.Subspace)
}

// scrubIssues scrubs every index of the tenant's store and counts what the
// scrubs report.
func scrubIssues(t *testing.T, db *fdb.Database, p *StoreProvider) int {
	t.Helper()
	space := storeSpace(t, db, p)
	n := 0
	for _, ix := range p.md.Indexes() {
		scr := &core.Scrubber{DB: db, MetaData: p.md, Space: space, IndexName: ix.Name, BatchSize: 4, Config: p.opts.Config}
		rep, err := scr.Scrub(context.Background())
		if err != nil {
			t.Fatalf("scrub %s: %v", ix.Name, err)
		}
		for _, kind := range []string{ScrubDangling, ScrubMissing, ScrubMismatch} {
			if c := rep.Count(kind); c > 0 {
				t.Errorf("scrub %s: %s=%d", ix.Name, kind, c)
				n += c
			}
		}
	}
	return n
}

// TestParkedDeleteReadFaultFailsCommit: a read fault on a parked delete's
// probe surfaces from Commit as the read's retryable error, which is not
// maybe-committed, and the commit sends nothing; a Runner retries it and
// succeeds.
func TestParkedDeleteReadFaultFailsCommit(t *testing.T) {
	inj := fdb.NewFaultInjector(fdb.FaultConfig{Seed: 1, PReadTooOld: 1})
	inj.Disable()
	db, p := parkedEnv(t, &fdb.Options{Faults: inj})
	var rankPrefix []byte
	parkedRun(t, db, p, func(s *Store) error {
		rankPrefix = s.IndexSubspace(history.ByScore).Bytes()
		return nil
	})
	// The first read of the RANK index, the delete's skip-list probe, turns
	// the faults on; the transaction turns them off once the delete returns.
	armed := false
	db.SetTap(func(_ *fdb.Transaction, a fdb.Access) {
		if armed && a.Kind == fdb.AccessRead && bytes.HasPrefix(a.Begin, rankPrefix) {
			armed = false
			inj.Enable()
		}
	})
	defer db.SetTap(nil)
	ctx := context.Background()
	attempts := 0
	deleteOnce := func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		attempts++
		s, err := p.Open(ctx, tr, parkedTenant.Container, parkedTenant.User)
		if err != nil {
			return nil, err
		}
		armed = attempts == 1 // a retry deals no fault
		err = deleteAll(s, 3)
		inj.Disable()
		if err != nil {
			t.Fatalf("the delete returned its parked probe's fault: %v", err)
		}
		return nil, nil
	}

	before := db.ReadVersion()
	_, err := NewRunner(db, RunnerOptions{MaxAttempts: 1, Sleep: noBackoff}).Run(ctx, deleteOnce)
	var fe *fdb.Error
	if !errors.As(err, &fe) || fe.Code != fdb.CodeTransactionTooOld || !fe.Injected || !fe.Retryable() || IsMaybeCommitted(err) {
		t.Fatalf("commit after a faulted parked probe: %v, want the injected transaction_too_old, not maybe-committed", err)
	}
	if inj.Counts().ReadsTooOld == 0 {
		t.Fatal("no fault was dealt")
	}
	if db.ReadVersion() != before {
		t.Fatalf("the failed commit applied: version %d -> %d", before, db.ReadVersion())
	}
	parkedRun(t, db, p, func(s *Store) error {
		if r, err := s.LoadRecordByKey(tuple.Tuple{int64(3)}); err != nil || r == nil {
			return fmt.Errorf("record 3 after the failed commit: %v, %v", r, err)
		}
		return nil
	})

	attempts = 0
	_, err = NewRunner(db, RunnerOptions{Sleep: noBackoff}).Run(ctx, deleteOnce)
	if err != nil || attempts != 2 {
		t.Fatalf("retried delete: %v after %d attempts, want success on the second", err, attempts)
	}
	parkedRun(t, db, p, func(s *Store) error {
		if r, err := s.LoadRecordByKey(tuple.Tuple{int64(3)}); err != nil || r != nil {
			return fmt.Errorf("record 3 after the retried delete: %v, %v", r, err)
		}
		return nil
	})
	if n := scrubIssues(t, db, p); n > 0 {
		t.Fatalf("%d scrub issues after the retried delete", n)
	}
}

// TestParkedDeleteThenClearingCalls: a delete parked before a call that
// clears or disables index data in the same transaction leaves nothing a raw
// scan or a scrub flags. Were the parked work applied after the call, the
// RANK count updates and TEXT bunch rewrites would land in the cleared
// range, or a disabled index would miss the delete.
func TestParkedDeleteThenClearingCalls(t *testing.T) {
	ctx := context.Background()
	t.Run("DeleteAllRecords", func(t *testing.T) {
		db, p := parkedEnv(t, nil)
		parkedRun(t, db, p, func(s *Store) error {
			if err := deleteAll(s, 2, 5); err != nil {
				return err
			}
			return s.DeleteAllRecords()
		})
		space := storeSpace(t, db, p)
		for _, sub := range []int64{1, 2, 3, 4} { // records, indexes, states, build progress
			b, e := space.RangeForTuple(tuple.Tuple{sub})
			if kvs := rawKeys(t, db, b, e); len(kvs) > 0 {
				t.Fatalf("subspace %d holds %d keys after DeleteAllRecords, first %x", sub, len(kvs), kvs[0].Key)
			}
		}
	})
	t.Run("MarkIndexDisabled", func(t *testing.T) {
		db, p := parkedEnv(t, nil)
		parkedRun(t, db, p, func(s *Store) error {
			if err := deleteAll(s, 2, 5); err != nil {
				return err
			}
			for _, name := range []string{history.ByScore, history.BodyText} {
				if err := s.MarkIndexDisabled(name); err != nil {
					return err
				}
			}
			return nil
		})
		// Marked readable again with no build, the indexes hold exactly
		// what they held when disabled: the deletes included.
		parkedRun(t, db, p, func(s *Store) error {
			for _, name := range []string{history.ByScore, history.BodyText} {
				if err := s.MarkIndexReadable(name); err != nil {
					return err
				}
			}
			return nil
		})
		if n := scrubIssues(t, db, p); n > 0 {
			t.Fatalf("%d scrub issues", n)
		}
	})
	t.Run("StoreProvider.Delete", func(t *testing.T) {
		db, p := parkedEnv(t, nil)
		space := storeSpace(t, db, p)
		_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
			s, err := p.Open(ctx, tr, parkedTenant.Container, parkedTenant.User)
			if err != nil {
				return nil, err
			}
			if err := deleteAll(s, 2, 5); err != nil {
				return nil, err
			}
			return nil, p.Delete(ctx, tr, parkedTenant.Container, parkedTenant.User)
		})
		if err != nil {
			t.Fatal(err)
		}
		b, e := space.Range()
		if kvs := rawKeys(t, db, b, e); len(kvs) > 0 {
			t.Fatalf("the deleted store holds %d keys, first %x", len(kvs), kvs[0].Key)
		}
	})
}

// TestTwoHandlesDeletingAlternately: two handles of one store opened on one
// transaction, deleting in turn, leave the keyspace one handle deleting the
// same records in the same order leaves. Each handle has its own
// maintainers, so only settling across handles keeps one handle's probes
// from reading what the other's parked work has not yet written.
func TestTwoHandlesDeletingAlternately(t *testing.T) {
	ctx := context.Background()
	order := []int64{2, 5, 1, 6, 3}
	run := func(handles int) []fdb.KeyValue {
		db, p := parkedEnv(t, nil)
		_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
			var stores []*Store
			for i := 0; i < handles; i++ {
				s, err := p.Open(ctx, tr, parkedTenant.Container, parkedTenant.User)
				if err != nil {
					return nil, err
				}
				stores = append(stores, s)
			}
			for i, pk := range order {
				if err := deleteAll(stores[i%handles], pk); err != nil {
					return nil, err
				}
			}
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := scrubIssues(t, db, p); n > 0 {
			t.Errorf("%d handles: %d scrub issues", handles, n)
		}
		return rawKeys(t, db, nil, []byte{0xFF})
	}
	one, two := run(1), run(2)
	if len(one) != len(two) {
		t.Fatalf("one handle leaves %d keys, two leave %d", len(one), len(two))
	}
	for i := range one {
		if !bytes.Equal(one[i].Key, two[i].Key) || !bytes.Equal(one[i].Value, two[i].Value) {
			t.Fatalf("key %d: one handle leaves %x = %x, two leave %x = %x", i, one[i].Key, one[i].Value, two[i].Key, two[i].Value)
		}
	}
}

// TestParkedDeleteKeepsSaveErrorsAtTheCall: a save after a parked delete
// still returns its own uniqueness violation, and a later save of the slug
// the delete freed succeeds.
func TestParkedDeleteKeepsSaveErrorsAtTheCall(t *testing.T) {
	db, p := parkedEnv(t, nil)
	doc := history.Doc{ID: 9, Tag: "blue", Kind: "y", Slug: "s4", Score: 1, Body: "boat"}
	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		s, err := p.Open(context.Background(), tr, parkedTenant.Container, parkedTenant.User)
		if err != nil {
			return nil, err
		}
		if err := deleteAll(s, 2); err != nil {
			return nil, err
		}
		_, err = s.SaveRecord(doc.Message())
		return nil, err
	})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("uniqueness")) {
		t.Fatalf("a duplicate slug after a parked delete: %v", err)
	}
	parkedRun(t, db, p, func(s *Store) error {
		if err := deleteAll(s, 4); err != nil {
			return err
		}
		_, err := s.SaveRecord(doc.Message())
		return err
	})
	if n := scrubIssues(t, db, p); n > 0 {
		t.Fatalf("%d scrub issues", n)
	}
}
