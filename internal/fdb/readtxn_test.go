package fdb

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func isCode(err error, code int) bool {
	var fe *Error
	return errors.As(err, &fe) && fe.Code == code
}

// TestReadTransactionRecordsNoConflicts: a read transaction — what ReadRun
// and ReadTransact hand their closure — records no read conflicts, since it
// never commits a write; a Commit after a buffered mutation fails with
// client_invalid_operation and applies nothing. A Run transaction that reads
// and then writes still conflicts.
func TestReadTransactionRecordsNoConflicts(t *testing.T) {
	db := Open(nil)
	seed := db.CreateTransaction()
	mustSet(t, seed, "k", "0")
	mustCommit(t, seed)

	rt := db.CreateReadTransaction()
	mustSet(t, rt, "k", "mine")
	if got := mustGet(t, rt, "k"); string(got) != "mine" {
		t.Fatalf("read-your-writes: %q", got)
	}
	if err := rt.Commit(); !isCode(err, CodeClientInvalidOp) {
		t.Fatalf("committing a read transaction's set: %v, want client_invalid_operation", err)
	}
	if got := mustGet(t, db.CreateTransaction(), "k"); string(got) != "0" {
		t.Fatalf("after the refused commit k is %q, want 0", got)
	}

	rt = db.CreateReadTransaction()
	mustGet(t, rt, "k")
	rv, err := rt.GetReadVersion()
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, rt)
	if v, err := rt.CommittedVersion(); err != nil || v != rv {
		t.Fatalf("read-only commit at %d (%v), want the read version %d", v, err, rv)
	}

	// A closure reads k while another transaction commits a write to it: no
	// conflict is recorded, so nothing could fail or retry.
	n := 0
	readWhileWritten := func(_ context.Context, tr *Transaction) (interface{}, error) {
		n++
		if _, err := tr.Get([]byte("k")); err != nil {
			return nil, err
		}
		if _, _, err := tr.GetRange([]byte("a"), []byte("z"), RangeOptions{Limit: 1}); err != nil {
			return nil, err
		}
		tr.AddReadConflictKey([]byte("j"))
		tr.AddReadConflictRange([]byte("a"), []byte("z"))
		w := db.CreateTransaction()
		if err := w.Set([]byte("k"), []byte(fmt.Sprint(n))); err != nil {
			return nil, err
		}
		if err := w.Commit(); err != nil {
			return nil, err
		}
		if _, err := tr.Get([]byte("k")); err != nil {
			return nil, err
		}
		if c := tr.readConflicts.Len(); c != 0 {
			return nil, fmt.Errorf("a read transaction recorded %d read conflict ranges", c)
		}
		return nil, nil
	}
	retries := db.Metrics().Retries.Load()
	if _, err := db.ReadRun(context.Background(), readWhileWritten); err != nil || n != 1 {
		t.Fatalf("ReadRun: %v after %d attempts", err, n)
	}
	n = 0
	if _, err := db.ReadTransact(func(tr *Transaction) (interface{}, error) {
		return readWhileWritten(nil, tr)
	}); err != nil || n != 1 {
		t.Fatalf("ReadTransact: %v after %d attempts", err, n)
	}
	if r := db.Metrics().Retries.Load(); r != retries {
		t.Fatalf("%d retries, want none", r-retries)
	}

	// A Run transaction still records its reads and conflicts on them.
	n = 0
	if _, err := db.Run(context.Background(), func(_ context.Context, tr *Transaction) (interface{}, error) {
		n++
		if _, err := tr.Get([]byte("k")); err != nil {
			return nil, err
		}
		if n == 1 {
			w := db.CreateTransaction()
			if err := w.Set([]byte("k"), []byte("interfering")); err != nil {
				return nil, err
			}
			if err := w.Commit(); err != nil {
				return nil, err
			}
		}
		return nil, tr.Set([]byte("j"), []byte("v"))
	}); err != nil || n != 2 {
		t.Fatalf("Run: %v after %d attempts, want success on the second", err, n)
	}
}

// TestResolverWindowEvictionBoundary: a read-write transaction fails with
// transaction_too_old exactly when its read version falls below the
// resolver window's floor, not one commit earlier; and SetReadVersion finds a
// snapshot exactly as long as the history still holds it.
func TestResolverWindowEvictionBoundary(t *testing.T) {
	db := Open(nil)
	for i := 0; i < 5; i++ {
		w := db.CreateTransaction()
		mustSet(t, w, fmt.Sprintf("w%d", i), "v")
		mustCommit(t, w)
	}
	a, b := db.CreateTransaction(), db.CreateTransaction()
	mustGet(t, a, "k")
	mustGet(t, b, "k")
	rv, _ := a.GetReadVersion()
	for i := 0; i < resolverWindow; i++ {
		w := db.CreateTransaction()
		mustSet(t, w, "w", "v")
		mustCommit(t, w)
	}
	// resolverWindow commits after rv: the window still holds every one.
	if db.floor != rv {
		t.Fatalf("floor %d, want the read version %d", db.floor, rv)
	}
	mustSet(t, a, "x", "a")
	mustCommit(t, a)
	// a's commit evicted version rv+1: b's read version is now below the floor.
	mustSet(t, b, "x", "b")
	if err := b.Commit(); !isCode(err, CodeTransactionTooOld) {
		t.Fatalf("one commit past the window: %v, want transaction_too_old", err)
	}
	if db.recent.len() != resolverWindow || db.floor != rv+1 {
		t.Fatalf("window holds %d commits above floor %d, want %d above %d", db.recent.len(), db.floor, resolverWindow, rv+1)
	}

	// The history holds the snapshotHistory versions below the current one.
	cur := db.ReadVersion()
	for _, c := range []struct {
		v  int64
		ok bool
	}{{cur - snapshotHistory, true}, {cur - snapshotHistory - 1, false}} {
		tr := db.CreateTransaction()
		tr.SetReadVersion(c.v)
		_, err := tr.Get([]byte("k"))
		if c.ok && err != nil || !c.ok && !isCode(err, CodeTransactionTooOld) {
			t.Fatalf("SetReadVersion(%d) at version %d: %v", c.v, cur, err)
		}
	}
}
