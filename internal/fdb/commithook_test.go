package fdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"recordlayer/internal/fdb/internal/cluster"
	"testing"
	"unsafe"
)

// TestOnCommitRunsOnceAfterSuccessOnly: hooks run exactly once, in
// registration order, after a successful commit, with its version and bump;
// never after a conflict, an injected not_committed, a commit_unknown_result
// that applied or did not, Cancel, or Reset.
func TestOnCommitRunsOnceAfterSuccessOnly(t *testing.T) {
	type call struct {
		hook    int
		version int64
		bumped  bool
	}
	var calls []call
	register := func(tr *Transaction) {
		for i := 0; i < 3; i++ {
			i := i
			tr.OnCommit(func(v int64, bumped bool) { calls = append(calls, call{i, v, bumped}) })
		}
	}
	expect := func(what string, version int64, bumped bool) {
		t.Helper()
		want := []call{{0, version, bumped}, {1, version, bumped}, {2, version, bumped}}
		if len(calls) != len(want) {
			t.Fatalf("%s: hooks ran %+v, want %+v", what, calls, want)
		}
		for i := range want {
			if calls[i] != want[i] {
				t.Fatalf("%s: hooks ran %+v, want %+v", what, calls, want)
			}
		}
		calls = nil
	}
	none := func(what string) {
		t.Helper()
		if len(calls) != 0 {
			t.Fatalf("%s: hooks ran %+v", what, calls)
		}
	}

	db := Open(nil)
	tr := db.CreateTransaction()
	mustSet(t, tr, "k", "v")
	register(tr)
	none("before commit")
	mustCommit(t, tr)
	v, _ := tr.CommittedVersion()
	expect("commit", v, false)
	if err := tr.Commit(); err == nil {
		t.Fatal("second commit of one transaction succeeded")
	}
	none("second commit")

	tr = db.CreateTransaction()
	mustSet(t, tr, "k", "w")
	if err := tr.BumpMetadataVersion(); err != nil {
		t.Fatal(err)
	}
	register(tr)
	mustCommit(t, tr)
	v, _ = tr.CommittedVersion()
	expect("bumping commit", v, true)

	tr = db.CreateTransaction()
	mustGet(t, tr, "k")
	register(tr)
	mustCommit(t, tr)
	expect("read-only commit", db.ReadVersion(), false)

	loser, winner := db.CreateTransaction(), db.CreateTransaction()
	mustGet(t, loser, "k")
	mustSet(t, loser, "x", "1")
	register(loser)
	mustSet(t, winner, "k", "z")
	mustCommit(t, winner)
	if err := loser.Commit(); !IsConflict(err) {
		t.Fatalf("commit = %v, want a conflict", err)
	}
	none("conflict")

	tr = db.CreateTransaction()
	mustSet(t, tr, "k", "c")
	register(tr)
	tr.Cancel()
	if err := tr.Commit(); err == nil {
		t.Fatal("canceled transaction committed")
	}
	none("cancel")

	tr = db.CreateTransaction()
	register(tr)
	tr.Reset()
	mustSet(t, tr, "k", "r")
	mustCommit(t, tr)
	none("reset")

	for _, cfg := range []FaultConfig{
		{Seed: 1, PCommitNotCommitted: 1},
		{Seed: 1, PCommitUnknown: 1, PUnknownApplied: 1},
		{Seed: 1, PCommitUnknown: 1, UnknownNeverApplies: true},
	} {
		db, inj := faultyDB(cfg)
		tr := db.CreateTransaction()
		mustSet(t, tr, "k", "v")
		register(tr)
		if err := tr.Commit(); err == nil {
			t.Fatalf("%+v: commit succeeded", cfg)
		}
		none("injected failure")
		if applied := db.ReadVersion() > 0; applied != (inj.Counts().UnknownApplied == 1) {
			t.Fatalf("%+v: applied=%v", cfg, applied)
		}
	}
}

// TestCommitChecksRunOnceBeforeCommit: queued checks run in order, once,
// at RunCommitChecks or else at Commit before it sends anything, and may
// write through the transaction. A failed check fails every later run and
// Commit, which then applies nothing, until Reset; Reset and Cancel drop the
// queue unrun.
func TestCommitChecksRunOnceBeforeCommit(t *testing.T) {
	var ran []int
	queue := func(tr *Transaction, fail error) {
		for i := 0; i < 3; i++ {
			i := i
			tr.AddCommitCheck(func() error {
				ran = append(ran, i)
				if i == 1 && fail != nil {
					return fail
				}
				return tr.Set([]byte(fmt.Sprintf("check%d", i)), []byte("v"))
			})
		}
	}
	expect := func(what, want string) {
		t.Helper()
		if got := fmt.Sprint(ran); got != want {
			t.Fatalf("%s: checks ran %s, want %s", what, got, want)
		}
		ran = nil
	}

	db := Open(nil)
	tr := db.CreateTransaction()
	queue(tr, nil)
	if err := tr.RunCommitChecks(); err != nil {
		t.Fatal(err)
	}
	expect("RunCommitChecks", "[0 1 2]")
	mustCommit(t, tr)
	expect("commit after a run", "[]")

	tr = db.CreateTransaction()
	queue(tr, nil)
	mustCommit(t, tr)
	expect("commit", "[0 1 2]")
	if v, err := db.CreateTransaction().Get([]byte("check2")); err != nil || string(v) != "v" {
		t.Fatalf("a check's write did not commit: %q, %v", v, err)
	}

	boom := errors.New("boom")
	before := db.ReadVersion()
	tr = db.CreateTransaction()
	mustSet(t, tr, "k", "v")
	queue(tr, boom)
	for _, run := range []func() error{tr.Commit, tr.RunCommitChecks, tr.Commit} {
		if err := run(); !errors.Is(err, boom) {
			t.Fatalf("after a failed check: %v, want %v", err, boom)
		}
	}
	expect("failed check", "[0 1]")
	if db.ReadVersion() != before {
		t.Fatal("a commit whose check failed applied")
	}
	tr.Reset()
	mustSet(t, tr, "k", "v")
	mustCommit(t, tr)
	expect("commit after Reset", "[]")

	for _, drop := range []func(*Transaction){(*Transaction).Reset, (*Transaction).Cancel} {
		tr = db.CreateTransaction()
		queue(tr, nil)
		drop(tr)
		_ = tr.Commit()
		expect("dropped", "[]")
	}
}

// TestTransactionStaysInItsSizeClass: a Transaction is allocated per attempt,
// and 320 bytes is a Go size class; one more word would make it 352.
func TestTransactionStaysInItsSizeClass(t *testing.T) {
	var tr Transaction
	if n := unsafe.Sizeof(tr); n > 320 {
		t.Fatalf("Transaction is %d bytes, want <= 320", n)
	}
}

// TestAtomicAfterVersionstampedValue: a transaction's mutations of one key
// apply in the order it issued them, so an atomic op after a versionstamped
// value folds over the stamped value at commit. Folding it over the
// placeholder instead lost the stamp's effect, and an op that shortened the
// value made commit panic writing the stamp past its end.
func TestAtomicAfterVersionstampedValue(t *testing.T) {
	raw := append([]byte("ab"), make([]byte, 10)...) // the stamp goes at offset 2
	param := binary.LittleEndian.AppendUint32(append([]byte(nil), raw...), 2)
	for _, tc := range []struct {
		name string
		typ  MutationType
		// param and want are given the stamped value; want nil is a clear.
		param, want func(stamped []byte) []byte
	}{
		{"Add", MutationAdd,
			func([]byte) []byte { return []byte{0, 0, 1} },
			func(s []byte) []byte { return []byte{'a', 'b', s[2] + 1} }},
		{"BitAnd", MutationBitAnd,
			func([]byte) []byte { return bytes.Repeat([]byte{0xff}, 10) },
			func(s []byte) []byte { return s[:10] }},
		{"Min", MutationMin,
			func([]byte) []byte { return []byte{1} },
			func([]byte) []byte { return []byte{1} }},
		{"ByteMax", MutationByteMax,
			func([]byte) []byte { return []byte("b") },
			func([]byte) []byte { return []byte("b") }},
		{"CompareAndClear matching the stamped value", MutationCompareAndClear,
			func(s []byte) []byte { return s },
			func([]byte) []byte { return nil }},
		{"CompareAndClear matching the placeholder", MutationCompareAndClear,
			func([]byte) []byte { return raw },
			func(s []byte) []byte { return s }},
	} {
		db := Open(nil)
		stamped := append([]byte("ab"), cluster.Versionstamp(db.ReadVersion()+cluster.VersionStep)...)
		tr := db.CreateTransaction()
		if err := tr.Atomic(MutationSetVersionstampedValue, []byte("k"), param); err != nil {
			t.Fatal(err)
		}
		if err := tr.Atomic(tc.typ, []byte("k"), tc.param(stamped)); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tr)
		if vs, _ := tr.Versionstamp(); !bytes.Equal(vs, stamped[2:]) {
			t.Fatalf("%s: stamp %x, want %x", tc.name, vs, stamped[2:])
		}
		got := mustGet(t, db.CreateTransaction(), "k")
		if want := tc.want(stamped); !bytes.Equal(got, want) || (got == nil) != (want == nil) {
			t.Errorf("%s: key holds %x, want %x", tc.name, got, want)
		}
	}
}
