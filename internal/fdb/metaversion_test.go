package fdb

import (
	"testing"
	"time"

	"recordlayer/internal/obs"
)

func metaVersion(t *testing.T, tr *Transaction) int64 {
	t.Helper()
	v, ok, err := tr.MetadataVersion()
	if err != nil || !ok {
		t.Fatalf("MetadataVersion = %d, %v, %v", v, ok, err)
	}
	return v
}

// TestMetadataVersionIsLastBumpAtReadVersion: the value a transaction sees is
// the commit version of the newest bump at or below its read version — for a
// fresh GRV, and for SetReadVersion at every retained snapshot.
func TestMetadataVersionIsLastBumpAtReadVersion(t *testing.T) {
	db := Open(nil)
	if v := metaVersion(t, db.CreateTransaction()); v != 0 {
		t.Fatalf("fresh database: metadata version %d, want 0", v)
	}
	// Commit i bumps iff bumps[i]; wantAt[v] is lastBump(v).
	bumps := []bool{false, true, false, false, true, true, false}
	wantAt := map[int64]int64{0: 0}
	last := int64(0)
	for _, bump := range bumps {
		tr := db.CreateTransaction()
		mustSet(t, tr, "k", "v")
		if bump {
			if err := tr.BumpMetadataVersion(); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, tr)
		cv, _ := tr.CommittedVersion()
		if bump {
			last = cv
		}
		wantAt[cv] = last
		if got := metaVersion(t, db.CreateTransaction()); got != last {
			t.Fatalf("after commit %d (bump=%v): metadata version %d, want %d", cv, bump, got, last)
		}
	}
	for rv, want := range wantAt {
		tr := db.CreateTransaction()
		tr.SetReadVersion(rv)
		if got := metaVersion(t, tr); got != want {
			t.Errorf("at read version %d: metadata version %d, want %d", rv, got, want)
		}
	}
}

// TestBumpOnlyTransactionCommits: a bump with no other mutation is still a
// write — it must reach the commit path, not the read-only shortcut — and it
// is no user key: nothing is stored, read or counted.
func TestBumpOnlyTransactionCommits(t *testing.T) {
	db := Open(nil)
	before := db.Metrics().Snapshot()
	tr := db.CreateTransaction()
	if tr.HasMutations() {
		t.Fatal("fresh transaction reports mutations")
	}
	if err := tr.BumpMetadataVersion(); err != nil {
		t.Fatal(err)
	}
	if !tr.HasMutations() {
		t.Fatal("a bump is a buffered mutation")
	}
	if _, ok, err := tr.MetadataVersion(); err != nil || ok {
		t.Fatalf("MetadataVersion after own bump: ok=%v err=%v, want ok=false", ok, err)
	}
	mustCommit(t, tr)
	cv, _ := tr.CommittedVersion()
	if got := metaVersion(t, db.CreateTransaction()); got != cv || cv == 0 {
		t.Fatalf("metadata version %d after bump-only commit at %d", got, cv)
	}
	d := db.Metrics().Snapshot().Delta(before)
	if d.KeysRead != 0 || d.KeysWritten != 0 || d.BytesWritten != 0 || db.Size() != 0 {
		t.Fatalf("bump touched user-key accounting: %+v, size %d", d, db.Size())
	}
	rtr := db.CreateTransaction()
	kvs, _, err := rtr.GetRange([]byte{}, []byte{0xFF, 0xFF}, RangeOptions{})
	if err != nil || len(kvs) != 0 {
		t.Fatalf("range read sees %d pairs (%v) in a database holding only a bump", len(kvs), err)
	}
}

// TestHasMutations: every kind of buffered write counts; reads and conflict
// ranges do not.
func TestHasMutations(t *testing.T) {
	db := Open(nil)
	writes := map[string]func(tr *Transaction) error{
		"set":        func(tr *Transaction) error { return tr.Set([]byte("a"), []byte("1")) },
		"clear":      func(tr *Transaction) error { return tr.Clear([]byte("a")) },
		"clearrange": func(tr *Transaction) error { return tr.ClearRange([]byte("a"), []byte("b")) },
		"atomic":     func(tr *Transaction) error { return tr.Atomic(MutationAdd, []byte("a"), []byte{1}) },
	}
	for name, write := range writes {
		tr := db.CreateTransaction()
		if _, err := tr.Get([]byte("a")); err != nil {
			t.Fatal(err)
		}
		tr.AddWriteConflictKey([]byte("a"))
		if tr.HasMutations() {
			t.Fatalf("%s: reads and conflict ranges reported as mutations", name)
		}
		if err := write(tr); err != nil {
			t.Fatal(err)
		}
		if !tr.HasMutations() {
			t.Fatalf("%s not reported as a mutation", name)
		}
		tr.Reset()
		if tr.HasMutations() {
			t.Fatalf("%s: Reset left mutations behind", name)
		}
	}
}

// TestBumpAppliesExactlyWhenTheCommitDoes: the bump is part of the commit. An
// unknown-result commit that applied moved the metadata version; one that was
// dropped, and a clean injected failure, did not.
func TestBumpAppliesExactlyWhenTheCommitDoes(t *testing.T) {
	for _, c := range []struct {
		name    string
		cfg     FaultConfig
		applied bool
	}{
		{"unknown-applied", FaultConfig{Seed: 1, PCommitUnknown: 1, PUnknownApplied: 1}, true},
		{"unknown-dropped", FaultConfig{Seed: 1, PCommitUnknown: 1, UnknownNeverApplies: true}, false},
		{"not-committed", FaultConfig{Seed: 1, PCommitNotCommitted: 1}, false},
	} {
		db, inj := faultyDB(c.cfg)
		tr := db.CreateTransaction()
		mustSet(t, tr, "k", "v")
		if err := tr.BumpMetadataVersion(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Commit(); err == nil {
			t.Fatalf("%s: commit succeeded under a certain fault", c.name)
		}
		inj.Disable()
		check := db.CreateTransaction()
		got := metaVersion(t, check)
		val, err := check.Get([]byte("k"))
		if err != nil {
			t.Fatal(err)
		}
		if (val != nil) != c.applied || (got != 0) != c.applied {
			t.Errorf("%s: key applied=%v, metadata version %d; both must follow applied=%v",
				c.name, val != nil, got, c.applied)
		}
	}
}

// TestMetadataVersionCostsTheGRVAndNothingElse: under the latency model the
// value is readable when the GRV reply is — no read window, no fdb.read or
// fdb.await span, no key read — and a read issued afterwards pays one window.
func TestMetadataVersionCostsTheGRVAndNothingElse(t *testing.T) {
	const perRead, perGRV = time.Millisecond, 2 * time.Millisecond
	db := latencyDBFull(t, perRead, perGRV, 0)
	seedKeys(t, db, 1)
	tr := db.CreateTransaction()
	trace := obs.NewTrace()
	tr.SetTrace(trace)
	start := db.LatencyNow()
	for i := 0; i < 2; i++ {
		if _, ok, err := tr.MetadataVersion(); err != nil || !ok {
			t.Fatal(ok, err)
		}
	}
	if got := time.Duration(db.LatencyNow() - start); got != perGRV {
		t.Fatalf("MetadataVersion took %v, want the GRV round trip %v", got, perGRV)
	}
	if st := tr.Stats(); st.KeysRead != 0 || st.SimWaitNanos != int64(perGRV) {
		t.Fatalf("stats after MetadataVersion: %+v", st)
	}
	if n := len(trace.Named(obs.SpanRead)) + len(trace.Named(obs.SpanAwait)); n != 0 {
		t.Fatalf("MetadataVersion recorded %d read/await spans", n)
	}
	if len(trace.Named(obs.SpanGRV)) != 1 {
		t.Fatalf("GRV spans: %d, want 1", len(trace.Named(obs.SpanGRV)))
	}
	if _, err := tr.Get([]byte("k000")); err != nil {
		t.Fatal(err)
	}
	if got := time.Duration(db.LatencyNow() - start); got != perGRV+perRead {
		t.Fatalf("GRV + one read took %v, want %v", got, perGRV+perRead)
	}
	if tr.Database() != db {
		t.Fatal("Database() is not the transaction's database")
	}
}
