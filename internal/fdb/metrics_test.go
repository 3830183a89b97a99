package fdb

import (
	"fmt"
	"testing"
)

// TestMetricsSnapshotDelta exercises the phase-delta idiom the experiments
// use: snapshot, run traffic, snapshot again, and the delta isolates exactly
// that traffic's I/O.
func TestMetricsSnapshotDelta(t *testing.T) {
	db := Open(nil)
	_, err := db.Transact(func(tr *Transaction) (interface{}, error) {
		return nil, tr.Set([]byte("warmup"), []byte("x"))
	})
	if err != nil {
		t.Fatal(err)
	}

	base := db.Metrics().Snapshot()
	if base.Commits == 0 || base.KeysWritten == 0 {
		t.Fatalf("warmup not visible in snapshot: %+v", base)
	}
	const n = 5
	for i := 0; i < n; i++ {
		_, err := db.Transact(func(tr *Transaction) (interface{}, error) {
			if _, err := tr.Get([]byte("warmup")); err != nil {
				return nil, err
			}
			return nil, tr.Set([]byte{byte(i)}, []byte("v"))
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	d := db.Metrics().Snapshot().Delta(base)
	if d.Commits != n || d.KeysWritten != n || d.KeysRead != n {
		t.Fatalf("delta %+v, want %d commits/keys written/keys read", d, n)
	}
	if d.TransactionsStarted != n || d.Conflicts != 0 || d.Retries != 0 {
		t.Fatalf("delta %+v, want %d txns and no conflicts/retries", d, n)
	}

	// Delta of a snapshot against itself is zero.
	s := db.Metrics().Snapshot()
	if z := s.Delta(s); z != (MetricsSnapshot{}) {
		t.Fatalf("self-delta not zero: %+v", z)
	}
}

// callLog is a Meter that records each call.
type callLog []string

func (l *callLog) RecordRead(rows, n int)  { *l = append(*l, fmt.Sprintf("read %d/%d", rows, n)) }
func (l *callLog) RecordWrite(rows, n int) { *l = append(*l, fmt.Sprintf("write %d/%d", rows, n)) }

// TestMeterBilledAsIssued pins the billing policy a bound Meter sees: one read
// call per Get or GetRange batch for what the snapshot served, nothing for
// what the write buffer answered alone, one write call per mutation with the bytes
// Size counts (a clear is its begin and end keys), and the first binding
// holds.
func TestMeterBilledAsIssued(t *testing.T) {
	db := Open(nil)
	if _, err := db.Transact(func(tr *Transaction) (interface{}, error) {
		for _, k := range []string{"a1", "a2", "a3"} {
			if err := tr.Set([]byte(k), []byte("vv")); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	var log, other callLog
	tr := db.CreateTransaction()
	tr.BindMeter(&log)
	tr.BindMeter(&other)
	steps := []func() error{
		func() error { _, _, err := tr.GetRange([]byte("a"), []byte("b"), RangeOptions{}); return err },
		func() error { _, err := tr.Get([]byte("zz")); return err },
		func() error { return tr.Set([]byte("a9"), []byte("new")) },
		func() error { _, err := tr.Get([]byte("a9")); return err },
		func() error { return tr.ClearRange([]byte("a1"), []byte("a3")) },
		func() error { return tr.Atomic(MutationAdd, []byte("n"), []byte{1, 0}) },
		func() error { _, err := tr.Get([]byte("n")); return err }, // folds the add over the snapshot's n
		func() error {
			_, _, err := tr.Snapshot().GetRange([]byte("a"), []byte("b"), RangeOptions{})
			return err
		},
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	want := "[read 3/12 read 1/2 write 1/5 write 1/4 write 1/3 read 1/1 read 1/4]"
	if got := fmt.Sprint(log); got != want {
		t.Errorf("billed %s, want %s", got, want)
	}
	if len(other) != 0 {
		t.Errorf("second binding billed %v", other)
	}
	st := tr.Stats()
	if st.KeysRead != 6 || st.BytesRead != 19 || st.Mutations != 3 || st.Size != 12 {
		t.Errorf("stats %+v disagree with what was billed", st)
	}
}
