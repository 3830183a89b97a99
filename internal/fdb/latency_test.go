package fdb

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// latencyDB opens a database with a virtual per-read latency window.
func latencyDB(t *testing.T, perRead, perKB time.Duration) *Database {
	t.Helper()
	return Open(&Options{Latency: LatencyModel{PerRead: perRead, PerKB: perKB, Virtual: true}})
}

func seedKeys(t *testing.T, db *Database, n int) {
	t.Helper()
	_, err := db.Transact(func(tr *Transaction) (interface{}, error) {
		for i := 0; i < n; i++ {
			if err := tr.Set([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i))); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentFuturesShareOneWindow: K reads issued before any await cost
// ~1 latency window in total, not K — the §8 overlap the async API exists for.
func TestConcurrentFuturesShareOneWindow(t *testing.T) {
	const window = time.Millisecond
	const k = 8
	db := latencyDB(t, window, 0)
	seedKeys(t, db, k)
	tr := db.CreateTransaction()
	futs := make([]*FutureValue, k)
	for i := range futs {
		futs[i] = tr.GetAsync([]byte(fmt.Sprintf("k%03d", i)))
	}
	for i, f := range futs {
		v, err := f.Get()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("v%03d", i); string(v) != want {
			t.Fatalf("future %d = %q, want %q", i, v, want)
		}
	}
	st := tr.Stats()
	if st.SimWaitNanos != int64(window) {
		t.Errorf("SimWaitNanos = %v, want exactly one window (%v)", time.Duration(st.SimWaitNanos), window)
	}
	if st.InFlightHighWater != k {
		t.Errorf("InFlightHighWater = %d, want %d", st.InFlightHighWater, k)
	}
	if now := db.LatencyNow(); now != int64(window) {
		t.Errorf("virtual clock advanced %v, want %v", time.Duration(now), window)
	}
}

// TestSequentialReadsPayKWindows: issue-await loops serialize, one window per
// read — the N-round-trips baseline the hot paths must escape.
func TestSequentialReadsPayKWindows(t *testing.T) {
	const window = time.Millisecond
	const k = 5
	db := latencyDB(t, window, 0)
	seedKeys(t, db, k)
	tr := db.CreateTransaction()
	for i := 0; i < k; i++ {
		if _, err := tr.Get([]byte(fmt.Sprintf("k%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st := tr.Stats()
	if st.SimWaitNanos != int64(k*window) {
		t.Errorf("SimWaitNanos = %v, want %v", time.Duration(st.SimWaitNanos), k*window)
	}
	if st.InFlightHighWater != 1 {
		t.Errorf("InFlightHighWater = %d, want 1", st.InFlightHighWater)
	}
}

// TestPerKBCostScalesWithBytes: the transfer component charges by key+value
// bytes; one range batch pays a single PerRead plus its size.
func TestPerKBCostScalesWithBytes(t *testing.T) {
	const perRead = time.Millisecond
	const perKB = 1024 * time.Microsecond // 1µs per byte, keeps arithmetic exact
	db := latencyDB(t, perRead, perKB)
	big := make([]byte, 2048)
	_, err := db.Transact(func(tr *Transaction) (interface{}, error) {
		return nil, tr.Set([]byte("big"), big)
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := db.CreateTransaction()
	if _, err := tr.Get([]byte("big")); err != nil {
		t.Fatal(err)
	}
	nbytes := len("big") + len(big)
	want := int64(perRead) + int64(nbytes)*int64(perKB)/1024
	if st := tr.Stats(); st.SimWaitNanos != want {
		t.Errorf("SimWaitNanos = %d, want %d (PerRead + %d bytes)", st.SimWaitNanos, want, nbytes)
	}
}

// TestRangeFutureMatchesSyncRead: async range reads return exactly what the
// sync API returns, and a whole batch costs one window.
func TestRangeFutureMatchesSyncRead(t *testing.T) {
	const window = time.Millisecond
	db := latencyDB(t, window, 0)
	seedKeys(t, db, 20)
	trSync := db.CreateTransaction()
	want, wantMore, err := trSync.GetRange([]byte("k"), []byte("l"), RangeOptions{Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	tr := db.CreateTransaction()
	fut := tr.Snapshot().GetRangeAsync([]byte("k"), []byte("l"), RangeOptions{Limit: 10})
	pairs, gotMore, err := fut.Get()
	if err != nil {
		t.Fatal(err)
	}
	got := kvsOf(pairs)
	if len(got) != len(want) || gotMore != wantMore {
		t.Fatalf("async range: %d pairs more=%v, sync: %d pairs more=%v", len(got), gotMore, len(want), wantMore)
	}
	for i := range got {
		if string(got[i].Key) != string(want[i].Key) || string(got[i].Value) != string(want[i].Value) {
			t.Fatalf("pair %d differs", i)
		}
	}
	if st := tr.Stats(); st.SimWaitNanos != int64(window) {
		t.Errorf("batch SimWaitNanos = %v, want one window", time.Duration(st.SimWaitNanos))
	}
}

// TestFutureObservesStateAtIssue: a future's value is resolved when issued;
// a Set between issue and await is not visible to it — the real client's
// semantics, where the read departs when the future is created.
func TestFutureObservesStateAtIssue(t *testing.T) {
	db := latencyDB(t, time.Millisecond, 0)
	seedKeys(t, db, 1)
	tr := db.CreateTransaction()
	f := tr.GetAsync([]byte("k000"))
	if err := tr.Set([]byte("k000"), []byte("overwritten")); err != nil {
		t.Fatal(err)
	}
	v, err := f.Get()
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v000" {
		t.Errorf("future saw %q, want pre-write %q", v, "v000")
	}
	// A read issued after the write sees it (read-your-writes).
	v2, err := tr.Get([]byte("k000"))
	if err != nil {
		t.Fatal(err)
	}
	if string(v2) != "overwritten" {
		t.Errorf("post-write read = %q", v2)
	}
}

// TestZeroLatencyFuturesInstant: with no latency model, futures resolve
// instantly and no overlap bookkeeping is done.
func TestZeroLatencyFuturesInstant(t *testing.T) {
	db := Open(nil)
	seedKeys(t, db, 4)
	tr := db.CreateTransaction()
	var futs []*FutureValue
	for i := 0; i < 4; i++ {
		futs = append(futs, tr.GetAsync([]byte(fmt.Sprintf("k%03d", i))))
	}
	for _, f := range futs {
		if _, err := f.Get(); err != nil {
			t.Fatal(err)
		}
	}
	st := tr.Stats()
	if st.SimWaitNanos != 0 || st.InFlightHighWater != 0 {
		t.Errorf("zero-latency stats = wait %d, high-water %d; want 0, 0", st.SimWaitNanos, st.InFlightHighWater)
	}
}

// TestRepeatedGetIdempotent: awaiting a future twice neither blocks again nor
// double-counts the wait.
func TestRepeatedGetIdempotent(t *testing.T) {
	const window = time.Millisecond
	db := latencyDB(t, window, 0)
	seedKeys(t, db, 1)
	tr := db.CreateTransaction()
	f := tr.GetAsync([]byte("k000"))
	for i := 0; i < 3; i++ {
		if _, err := f.Get(); err != nil {
			t.Fatal(err)
		}
	}
	if st := tr.Stats(); st.SimWaitNanos != int64(window) {
		t.Errorf("SimWaitNanos = %v after repeated Get, want one window", time.Duration(st.SimWaitNanos))
	}
}

// TestFuturesAcrossGoroutines: distinct futures of one transaction may be
// issued and awaited from different goroutines (the real client is
// thread-safe); run under -race this guards the stats plumbing.
func TestFuturesAcrossGoroutines(t *testing.T) {
	const window = time.Millisecond
	const k = 16
	db := latencyDB(t, window, 0)
	seedKeys(t, db, k)
	tr := db.CreateTransaction()
	var wg sync.WaitGroup
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := tr.GetAsync([]byte(fmt.Sprintf("k%03d", i))).Get()
			if err == nil && string(v) != fmt.Sprintf("v%03d", i) {
				err = fmt.Errorf("got %q", v)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	// All K reads overlap within at most K windows (scheduling-dependent in
	// virtual time), and the counters stayed consistent.
	st := tr.Stats()
	if st.SimWaitNanos > int64(k*window) {
		t.Errorf("SimWaitNanos = %v, want <= %v", time.Duration(st.SimWaitNanos), k*window)
	}
	if st.KeysRead != k {
		t.Errorf("KeysRead = %d, want %d", st.KeysRead, k)
	}
}

// latencyDBFull opens a database pricing reads, GRV, and commits on the
// virtual clock.
func latencyDBFull(t *testing.T, perRead, perGRV, perCommit time.Duration) *Database {
	t.Helper()
	return Open(&Options{Latency: LatencyModel{
		PerRead: perRead, PerGRV: perGRV, PerCommit: perCommit, Virtual: true}})
}

// TestGRVAndCommitPriced: end-to-end transaction cost is GRV + read + commit.
// The GRV window pipelines with the first read (one combined wait, not two
// stacked), and the commit window starts only after every read resolved.
func TestGRVAndCommitPriced(t *testing.T) {
	const perRead = time.Millisecond
	const perGRV = 2 * time.Millisecond
	const perCommit = 4 * time.Millisecond
	db := latencyDBFull(t, perRead, perGRV, perCommit)
	seedKeys(t, db, 1)
	tr := db.CreateTransaction()
	if _, err := tr.Get([]byte("k000")); err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.SimWaitNanos != int64(perGRV+perRead) {
		t.Errorf("read SimWaitNanos = %v, want pipelined GRV+read %v",
			time.Duration(st.SimWaitNanos), perGRV+perRead)
	}
	if err := tr.Set([]byte("k000"), []byte("w")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.SimWaitNanos != int64(perGRV+perRead+perCommit) {
		t.Errorf("total SimWaitNanos = %v, want %v",
			time.Duration(st.SimWaitNanos), perGRV+perRead+perCommit)
	}
}

// TestGRVSharedAcrossOverlappedReads: K futures issued before any await still
// cost one combined GRV+read window — the GRV is one round trip no matter how
// many reads pipeline behind it.
func TestGRVSharedAcrossOverlappedReads(t *testing.T) {
	const perRead = time.Millisecond
	const perGRV = 2 * time.Millisecond
	const k = 6
	db := latencyDBFull(t, perRead, perGRV, 0)
	seedKeys(t, db, k)
	tr := db.CreateTransaction()
	futs := make([]*FutureValue, k)
	for i := range futs {
		futs[i] = tr.GetAsync([]byte(fmt.Sprintf("k%03d", i)))
	}
	for _, f := range futs {
		if _, err := f.Get(); err != nil {
			t.Fatal(err)
		}
	}
	if st := tr.Stats(); st.SimWaitNanos != int64(perGRV+perRead) {
		t.Errorf("SimWaitNanos = %v, want one GRV+read window (%v)",
			time.Duration(st.SimWaitNanos), perGRV+perRead)
	}
}

// TestReadVersionCachingSkipsGRV: SetReadVersion skips the GRV round trip and
// its price — the §4 optimization the model must reward.
func TestReadVersionCachingSkipsGRV(t *testing.T) {
	const perRead = time.Millisecond
	const perGRV = 2 * time.Millisecond
	db := latencyDBFull(t, perRead, perGRV, 0)
	seedKeys(t, db, 1)
	rv := db.ReadVersion()
	tr := db.CreateTransaction()
	tr.SetReadVersion(rv)
	if _, err := tr.Get([]byte("k000")); err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.SimWaitNanos != int64(perRead) {
		t.Errorf("cached-RV SimWaitNanos = %v, want just the read (%v)",
			time.Duration(st.SimWaitNanos), perRead)
	}
}

// TestReadOnlyCommitFree: a read-only commit is a client-side no-op and adds
// no commit window.
func TestReadOnlyCommitFree(t *testing.T) {
	const perRead = time.Millisecond
	const perGRV = 2 * time.Millisecond
	const perCommit = 4 * time.Millisecond
	db := latencyDBFull(t, perRead, perGRV, perCommit)
	seedKeys(t, db, 1)
	tr := db.CreateTransaction()
	if _, err := tr.Get([]byte("k000")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.SimWaitNanos != int64(perGRV+perRead) {
		t.Errorf("read-only commit SimWaitNanos = %v, want %v (no commit window)",
			time.Duration(st.SimWaitNanos), perGRV+perRead)
	}
}

// TestCommitFlushesOutstandingReads: an issued-but-never-awaited future must
// resolve before the commit round trip starts, so the commit wait covers
// GRV + read + commit in one charge.
func TestCommitFlushesOutstandingReads(t *testing.T) {
	const perRead = time.Millisecond
	const perGRV = 2 * time.Millisecond
	const perCommit = 4 * time.Millisecond
	db := latencyDBFull(t, perRead, perGRV, perCommit)
	seedKeys(t, db, 1)
	tr := db.CreateTransaction()
	_ = tr.GetAsync([]byte("k000")) // abandoned: still in flight at commit
	if err := tr.Set([]byte("k000"), []byte("w")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.SimWaitNanos != int64(perGRV+perRead+perCommit) {
		t.Errorf("SimWaitNanos = %v, want %v (commit waits for the in-flight read)",
			time.Duration(st.SimWaitNanos), perGRV+perRead+perCommit)
	}
}

// TestWriteOnlyTxnPaysGRVAndCommit: a write-only transaction performs its GRV
// at commit (the simulator resolves conflicts against a read version), so its
// cost is GRV + commit with no read windows.
func TestWriteOnlyTxnPaysGRVAndCommit(t *testing.T) {
	const perGRV = 2 * time.Millisecond
	const perCommit = 4 * time.Millisecond
	db := latencyDBFull(t, time.Millisecond, perGRV, perCommit)
	tr := db.CreateTransaction()
	if err := tr.Set([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.SimWaitNanos != int64(perGRV+perCommit) {
		t.Errorf("SimWaitNanos = %v, want %v", time.Duration(st.SimWaitNanos), perGRV+perCommit)
	}
}

// TestExplicitGetReadVersionWaitsGRV: GetReadVersion performs and waits out
// the GRV round trip exactly once.
func TestExplicitGetReadVersionWaitsGRV(t *testing.T) {
	const perGRV = 2 * time.Millisecond
	db := latencyDBFull(t, time.Millisecond, perGRV, 0)
	tr := db.CreateTransaction()
	if _, err := tr.GetReadVersion(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.GetReadVersion(); err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.SimWaitNanos != int64(perGRV) {
		t.Errorf("SimWaitNanos = %v, want one GRV window (%v)", time.Duration(st.SimWaitNanos), perGRV)
	}
}

// TestErrorFutureNoLatency: a read that fails validation resolves instantly
// with the error and registers no in-flight slot.
func TestErrorFutureNoLatency(t *testing.T) {
	db := latencyDB(t, time.Millisecond, 0)
	tr := db.CreateTransaction()
	tr.Cancel()
	f := tr.GetAsync([]byte("k"))
	if _, err := f.Get(); err == nil {
		t.Fatal("expected error from canceled transaction")
	}
	if st := tr.Stats(); st.SimWaitNanos != 0 || st.InFlightHighWater != 0 {
		t.Errorf("error future charged latency: %+v", st)
	}
}
