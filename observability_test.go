package recordlayer

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"recordlayer/internal/directory"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/keyspace"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/obs"
	"recordlayer/internal/query"
	"recordlayer/internal/tuple"
)

// TestPipelinedScanTraceSpans is the trace-exactness form of the pipelining
// proof: on the virtual latency clock, a depth-8 pipelined fetch of 8 records
// (fetchEven) must trace as 8 fdb.read spans sharing one identical issue
// window, awaited by exactly one fdb.await span — K reads, one wait. Exact
// span arithmetic, no sleeps.
func TestPipelinedScanTraceSpans(t *testing.T) {
	const window = 100 * time.Microsecond
	_, md := testSchema(t)
	db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{PerRead: window, Virtual: true}})
	r := NewRunner(db, RunnerOptions{})
	p := testProvider(t, md)
	saveDocs(t, r, p, 1, 16) // 8 docs tagged "even"

	trace := NewTrace()
	ctx := WithTrace(context.Background(), trace)
	_, err := r.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := p.Open(ctx, tr, int64(1))
		if err != nil {
			return nil, err
		}
		recs, err := fetchEven(store, 8)
		if err != nil {
			return nil, err
		}
		if len(recs) != 8 {
			return nil, fmt.Errorf("got %d records, want 8", len(recs))
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Group read spans by their issue window: the store open reads nothing
	// (saveDocs' one transaction created the store, and its commit cached the
	// header it wrote); the index scan batches each occupy their own window;
	// the 8 pipelined fetches were all issued before any was awaited, so they
	// share one.
	type win struct{ start, end int64 }
	groups := map[win]int{}
	for _, s := range trace.Named(obs.SpanRead) {
		if s.Duration() != window {
			t.Fatalf("read span %+v: duration %v, want %v", s, s.Duration(), window)
		}
		groups[win{s.Start, s.End}]++
	}
	var fetchWin win
	found := 0
	for w, n := range groups {
		switch n {
		case 8:
			fetchWin, found = w, found+1
		case 1:
		default:
			t.Fatalf("unexpected read group of %d spans at %+v", n, w)
		}
	}
	if found != 1 {
		t.Fatalf("want exactly one 8-read issue window, got %d (groups: %v)", found, groups)
	}
	// Exactly one await resolves that window: the first fetch blocks until
	// ready, the other seven find their data already resolved.
	awaits := 0
	for _, s := range trace.Named(obs.SpanAwait) {
		if s.End == fetchWin.end && s.Start >= fetchWin.start {
			awaits++
		}
	}
	if awaits != 1 {
		t.Fatalf("pipelined window awaited %d times, want exactly 1", awaits)
	}
	// The transaction committed nothing (ReadRun) but did GRV.
	if len(trace.Named(obs.SpanGRV)) == 0 {
		t.Fatal("no GRV span recorded")
	}
}

// TestAdmissionSpanEqualsQueueWait: with a manual clock shared by the runner
// and the test, a governed transaction that waits in the admission queue
// records an admission span exactly equal to the queue wait surfaced in the
// tenant's Usage.TxnTime — the same clock readings price both.
func TestAdmissionSpanEqualsQueueWait(t *testing.T) {
	const wait = 250 * time.Millisecond
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}

	db := fdb.Open(nil)
	acct := NewAccountant()
	gov := NewGovernor(acct, GovernorOptions{TotalConcurrent: 1})
	r := NewRunner(db, RunnerOptions{Governor: gov, Now: clock})

	// Tenant A occupies the only slot until released.
	hold := make(chan struct{})
	holding := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := r.Run(WithTenant(context.Background(), "tenant-a"),
			func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
				close(holding)
				<-hold
				return nil, nil
			})
		if err != nil {
			t.Error(err)
		}
	}()
	<-holding

	// Tenant B queues behind A.
	trace := NewTrace()
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		ctx := WithTrace(WithTenant(context.Background(), "tenant-b"), trace)
		_, err := r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			return nil, nil
		})
		if err != nil {
			t.Error(err)
		}
	}()
	for {
		if _, waiting := gov.Inflight(); waiting == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	advance(wait) // the only clock movement B's execution ever sees
	close(hold)
	<-done
	wg.Wait()

	spans := trace.Named(obs.SpanAdmit)
	if len(spans) != 1 {
		t.Fatalf("got %d admission spans, want 1", len(spans))
	}
	if got := spans[0].Duration(); got != wait {
		t.Fatalf("admission span = %v, want exactly %v", got, wait)
	}
	var usage TenantUsage
	for _, u := range acct.Snapshot() {
		if u.Tenant == "tenant-b" {
			usage = u
		}
	}
	if usage.TxnTime != wait {
		t.Fatalf("Usage.TxnTime = %v, want exactly %v (the queue wait)", usage.TxnTime, wait)
	}
	if usage.Throttled != 1 {
		t.Fatalf("Throttled = %d, want 1", usage.Throttled)
	}
}

// TestRunnerMetricsConsistentSnapshot hammers Run (each execution forced
// through exactly one retry) while concurrently reading Metrics: because
// counters fold in once per completed execution under one lock, every
// snapshot must satisfy Retries == Runs — a torn snapshot (an execution's
// retry visible without its run) fails immediately. Run with -race.
func TestRunnerMetricsConsistentSnapshot(t *testing.T) {
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{
		Sleep: func(ctx context.Context, d time.Duration) error { return nil },
	})
	const goroutines, runs = 8, 200
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := r.Metrics()
			if m.Retries != m.Runs {
				t.Errorf("torn snapshot: %+v (want Retries == Runs)", m)
				return
			}
			if m.Failures != 0 {
				t.Errorf("unexpected failures: %+v", m)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				attempt := 0
				_, err := r.Run(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
					attempt++
					if attempt == 1 {
						return nil, &fdb.Error{Code: fdb.CodeNotCommitted, Msg: "forced"}
					}
					return nil, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	m := r.Metrics()
	if m.Runs != goroutines*runs || m.Retries != goroutines*runs {
		t.Fatalf("final metrics %+v, want %d runs and retries", m, goroutines*runs)
	}
}

// explainEnv replicates the covering-vs-fetch benchmark setup: 1000 records,
// a value index on name, the BeginsWith("user-0002") query matching 100.
func explainEnv(t *testing.T) (*Runner, *StoreProvider) {
	t.Helper()
	user := message.MustDescriptor("U",
		message.Field("id", 1, message.TypeInt64),
		message.Field("name", 2, message.TypeString),
		message.Field("score", 3, message.TypeInt64),
	)
	md := metadata.NewBuilder(1).
		AddRecordType(user, keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		AddIndex(&metadata.Index{Name: "by_name", Type: metadata.IndexValue,
			Expression: keyexpr.Field("name")}, "U").
		MustBuild()
	ks, err := keyspace.New(nil,
		keyspace.NewConstant("bench", "explain-test").Add(
			keyspace.NewDirectory("user", keyspace.TypeInt64)))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewStoreProvider(md, ks, []string{"bench", "user"}, ProviderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{})
	ctx := context.Background()
	for lo := 0; lo < 1000; lo += 200 {
		lo := lo
		_, err := r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			s, err := p.Open(ctx, tr, int64(1))
			if err != nil {
				return nil, err
			}
			for i := lo; i < lo+200; i++ {
				rec := message.New(user).
					MustSet("id", int64(i)).
					MustSet("name", fmt.Sprintf("user-%06d", i)).
					MustSet("score", int64(i))
				if _, err := s.SaveRecord(rec); err != nil {
					return nil, err
				}
			}
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return r, p
}

// TestExplainQueryCoveringVsFetch runs EXPLAIN ANALYZE on the benchmark's
// fetch and covering forms of the same query and asserts the per-node
// simulator reads reproduce the benchmarked gap: the fetching plan pays 2
// extra reads per record (version slot + data), the covering plan answers
// from index entries alone.
func TestExplainQueryCoveringVsFetch(t *testing.T) {
	r, p := explainEnv(t)
	ctx := context.Background()
	base := Query{RecordTypes: []string{"U"}, Filter: query.Field("name").BeginsWith("user-0002")}

	explain := func(q Query) string {
		res, err := r.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			s, err := p.Open(ctx, tr, int64(1))
			if err != nil {
				return nil, err
			}
			return s.ExplainQuery(ctx, q, ExecuteProperties{})
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.(string)
	}
	fetch := explain(base)
	covering := explain(base.Select("name", "id"))
	t.Logf("fetch:\n%s", fetch)
	t.Logf("covering:\n%s", covering)

	for _, c := range []struct {
		name, out string
		wantPlan  string
		wantReads int64 // per-node simreads on the scan leaf
	}{
		// The benchmark reports 302 (fetch) vs 102 (covering) keys per
		// operation; 2 of each are the store-open reads, which happen before
		// EXPLAIN's execution and are attributed to no plan node. 100 entries
		// + 200 record keys on the fetch path, 100 entries alone covering.
		{"fetch", fetch, "Index(by_name", 300},
		{"covering", covering, "Covering(Index(by_name", 100},
	} {
		if !strings.Contains(c.out, c.wantPlan) {
			t.Fatalf("%s: plan %q missing in:\n%s", c.name, c.wantPlan, c.out)
		}
		if want := fmt.Sprintf("simreads=%d", c.wantReads); !strings.Contains(c.out, want) {
			t.Fatalf("%s: %s missing in:\n%s", c.name, want, c.out)
		}
		// Transaction totals (taken after Open) equal the plan-attributed
		// reads: index states are loaded at Open, so the scan's readability
		// check at cursor construction reads nothing. (It was one key more
		// while that check probed the state key.)
		if want := fmt.Sprintf("txn: keys_read=%d", c.wantReads); !strings.Contains(c.out, want) {
			t.Fatalf("%s: %s missing in:\n%s", c.name, want, c.out)
		}
		if !strings.Contains(c.out, "rows: 100") {
			t.Fatalf("%s: rows line missing in:\n%s", c.name, c.out)
		}
		if !strings.Contains(c.out, "in=100") || !strings.Contains(c.out, "out=100") {
			t.Fatalf("%s: per-node row counters missing in:\n%s", c.name, c.out)
		}
	}
}

// TestExplainQueryAccumulatesPages: page-bounded execution resumes through
// its own continuations, and the stats tree accumulates across pages instead
// of resetting.
func TestExplainQueryAccumulatesPages(t *testing.T) {
	_, md := testSchema(t)
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{})
	p := testProvider(t, md)
	saveDocs(t, r, p, 1, 30)

	res, err := r.ReadRun(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := p.Open(ctx, tr, int64(1))
		if err != nil {
			return nil, err
		}
		return s.ExplainQuery(ctx, Query{RecordTypes: []string{"Doc"}}, ExecuteProperties{RowLimit: 7})
	})
	if err != nil {
		t.Fatal(err)
	}
	out := res.(string)
	if !strings.Contains(out, "rows: 30") {
		t.Fatalf("want all 30 rows drained across pages, got:\n%s", out)
	}
	// 30 rows at 7 per page = 5 pages (the last page reports exhaustion).
	if !strings.Contains(out, "pages=5") {
		t.Fatalf("want pages=5 in:\n%s", out)
	}
}

// TestSlowQueryLog: an execution over its threshold lands in the provider's
// log with plan, rows, and halt reason; one under it only feeds the latency
// histogram.
func TestSlowQueryLogCapture(t *testing.T) {
	_, md := testSchema(t)
	db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{PerRead: time.Millisecond, Virtual: true}})
	r := NewRunner(db, RunnerOptions{})
	log := NewSlowQueryLog(0)
	ks, err := keyspace.New(nil,
		keyspace.NewConstant("app", "slow-test").Add(
			keyspace.NewDirectory("user", keyspace.TypeInt64)))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewStoreProvider(md, ks, []string{"app", "user"}, ProviderOptions{SlowQueries: log})
	if err != nil {
		t.Fatal(err)
	}
	saveDocs(t, r, p, 1, 10)

	// before and after are the slow run's transaction stats around the query.
	var before, after fdb.TxnStats
	runQuery := func(threshold time.Duration) {
		_, err := r.ReadRun(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			s, err := p.Open(ctx, tr, int64(1))
			if err != nil {
				return nil, err
			}
			before = tr.Stats()
			cur, err := s.ExecuteQuery(ctx, Query{RecordTypes: []string{"Doc"}},
				ExecuteProperties{SlowQueryThreshold: threshold})
			if err != nil {
				return nil, err
			}
			_, err = cur.ToList()
			after = tr.Stats()
			return nil, err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	runQuery(time.Minute)     // fast by definition
	runQuery(time.Nanosecond) // slow by definition

	if got := log.SlowTotal(); got != 1 {
		t.Fatalf("SlowTotal = %d, want 1", got)
	}
	entries := log.Entries()
	if len(entries) != 1 {
		t.Fatalf("got %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Plan != "Scan(Doc)" || e.Rows != 10 || e.Reason != "source-exhausted" || e.Elapsed <= 0 {
		t.Fatalf("unexpected slow entry %+v", e)
	}
	// No trace rode the context: the cost comes from the transaction's stats.
	if e.Trace != "" || e.KeysRead == 0 || e.KeysRead != after.KeysRead-before.KeysRead ||
		e.BytesRead != after.BytesRead-before.BytesRead || e.SimWaitNanos == 0 ||
		e.SimWaitNanos != after.SimWaitNanos-before.SimWaitNanos || e.InFlightHighWater == 0 || e.InFlightHighWater != after.InFlightHighWater {
		t.Fatalf("slow entry %+v, want the query's share of the transaction's stats: %+v before, %+v after", e, before, after)
	}
	if got := log.DurationHistogram().Count(); got != 2 {
		t.Fatalf("histogram observed %d executions, want 2", got)
	}
}

// TestMetricsReconcileWithAccountant: the registry's per-tenant counters are
// collected from the live accountant at scrape time, so a scrape taken at
// rest must agree exactly with Accountant.Snapshot.
func TestMetricsReconcileWithAccountant(t *testing.T) {
	_, md := testSchema(t)
	db := fdb.Open(nil)
	acct := NewAccountant()
	r := NewRunner(db, RunnerOptions{Accountant: acct})
	p := testProvider(t, md)

	ctx := WithTenant(context.Background(), "1") // tenant label: TenantKey of path values
	_, err := r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := p.Open(ctx, tr, int64(1))
		if err != nil {
			return nil, err
		}
		doc, _ := testSchema(t)
		for i := 0; i < 12; i++ {
			if _, err := s.SaveRecord(message.New(doc).MustSet("id", int64(i)).MustSet("tag", "x")); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	reg := NewMetricsRegistry()
	RegisterAccountantMetrics(reg, acct)
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, u := range acct.Snapshot() {
		for metric, want := range map[string]int64{
			"tenant_read_records_total":  u.ReadRecords,
			"tenant_read_bytes_total":    u.ReadBytes,
			"tenant_write_records_total": u.WriteRecords,
			"tenant_write_bytes_total":   u.WriteBytes,
			"tenant_transactions_total":  u.Transactions,
		} {
			line := fmt.Sprintf("%s{tenant=%q} %d", metric, u.Tenant, want)
			if !strings.Contains(out, line) {
				t.Fatalf("scrape does not reconcile: missing %q in:\n%s", line, out)
			}
		}
	}
	if !strings.Contains(out, "tenant_write_records_total") {
		t.Fatal("no tenant rows exported at all")
	}
}

// TestTraceDisabledIsFree-ish: without a trace on the context, the
// instrumented paths must record nothing and allocate no trace machinery
// (this checks behavior, not speed).
func TestNoTraceNoSpans(t *testing.T) {
	_, md := testSchema(t)
	db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{PerRead: time.Millisecond, Virtual: true}})
	r := NewRunner(db, RunnerOptions{})
	p := testProvider(t, md)
	saveDocs(t, r, p, 1, 4)
	if TraceFromContext(context.Background()) != nil {
		t.Fatal("bare context must carry no trace")
	}
	// And a traced run on the same stack does record — the off switch is the
	// context, nothing global.
	trace := NewTrace()
	ctx := WithTrace(context.Background(), trace)
	_, err := r.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := p.Open(ctx, tr, int64(1))
		if err != nil {
			return nil, err
		}
		_, err = s.LoadRecordByKey(tuple.Tuple{int64(1)})
		return nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if trace.Len() == 0 {
		t.Fatal("traced context recorded nothing")
	}
	if !errors.Is(nil, nil) { // keep errors import honest under edits
		t.Fatal("unreachable")
	}
}

// TestDescribeKeyNamesTenantAndSubspace: every key a tenant's first save and
// an index-state change write describes as that tenant's keyspace path and
// the store subspace it lies in. An interned container shows by name while
// the directory layer's cache knows it and by id on a provider whose cache
// does not; the directory layer's own keys lie outside every store. A
// Runner's attempt that meets a real conflict carries the write it lost to.
func TestDescribeKeyNamesTenantAndSubspace(t *testing.T) {
	doc := message.MustDescriptor("Doc",
		message.Field("id", 1, message.TypeInt64),
		message.Field("score", 2, message.TypeInt64),
	)
	md := metadata.NewBuilder(1).
		AddRecordType(doc, keyexpr.Field("id")).
		AddIndex(&metadata.Index{Name: "by_score", Type: metadata.IndexValue, Expression: keyexpr.Field("score")}).
		MustBuild()
	provider := func() *StoreProvider {
		ks, err := keyspace.New(directory.NewLayer(),
			keyspace.NewConstant("app", "describe").Add(
				keyspace.NewInterned("container").Add(
					keyspace.NewDirectory("user", keyspace.TypeInt64))))
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewStoreProvider(md, ks, []string{"app", "container", "user"}, ProviderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p, db, ctx := provider(), fdb.Open(nil), context.Background()
	var written [][]byte
	db.SetTap(func(_ *fdb.Transaction, a fdb.Access) {
		if a.Kind == fdb.AccessWrite || a.Kind == fdb.AccessClear {
			written = append(written, append([]byte(nil), a.Begin...))
		}
	})
	r := NewRunner(db, RunnerOptions{})
	for _, write := range []func(s *Store) error{
		func(s *Store) error {
			_, err := s.SaveRecord(message.New(doc).MustSet("id", int64(1)).MustSet("score", int64(5)))
			return err
		},
		func(s *Store) error { return s.MarkIndexWriteOnly("by_score") },
	} {
		_, err := r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			s, err := p.Open(ctx, tr, "c1", int64(7))
			if err != nil {
				return nil, err
			}
			return nil, write(s)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	db.SetTap(nil)
	const tenant = "/app:describe/container:c1/user:7"
	got := map[string]bool{}
	var recordKey []byte
	for _, k := range written {
		d := p.DescribeKey(k)
		got[d.String()] = true
		if d.Subspace == "records" {
			recordKey = k
		}
	}
	for _, want := range []string{tenant + " header", tenant + " records", tenant + " index by_score",
		tenant + " index state by_score", "outside every store"} {
		if !got[want] {
			t.Errorf("no written key describes as %q: %v", want, got)
		}
	}
	if len(got) != 5 {
		t.Errorf("written keys describe as %v, want the five above", got)
	}
	// A range over the whole store starts at the store's own prefix.
	_, err := r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := p.Open(ctx, tr, "c1", int64(7))
		if err != nil {
			return nil, err
		}
		if d := p.DescribeKey(s.Subspace().Bytes()); d.String() != tenant+" store" {
			t.Errorf("the store's prefix describes as %v, want %q", d, tenant+" store")
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cold := provider().DescribeKey(recordKey)
	if strings.Contains(cold.Tenant, "c1") || !strings.HasPrefix(cold.Tenant, "/app:describe/container:") ||
		!strings.HasSuffix(cold.Tenant, "/user:7") || cold.Subspace != "records" {
		t.Errorf("a provider whose directory cache is cold describes the record key as %v, want the container's id", cold)
	}

	trace := obs.NewTrace()
	n := 0
	_, err = r.Run(obs.WithTrace(ctx, trace), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := p.Open(ctx, tr, "c1", int64(7))
		if err != nil {
			return nil, err
		}
		if _, err := s.LoadRecordByKey(tuple.Tuple{int64(1)}); err != nil {
			return nil, err
		}
		if n++; n == 1 { // a concurrent writer commits first, once
			_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
				s, err := p.Open(ctx, tr, "c1", int64(7))
				if err != nil {
					return nil, err
				}
				return s.SaveRecord(message.New(doc).MustSet("id", int64(1)).MustSet("score", int64(6)))
			})
			if err != nil {
				return nil, err
			}
		}
		return nil, tr.Set([]byte("elsewhere"), nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	attempts := trace.Named(obs.SpanAttempt)
	if len(attempts) != 2 || !strings.Contains(attempts[0].Attr, "cause=conflict") ||
		!strings.Contains(attempts[0].Attr, ` conflict=("describe", `) || strings.Contains(attempts[1].Attr, "conflict=") {
		t.Fatalf("attempt spans %v, want a conflicted first naming its key and a clean second", attempts)
	}
	t.Logf("conflicted attempt: %s", attempts[0].Attr)
}
