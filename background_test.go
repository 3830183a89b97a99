package recordlayer

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"recordlayer/internal/core"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/obs"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// bgRecords is the store the background tests build an index over: five
// 4-record batches, then one that finds the scan exhausted.
const (
	bgRecords = 20
	bgBatch   = 4
	bgTenant  = "bulk"
)

// bgStore saves bgRecords docs at schema v1 and returns the subspace and the
// v2 schema whose new VALUE index "by_tag_id" a build has to fill online.
func bgStore(t *testing.T, db *fdb.Database) (subspace.Subspace, *metadata.MetaData) {
	t.Helper()
	doc, v1 := testSchema(t)
	v2 := metadata.NewBuilder(2).
		AddRecordType(doc, keyexpr.Field("id")).
		AddIndex(&metadata.Index{Name: "by_tag", Type: metadata.IndexValue,
			Expression: keyexpr.Then(keyexpr.Field("tag"), keyexpr.Field("id"))}, "Doc").
		AddIndex(&metadata.Index{Name: "by_tag_id", Type: metadata.IndexValue,
			Expression: keyexpr.Then(keyexpr.Field("tag"), keyexpr.Field("id")), AddedVersion: 2}, "Doc").
		MustBuild()
	space := subspace.FromTuple(tuple.Tuple{"bg"})
	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		s, err := core.Open(tr, v1, space, core.OpenOptions{CreateIfMissing: true})
		if err != nil {
			return nil, err
		}
		for i := 0; i < bgRecords; i++ {
			if _, err := s.SaveRecord(message.New(doc).MustSet("id", int64(i)).MustSet("tag", fmt.Sprint(i%3))); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return space, v2
}

// buildAndScrub builds by_tag_id online and scrubs it, every transaction
// entering through door with ctx, and checks both did their work.
func buildAndScrub(t *testing.T, ctx context.Context, door fdb.Door, space subspace.Subspace, v2 *metadata.MetaData) {
	t.Helper()
	ixr := &core.OnlineIndexer{DB: door, MetaData: v2, Space: space, IndexName: "by_tag_id",
		BatchSize: bgBatch, Config: core.Config{InlineBuildLimit: 1}}
	if n, err := ixr.Build(ctx); err != nil || n != bgRecords {
		t.Fatalf("Build = (%d, %v), want (%d, nil)", n, err, bgRecords)
	}
	scr := &Scrubber{DB: door, MetaData: v2, Space: space, IndexName: "by_tag_id", BatchSize: 8}
	rep, err := scr.Scrub(ctx)
	if err != nil || !rep.Clean() || rep.EntriesScanned != bgRecords || rep.RecordsScanned != bgRecords {
		t.Fatalf("Scrub = (%+v, %v), want a clean pass over %d entries and records", rep, err, bgRecords)
	}
}

// bgDoor passes a background loop's transactions through to a Door. It runs
// before(n) ahead of the n-th transaction (1-based) and attempt(n) at the
// start of each of its attempts, and keeps every attempt's transaction and
// the n it belongs to.
type bgDoor struct {
	fdb.Door
	before, attempt func(n int)
	n               int
	txns            []*fdb.Transaction
	of              []int
}

func (d *bgDoor) RunIdempotent(ctx context.Context, fn fdb.TransactFunc) (interface{}, error) {
	d.n++
	n := d.n
	if d.before != nil {
		d.before(n)
	}
	//rl:idempotent passes the wrapped loop's own promise through
	return d.Door.RunIdempotent(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		d.txns = append(d.txns, tr)
		d.of = append(d.of, n)
		if d.attempt != nil {
			d.attempt(n)
		}
		return fn(ctx, tr)
	})
}

// background is ctx for tenant bgTenant's background work.
func background(ctx context.Context) context.Context {
	return WithPriority(WithTenant(ctx, bgTenant), PriorityBackground)
}

// TestBackgroundWorkThroughRunner: an online index build and a scrub handed a
// governed Runner under WithTenant and PriorityBackground enter through the
// same door as foreground work. Every batch is admitted, billed to the
// tenant, traced and retry-counted; a batch waits behind queued foreground
// work; and a tenant over its rate quota has its build wait RetryAfter out.
func TestBackgroundWorkThroughRunner(t *testing.T) {
	t.Run("billed traced and retry-counted", func(t *testing.T) {
		inj := fdb.NewFaultInjector(fdb.FaultConfig{Seed: 5, PCommitNotCommitted: 0.5})
		db := fdb.Open(&fdb.Options{Faults: inj})
		inj.Disable()
		space, v2 := bgStore(t, db)
		inj.Enable()
		gov := NewGovernor(nil, GovernorOptions{TotalConcurrent: 4})
		r := NewRunner(db, RunnerOptions{Governor: gov, Sleep: func(context.Context, time.Duration) error { return nil }})
		door := &bgDoor{Door: r}
		trace := obs.NewTrace()
		buildAndScrub(t, obs.WithTrace(background(context.Background()), trace), door, space, v2)

		u := gov.Accountant().Tenant(bgTenant).Snapshot()
		if u.Transactions != int64(door.n) || u.Admitted != int64(door.n) {
			t.Errorf("usage counts %d transactions and %d admissions, the loops ran %d", u.Transactions, u.Admitted, door.n)
		}
		var st fdb.TxnStats
		for _, tr := range door.txns {
			s := tr.Stats()
			st.KeysRead += s.KeysRead
			st.BytesRead += s.BytesRead
			st.Mutations += s.Mutations
			st.Size += s.Size
		}
		if u.ReadRecords != int64(st.KeysRead) || u.ReadBytes != int64(st.BytesRead) ||
			u.WriteRecords != int64(st.Mutations) || u.WriteBytes != int64(st.Size) || u.WriteBytes == 0 {
			t.Errorf("usage %+v, want the %d attempts' TxnStats %+v", u, len(door.txns), st)
		}

		conflicts := inj.Counts().CommitsNotCommitted
		if got := r.Metrics().RetriesByCause[CauseConflict]; conflicts == 0 || got != conflicts {
			t.Errorf("RetriesByCause[conflict] = %d, want the %d injected conflicts", got, conflicts)
		}
		if n := len(trace.Named(obs.SpanAdmit)); n != door.n {
			t.Errorf("%d admit spans, want one per transaction (%d)", n, door.n)
		}
		if n := len(trace.Named(obs.SpanAttempt)); n != len(door.txns) {
			t.Errorf("%d attempt spans, want one per attempt (%d)", n, len(door.txns))
		}
		// The build's first and last transactions flip the index state; the
		// ones between are its batches, and each batch attempt is one span.
		batches := bgRecords/bgBatch + 1
		attempts := 0
		for _, n := range door.of {
			if n >= 2 && n <= batches+1 {
				attempts++
			}
		}
		if n := len(trace.Named(obs.SpanIndexerBatch)); n != attempts || attempts <= batches {
			t.Errorf("%d indexer.batch spans, want one per attempt of the %d batches (%d)", n, batches, attempts)
		}
	})

	t.Run("yields to a queued foreground waiter", func(t *testing.T) {
		db := fdb.Open(nil)
		space, v2 := bgStore(t, db)
		gov := NewGovernor(nil, GovernorOptions{TotalConcurrent: 1})
		var mu sync.Mutex
		var order []string
		log := func(s string) {
			mu.Lock()
			order = append(order, s)
			mu.Unlock()
		}
		waitQueued := func(n int) {
			for {
				if _, waiting := gov.Inflight(); waiting >= n {
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
		fg := context.Background()
		const contested = 3 // the build's second batch
		door := &bgDoor{Door: NewRunner(db, RunnerOptions{Governor: gov})}
		door.before = func(n int) {
			if n != contested {
				return
			}
			// Fill the cluster, queue a foreground waiter, and free the slot
			// only once the batch's background admission is queued too.
			hold, err := gov.Admit(fg, "app")
			if err != nil {
				t.Error(err)
				return
			}
			go func() {
				release, err := gov.Admit(fg, "app")
				if err != nil {
					t.Error(err)
					return
				}
				log("foreground")
				release()
			}()
			waitQueued(1)
			go func() {
				waitQueued(2)
				hold()
			}()
		}
		door.attempt = func(n int) {
			if n == contested {
				log("batch")
			}
		}
		buildAndScrub(t, background(context.Background()), door, space, v2)
		if len(order) != 2 || order[0] != "foreground" || order[1] != "batch" {
			t.Fatalf("grant order %v, want the foreground waiter before the batch", order)
		}
		if u := gov.Accountant().Tenant(bgTenant).Snapshot(); u.Throttled == 0 {
			t.Errorf("no background admission waited: %+v", u)
		}
	})

	t.Run("waits out the rate quota", func(t *testing.T) {
		db := fdb.Open(nil)
		space, v2 := bgStore(t, db)
		clock := time.Unix(1000, 0)
		gov := NewGovernor(nil, GovernorOptions{Clock: func() time.Time { return clock }})
		gov.SetLimits(bgTenant, TenantLimits{TxnPerSecond: 10, Burst: 1})
		var sleeps []time.Duration
		r := NewRunner(db, RunnerOptions{Governor: gov, Sleep: func(_ context.Context, d time.Duration) error {
			sleeps = append(sleeps, d)
			clock = clock.Add(d)
			return nil
		}})
		door := &bgDoor{Door: r}
		buildAndScrub(t, background(context.Background()), door, space, v2)

		// The burst admits the first transaction; every later one finds the
		// bucket empty and waits exactly one token's 100 ms.
		if len(sleeps) != door.n-1 {
			t.Fatalf("%d quota waits for %d transactions, want %d", len(sleeps), door.n, door.n-1)
		}
		for i, d := range sleeps {
			if d != 100*time.Millisecond {
				t.Fatalf("wait %d = %v, want RetryAfter = 100ms", i, d)
			}
		}
		u := gov.Accountant().Tenant(bgTenant).Snapshot()
		if u.Rejected != int64(len(sleeps)) || u.Admitted != int64(door.n) {
			t.Errorf("usage %+v, want %d rejections and %d admissions", u, len(sleeps), door.n)
		}
		// A foreground caller over the same quota still fails fast.
		_, err := r.Run(WithTenant(context.Background(), bgTenant), func(context.Context, *fdb.Transaction) (interface{}, error) {
			return nil, nil
		})
		if !IsQuotaExceeded(err) {
			t.Errorf("foreground Run over quota = %v, want a quota error", err)
		}
	})
}
