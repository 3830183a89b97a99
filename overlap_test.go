package recordlayer

import (
	"context"
	"fmt"
	"testing"
	"time"

	"recordlayer/internal/directory"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyspace"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/query"
	"recordlayer/internal/tuple"
)

// TestPipelineDepthOverlapsLatency is the deterministic form of the PR's
// acceptance criterion: under a per-read latency model, an index-scan query
// at pipeline depth 8 waits for a fraction of the simulated I/O time the
// depth-1 execution waits for, with identical results. Runs on the virtual
// clock, so the assertion is exact window arithmetic, not wall-clock timing.
func TestPipelineDepthOverlapsLatency(t *testing.T) {
	const window = time.Millisecond
	_, md := testSchema(t)
	db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{PerRead: window, Virtual: true}})
	r := NewRunner(db, RunnerOptions{})
	p := testProvider(t, md)
	const n = 100
	saveDocs(t, r, p, 1, n) // 50 docs tagged "even"

	q := Query{RecordTypes: []string{"Doc"}, Filter: query.Field("tag").Equals("even")}
	run := func(depth int) (simWait int64, ids []interface{}) {
		_, err := r.ReadRun(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			store, err := p.Open(ctx, tr, int64(1))
			if err != nil {
				return nil, err
			}
			before := tr.Stats().SimWaitNanos
			cur, err := store.ExecuteQuery(ctx, q, ExecuteProperties{PipelineDepth: depth})
			if err != nil {
				return nil, err
			}
			recs, err := cur.ToList()
			if err != nil {
				return nil, err
			}
			for _, rec := range recs {
				id, _ := rec.Message.Get("id")
				ids = append(ids, id)
			}
			simWait = tr.Stats().SimWaitNanos - before
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return simWait, ids
	}
	seqWait, seqIDs := run(1)
	pipeWait, pipeIDs := run(8)
	if len(seqIDs) != n/2 || len(pipeIDs) != n/2 {
		t.Fatalf("results: depth1 %d, depth8 %d, want %d", len(seqIDs), len(pipeIDs), n/2)
	}
	for i := range seqIDs {
		if seqIDs[i] != pipeIDs[i] {
			t.Fatalf("result %d: depth1 %v, depth8 %v", i, seqIDs[i], pipeIDs[i])
		}
	}
	// Depth 1: one window per record fetch, plus the index batch. Depth 8
	// keeps 8 fetches in flight, so total wait shrinks by roughly the depth;
	// the acceptance bar is 2x, assert 4x to leave headroom while still
	// proving real overlap.
	if pipeWait >= seqWait/4 {
		t.Fatalf("depth8 waited %v vs depth1 %v: expected >= 4x reduction",
			time.Duration(pipeWait), time.Duration(seqWait))
	}
	if seqWait < int64(50)*int64(window) {
		t.Fatalf("depth1 waited %v, want at least one window per fetched record (%v)",
			time.Duration(seqWait), 50*window)
	}
}

// TestSaveRecordsFacade: the batched save path is reachable through the
// public Store handle and matches loop-of-SaveRecord results.
func TestSaveRecordsFacade(t *testing.T) {
	doc, md := testSchema(t)
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{})
	p := testProvider(t, md)
	_, err := r.Run(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := p.Open(ctx, tr, int64(1))
		if err != nil {
			return nil, err
		}
		var batch []*message.Message
		for i := 0; i < 10; i++ {
			batch = append(batch, message.New(doc).MustSet("id", int64(i)).MustSet("tag", "even"))
		}
		recs, err := store.SaveRecords(batch)
		if err != nil {
			return nil, err
		}
		if len(recs) != 10 {
			return nil, fmt.Errorf("SaveRecords returned %d records", len(recs))
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var got int
	_, err = r.ReadRun(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := p.Open(ctx, tr, int64(1))
		if err != nil {
			return nil, err
		}
		cur, err := store.ExecuteQuery(ctx, Query{RecordTypes: []string{"Doc"}}, ExecuteProperties{})
		if err != nil {
			return nil, err
		}
		recs, err := cur.ToList()
		if err != nil {
			return nil, err
		}
		got = len(recs)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("queried %d records after SaveRecords, want 10", got)
	}
}

// The prices of the open-cost tests below are the benchmark's (bench/env.go).
const (
	openGRV    = 300 * time.Microsecond
	openRead   = 500 * time.Microsecond
	openCommit = 2 * time.Millisecond
)

// openCostServer is one stateless server of the open-cost tests: a provider
// over tenant_fanout's path shape /app/container(interned)/user, with its own
// directory layer, so its two caches start cold.
func openCostServer(t *testing.T, md *metadata.MetaData) *StoreProvider {
	t.Helper()
	ks, err := keyspace.New(directory.NewLayer(),
		keyspace.NewConstant("app", "open-cost").Add(
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

// TestOpenCostsExactWindows pins what StoreProvider.Open costs in simulated
// time, as exact sums of the latency model's prices on the virtual clock.
func TestOpenCostsExactWindows(t *testing.T) {
	doc, md := testSchema(t)
	db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{
		PerRead: openRead, PerGRV: openGRV, PerCommit: openCommit, Virtual: true}})
	r := NewRunner(db, RunnerOptions{})
	ctx := context.Background()
	const container = "com.example.notes"

	// timed runs one transaction and returns its simulated duration.
	timed := func(commit bool, fn TransactFunc) time.Duration {
		t.Helper()
		run := r.ReadRun
		if commit {
			run = r.Run
		}
		t0 := db.LatencyNow()
		if _, err := run(ctx, fn); err != nil {
			t.Fatal(err)
		}
		return time.Duration(db.LatencyNow() - t0)
	}
	open := func(p *StoreProvider, user int64, then func(*Store) error) TransactFunc {
		return func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			s, err := p.Open(ctx, tr, container, user)
			if err != nil || then == nil {
				return nil, err
			}
			return nil, then(s)
		}
	}
	load := func(s *Store) error {
		rec, err := s.LoadRecordByKey(tuple.Tuple{int64(1)})
		if err == nil && rec == nil {
			err = fmt.Errorf("record 1 missing")
		}
		return err
	}
	update := func(s *Store) error {
		_, err := s.SaveRecord(message.New(doc).MustSet("id", int64(1)).MustSet("tag", "odd"))
		return err
	}
	expect := func(what string, got, want time.Duration) {
		t.Helper()
		if got != want {
			t.Errorf("%s took %v, want %v", what, got, want)
		}
	}

	// Two tenants exist, tenant 1 with a write-only index so that the state
	// range of a cold open is not empty.
	a := openCostServer(t, md)
	for _, user := range []int64{1, 2} {
		timed(true, open(a, user, update))
	}
	timed(true, open(a, 1, func(s *Store) error { return s.MarkIndexWriteOnly("by_tag") }))

	// Cold server, interned path: the directory read, then header ∥ states —
	// the header key is built from the interned id, so these two cannot share
	// a window; it is the caches that remove them.
	b := openCostServer(t, md)
	expect("cold open through an interned directory", timed(false, open(b, 1, nil)), openGRV+2*openRead)
	// Directory known, store not: header ∥ states is one window, with the
	// state key in it.
	expect("cold open, directory cached", timed(false, open(b, 2, nil)), openGRV+openRead)
	expect("warm open", timed(false, open(b, 1, nil)), openGRV)
	expect("warm point load", timed(false, open(b, 1, load)), openGRV+openRead)
	expect("warm one-record update", timed(true, open(b, 1, update)), openGRV+openRead+openCommit)

	// A bump anywhere — B changes tenant 2's user version — costs the next
	// open of every store on every server exactly one window, then nothing.
	timed(false, open(a, 1, nil)) // A is warm on both tenants
	timed(false, open(a, 2, nil))
	expect("warm open before the bump", timed(false, open(a, 1, nil)), openGRV)
	timed(true, open(b, 2, func(s *Store) error { return s.SetUserVersion(1) }))
	for _, srv := range []struct {
		name string
		p    *StoreProvider
	}{{"A", a}, {"B", b}} {
		for _, user := range []int64{1, 2} {
			what := fmt.Sprintf("server %s, tenant %d", srv.name, user)
			expect(what+": first open after the bump", timed(false, open(srv.p, user, nil)), openGRV+openRead)
			expect(what+": second open after the bump", timed(false, open(srv.p, user, nil)), openGRV)
		}
	}
}
