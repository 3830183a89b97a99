package recordlayer

import (
	"context"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"recordlayer/internal/cursor"
	"recordlayer/internal/directory"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/keyspace"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/plan"
	"recordlayer/internal/query"
	"recordlayer/internal/tuple"
)

// fetchEven is a shape that still pipelines its record fetches:
// FetchIndexedPipelined over a scan of by_tag's "even" entries, at depth. (A
// planned bare index scan reads its records with its entries, and has nothing
// to pipeline.)
func fetchEven(s *Store, depth int) ([]*Record, error) {
	entries, err := s.ScanIndex("by_tag", index.TupleRange{Low: tuple.Tuple{"even"}, LowInclusive: true,
		High: tuple.Tuple{"even"}, HighInclusive: true}, index.ScanOptions{})
	if err != nil {
		return nil, err
	}
	recs, _, _, err := cursor.Collect(s.FetchIndexedPipelined(entries, false, depth))
	return recs, err
}

// TestPipelineDepthOverlapsLatency is the deterministic form of the
// pipelining acceptance criterion: under a per-read latency model, an index
// scan's record fetches at pipeline depth 8 wait for a fraction of the
// simulated I/O time the depth-1 fetches wait for, with identical results.
// Runs on the virtual clock, so the assertion is exact window arithmetic, not
// wall-clock timing.
func TestPipelineDepthOverlapsLatency(t *testing.T) {
	const window = time.Millisecond
	_, md := testSchema(t)
	db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{PerRead: window, Virtual: true}})
	r := NewRunner(db, RunnerOptions{})
	p := testProvider(t, md)
	const n = 100
	saveDocs(t, r, p, 1, n) // 50 docs tagged "even"

	run := func(depth int) (simWait int64, ids []interface{}) {
		_, err := r.ReadRun(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			store, err := p.Open(ctx, tr, int64(1))
			if err != nil {
				return nil, err
			}
			before := tr.Stats().SimWaitNanos
			recs, err := fetchEven(store, depth)
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

	// The creating transaction's commit caches the header it wrote, so a new
	// tenant's first open is warm — unless that transaction also changed an
	// index state, and so bumped and cached nothing.
	timed(true, open(a, 3, update))
	expect("first open after the creating commit", timed(false, open(a, 3, nil)), openGRV)
	timed(true, open(a, 4, func(s *Store) error { return s.MarkIndexWriteOnly("by_tag") }))
	expect("first open after a creating commit that bumped", timed(false, open(a, 4, nil)), openGRV+openRead)
}

// limitSchema is testSchema plus an unindexed field for residual filters.
func limitSchema() (*message.Descriptor, *metadata.MetaData) {
	doc := message.MustDescriptor("Doc",
		message.Field("id", 1, message.TypeInt64),
		message.Field("tag", 2, message.TypeString),
		message.Field("size", 3, message.TypeInt64),
	)
	md := metadata.NewBuilder(1).
		AddRecordType(doc, keyexpr.Field("id")).
		AddIndex(&metadata.Index{Name: "by_tag", Type: metadata.IndexValue,
			Expression: keyexpr.Then(keyexpr.Field("tag"), keyexpr.Field("id"))}, "Doc").
		MustBuild()
	return doc, md
}

// TestLimitCostsExactWindows pins what a limit costs, in read windows on the
// virtual clock and in keys read: RowLimit and ScanRecordLimit size the range
// reads and the fetch window under them (doc.go "What a fetch costs"), a
// residual filter stops that, and no result or continuation moves. Every
// record here is one pair plus its version slot.
func TestLimitCostsExactWindows(t *testing.T) {
	doc, md := limitSchema()
	db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{
		PerRead: openRead, PerGRV: openGRV, PerCommit: openCommit, Virtual: true}})
	r := NewRunner(db, RunnerOptions{})
	p := testProvider(t, md)
	ctx := context.Background()
	const entries = 130 // docs tagged "even": ids 0, 2, … 258
	_, err := r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := p.Open(ctx, tr, int64(1))
		if err != nil {
			return nil, err
		}
		for i := int64(0); i < 2*entries; i++ {
			tag := "even"
			if i%2 == 1 {
				tag = "odd"
			}
			if _, err := s.SaveRecord(message.New(doc).MustSet("id", i).MustSet("tag", tag).MustSet("size", i)); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// page is one warm read transaction draining q under props.
	type page struct {
		ids    []int64
		conts  [][]byte // continuation after each row
		cont   []byte   // continuation at the halt
		reason string
		took   time.Duration
		keys   int
	}
	run := func(q Query, props ExecuteProperties) page {
		t.Helper()
		var pg page
		t0 := db.LatencyNow()
		_, err := r.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			s, err := p.Open(ctx, tr, int64(1))
			if err != nil {
				return nil, err
			}
			cur, err := s.ExecuteQuery(ctx, q, props)
			if err != nil {
				return nil, err
			}
			pg = page{}
			for {
				rec, ok, err := cur.Next()
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
				id, _ := rec.Message.Get("id")
				pg.ids = append(pg.ids, id.(int64))
				pg.conts = append(pg.conts, cur.Continuation())
			}
			pg.cont, pg.reason, pg.keys = cur.Continuation(), cur.NoNextReason().String(), tr.Stats().KeysRead
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		pg.took = time.Duration(db.LatencyNow() - t0)
		return pg
	}
	expect := func(what string, pg page, took time.Duration, keys int) {
		t.Helper()
		if pg.took != took || pg.keys != keys {
			t.Errorf("%s: took %v and read %d keys, want %v and %d", what, pg.took, pg.keys, took, keys)
		}
	}
	sameIDs := func(what string, got, want []int64) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: ids %v, want %v", what, got, want)
		}
	}

	even := Query{RecordTypes: []string{"Doc"}, Filter: query.Field("tag").Equals("even")}
	// The reference is the unlimited drain: the first 128 entries with their
	// records in one window, the last two, read ahead as the first batch
	// landed, in the next. (Re-priced from openGRV+openRead+(entries+127)/128*
	// openRead, 1.8 ms, when the records were fetched a window behind their
	// entries; before that (entries+7)/8 fetch windows, 9.3 ms.) It also warms
	// the provider's caches.
	run(even, ExecuteProperties{})
	all := run(even, ExecuteProperties{})
	if len(all.ids) != entries {
		t.Fatalf("unlimited drain returned %d rows, want %d", len(all.ids), entries)
	}
	expect("unlimited drain", all, openGRV+2*openRead, 3*entries)

	// A page of n rows: n entries and their n records in one window.
	// (Re-priced from openGRV+2*openRead: the records came in the next.)
	props := ExecuteProperties{RowLimit: 25}
	for pageNo := 0; pageNo < 4; pageNo++ {
		what := fmt.Sprintf("page %d of 25 rows", pageNo+1)
		pg := run(even, props)
		expect(what, pg, openGRV+openRead, 25+25*2)
		lo, hi := 25*pageNo, 25*(pageNo+1)
		sameIDs(what, pg.ids, all.ids[lo:hi])
		if string(pg.cont) != string(all.conts[hi-1]) || pg.reason != "return-limit-reached" {
			t.Errorf("%s: halted %s at %x, want the unlimited drain's continuation after row %d, %x",
				what, pg.reason, pg.cont, hi, all.conts[hi-1])
		}
		props = props.WithContinuation(pg.cont)
	}

	// Skipped rows are scanned and fetched like delivered ones. (Re-priced from
	// openGRV+2*openRead.)
	skip := run(even, ExecuteProperties{Skip: 10, RowLimit: 25})
	expect("skip 10, limit 25", skip, openGRV+openRead, 35+35*2)
	sameIDs("skip 10, limit 25", skip.ids, all.ids[10:35])

	// A record-limited scan reads its budget, the record that exceeds it and
	// the pair that ends that record, in one window; the filter above the
	// scan does not matter, because the limit is counted below it.
	big := Query{RecordTypes: []string{"Doc"}, Filter: query.Field("size").GreaterOrEqual(int64(100))}
	full := run(big, ExecuteProperties{ScanRecordLimit: 200})
	expect("full scan under ScanRecordLimit 200", full, openGRV+openRead, 2*201+1)
	if len(full.ids) != 100 || full.reason != "scan-limit-reached" {
		t.Errorf("full scan under ScanRecordLimit 200: %d rows, %s", len(full.ids), full.reason)
	}

	// A residual filter stops the demand: how many entries 25 survivors cost
	// is not known, so the index range is read in default batches, each with
	// its records: 128 entries and records in one window, of which the 75th
	// ends the page — the first 50 fail the filter — and the last two,
	// read ahead as the first batch landed and never awaited. (Re-priced from
	// openGRV+2*openRead and entries+128*2 keys, 1.3 ms and 386 keys: the
	// records came a window behind their entries, and only the first batch's
	// were fetched; the read-ahead batch now reads its two records too. Before
	// that (75+7)/8 windows and (75+7)*2 record keys, 5.8 ms and 294 keys.)
	filtered := run(Query{RecordTypes: []string{"Doc"}, Filter: query.And(
		query.Field("tag").Equals("even"), query.Field("size").GreaterOrEqual(int64(100)))},
		ExecuteProperties{RowLimit: 25})
	expect("residual filter under RowLimit 25", filtered, openGRV+openRead, entries+entries*2)
	sameIDs("residual filter under RowLimit 25", filtered.ids, all.ids[50:75])

	// A bare index scan has nothing to pipeline: PipelineDepth 1 costs what
	// the default depth does. (Re-priced from openGRV+openRead+25*openRead,
	// 13.3 ms, one fetch per round trip behind the entries.)
	seq := run(even, ExecuteProperties{RowLimit: 25, PipelineDepth: 1})
	expect("RowLimit 25 at PipelineDepth 1", seq, openGRV+openRead, 25+25*2)
	sameIDs("RowLimit 25 at PipelineDepth 1", seq.ids, all.ids[:25])

	// EXPLAIN ANALYZE pages through the whole range 25 rows at a time; the
	// index node scans one entry per row it emits, over six pages.
	_, err = r.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := p.Open(ctx, tr, int64(1))
		if err != nil {
			return nil, err
		}
		out, err := s.ExplainQuery(ctx, even, ExecuteProperties{RowLimit: 25})
		if err != nil {
			return nil, err
		}
		want := fmt.Sprintf("[pages=6 in=%d out=%d simreads=%d ", entries, entries, 3*entries)
		if !strings.Contains(out, want) {
			t.Errorf("ExplainQuery under RowLimit 25: want an index node with %q, got\n%s", want, out)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// fetchCostStore is the store of the fetch-cost tests, on the prices and the
// virtual clock of TestLimitCostsExactWindows and, as there, with a pair and a
// version slot per record: two disjoint tags of 20, u1 wholly before u2 in
// primary-key order; a tag of 40 whose last 20 are the only red records; a tag
// of 300. Its planner intersects index scans.
func fetchCostStore(t *testing.T) (*fdb.Database, *Runner, *StoreProvider) {
	t.Helper()
	doc := message.MustDescriptor("Doc",
		message.Field("id", 1, message.TypeInt64),
		message.Field("tag", 2, message.TypeString),
		message.Field("color", 3, message.TypeString),
	)
	md := metadata.NewBuilder(1).
		AddRecordType(doc, keyexpr.Field("id")).
		AddIndex(&metadata.Index{Name: "by_tag", Type: metadata.IndexValue, Expression: keyexpr.Field("tag")}, "Doc").
		AddIndex(&metadata.Index{Name: "by_color", Type: metadata.IndexValue, Expression: keyexpr.Field("color")}, "Doc").
		MustBuild()
	ks, err := keyspace.New(nil, keyspace.NewConstant("app", "fetch-cost").Add(
		keyspace.NewDirectory("user", keyspace.TypeInt64)))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewStoreProvider(md, ks, []string{"app", "user"},
		ProviderOptions{Planner: plan.Config{PreferIndexIntersection: true}})
	if err != nil {
		t.Fatal(err)
	}
	db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{
		PerRead: openRead, PerGRV: openGRV, PerCommit: openCommit, Virtual: true}})
	r := NewRunner(db, RunnerOptions{})
	_, err = r.Run(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := p.Open(ctx, tr, int64(1))
		if err != nil {
			return nil, err
		}
		save := func(from, n int64, tag, color string) {
			for id := from; id < from+n && err == nil; id++ {
				_, err = s.SaveRecord(message.New(doc).MustSet("id", id).MustSet("tag", tag).MustSet("color", color))
			}
		}
		save(0, 20, "u1", "blue")
		save(20, 20, "u2", "blue")
		save(100, 20, "t40", "green")
		save(120, 20, "t40", "red")
		save(1000, 300, "big", "grey")
		return nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, r, p
}

// The queries of the fetch-cost tests: an OR of two index scans, an AND of
// two, and one scan of 300 entries.
var (
	fetchCostEither = Query{RecordTypes: []string{"Doc"}, Filter: query.Or(
		query.Field("tag").Equals("u1"), query.Field("tag").Equals("u2"))}
	fetchCostBoth = Query{RecordTypes: []string{"Doc"}, Filter: query.And(
		query.Field("tag").Equals("t40"), query.Field("color").Equals("red"))}
	fetchCostBig = Query{RecordTypes: []string{"Doc"}, Filter: query.Field("tag").Equals("big")}
	// A range is not primary-key ordered, so this OR chains its children.
	fetchCostAny = Query{RecordTypes: []string{"Doc"}, Filter: query.Or(
		query.Field("tag").Equals("u1"), query.Field("color").GreaterOrEqual("red"))}
)

// TestFetchCostsExactWindows pins what a record fetch costs where no limit
// sizes it (doc.go "What a fetch costs"): union and intersection merge index
// entries and fetch once above the merge, the fetch window follows entries the
// scan has already delivered, a union hands a RowLimit down to its children,
// and PipelineDepth 1 still fetches one record per round trip.
func TestFetchCostsExactWindows(t *testing.T) {
	db, r, p := fetchCostStore(t)
	ctx := context.Background()
	either, both, big := fetchCostEither, fetchCostBoth, fetchCostBig

	// timed is one warm read transaction: its simulated duration, the keys it
	// read and the ids fn returned.
	timed := func(fn func(context.Context, *Store) ([]*Record, error)) (time.Duration, int, []int64) {
		t.Helper()
		var keys int
		var ids []int64
		t0 := db.LatencyNow()
		_, err := r.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			s, err := p.Open(ctx, tr, int64(1))
			if err != nil {
				return nil, err
			}
			recs, err := fn(ctx, s)
			ids = nil
			for _, rec := range recs {
				id, _ := rec.Message.Get("id")
				ids = append(ids, id.(int64))
			}
			keys = tr.Stats().KeysRead
			return nil, err
		})
		if err != nil {
			t.Fatal(err)
		}
		return time.Duration(db.LatencyNow() - t0), keys, ids
	}
	planned := func(q Query, shape string, props ExecuteProperties) func(context.Context, *Store) ([]*Record, error) {
		return func(ctx context.Context, s *Store) ([]*Record, error) {
			if pl, err := s.Plan(q); err != nil || !strings.HasPrefix(pl.String(), shape) {
				return nil, fmt.Errorf("planned %v (%v), want a %s plan", pl, err, shape)
			}
			cur, err := s.ExecuteQuery(ctx, q, props)
			if err != nil {
				return nil, err
			}
			return cur.ToList()
		}
	}
	syncPage := func(depth int) func(context.Context, *Store) ([]*Record, error) {
		return func(_ context.Context, s *Store) ([]*Record, error) {
			entries, err := s.ScanIndex("by_tag", index.TupleRange{Low: tuple.Tuple{"big"}, LowInclusive: true,
				High: tuple.Tuple{"big"}, HighInclusive: true}, index.ScanOptions{Reverse: true})
			if err != nil {
				return nil, err
			}
			recs, _, _, err := cursor.Collect(s.FetchIndexedPipelined(cursor.Limit(entries, 20), false, depth))
			return recs, err
		}
	}
	timed(planned(either, "Union(", ExecuteProperties{})) // warms the provider's caches

	one := ExecuteProperties{PipelineDepth: 1}
	for _, tc := range []struct {
		what string
		fn   func(context.Context, *Store) ([]*Record, error)
		took time.Duration
		keys int
		rows int
	}{
		// Both index ranges in one window, the 40 records in the next.
		{"2 x 20-row union", planned(either, "Union(", ExecuteProperties{}), openGRV + 2*openRead, 40 + 40*2, 40},
		// 60 entries, then only the 20 records in both (fetching under the
		// merge read all 60: 180 keys).
		{"20 of 40 intersection", planned(both, "Intersection(", ExecuteProperties{}), openGRV + 2*openRead, 60 + 20*2, 20},
		// The limit is under the fetch, so nothing sizes the fetch window; it
		// follows the 20 entries the limited scan delivered.
		{"fetch over Limit(entries, 20)", syncPage(DefaultPipelineDepth), openGRV + 2*openRead, 20 + 20*2, 20},
		// RowLimit 10 reaches both children as a demand for 11 entries: ten
		// rows and a look-ahead, one batch each and never a second.
		{"RowLimit 10 over the union", planned(either, "Union(", ExecuteProperties{RowLimit: 10}), openGRV + 2*openRead, 2*11 + 10*2, 10},
		// The unordered OR chains its scans (cursor.Concat) and fetches above
		// them: each child's index window, then the fetches of the 20 entries
		// it holds, all at once. (When Concat reported no Ready the fetches
		// went out PipelineDepth at a time: openGRV + 7*openRead, 3.8 ms.)
		{"unordered OR of 2 x 20", planned(fetchCostAny, "UnorderedUnion(", ExecuteProperties{}), openGRV + 4*openRead, 40 + 40*2, 40},
		// PipelineDepth 1 is one fetch per round trip, whatever is in hand.
		{"union at PipelineDepth 1", planned(either, "Union(", one), openGRV + openRead + 40*openRead, 40 + 40*2, 40},
		{"intersection at PipelineDepth 1", planned(both, "Intersection(", one), openGRV + openRead + 20*openRead, 60 + 20*2, 20},
		{"fetch over Limit(entries, 20) at depth 1", syncPage(1), openGRV + openRead + 20*openRead, 20 + 20*2, 20},
		// A bare index scan reads each batch's records with its entries, so
		// PipelineDepth does not apply: 128 entries and records, then the 172
		// read ahead as the first batch landed. (Re-priced from openGRV +
		// openRead + 300*openRead, 150.8 ms, one fetch per round trip.)
		{"300 entries at PipelineDepth 1", planned(big, "Index(", one), openGRV + 2*openRead, 300 + 300*2, 300},
		{"300 entries", planned(big, "Index(", ExecuteProperties{}), openGRV + 2*openRead, 300 + 300*2, 300},
	} {
		took, keys, ids := timed(tc.fn)
		if took != tc.took || keys != tc.keys || len(ids) != tc.rows {
			t.Errorf("%s: %d rows in %v reading %d keys, want %d in %v reading %d",
				tc.what, len(ids), took, keys, tc.rows, tc.took, tc.keys)
		}
	}
}

// TestExplainQueryMergeNodesAddUp: with the fetch above the merge, EXPLAIN
// ANALYZE stays a partition of what the transaction did. The children of a
// union or an intersection report the entries they scanned and their index
// reads, the merge node the fetches, and over all nodes keys, bytes and
// simulated wait sum to the transaction's — in one drain, and accumulated over
// the pages of a RowLimit as TestExplainQueryAccumulatesPages has it for one
// scan.
func TestExplainQueryMergeNodesAddUp(t *testing.T) {
	_, r, p := fetchCostStore(t)
	ctx := context.Background()
	sum := func(out, field string) (total time.Duration) {
		t.Helper()
		for _, m := range regexp.MustCompile(" "+field+`=(\S+?)[\]\s]`).FindAllStringSubmatch(out, -1) {
			d, err := time.ParseDuration(m[1])
			if n, nerr := strconv.Atoi(m[1]); nerr == nil {
				d, err = time.Duration(n), nil
			}
			if err != nil {
				t.Fatalf("%s=%s in:\n%s", field, m[1], out)
			}
			total += d
		}
		return total
	}
	for _, tc := range []struct {
		what  string
		q     Query
		props ExecuteProperties
		nodes []string // each node's line, up to its I/O
		reads time.Duration
	}{
		{"union", fetchCostEither, ExecuteProperties{}, []string{
			"Union  [pages=1 out=40 simreads=80 ",
			`  Index(by_tag [("u1") - ("u1")])  [pages=1 in=20 out=20 simreads=20 `,
			`  Index(by_tag [("u2") - ("u2")])  [pages=1 in=20 out=20 simreads=20 `}, 120},
		{"intersection", fetchCostBoth, ExecuteProperties{}, []string{
			"Intersection  [pages=1 out=20 simreads=40 ",
			`  Index(by_tag [("t40") - ("t40")])  [pages=1 in=40 out=40 simreads=40 `,
			`  Index(by_color [("red") - ("red")])  [pages=1 in=20 out=20 simreads=20 `}, 100},
		// Six pages of at most seven rows. On each, a child that is not done
		// reads the eight entries the union asks for, from where the page
		// before left it: u1 reads 8 + 8 + 6, and u2 its first eight on each
		// of the three pages that only look at its head, then 8 + 8 + 5.
		{"union under RowLimit 7", fetchCostEither, ExecuteProperties{RowLimit: 7}, []string{
			"Union  [pages=6 out=40 simreads=80 ",
			`  Index(by_tag [("u1") - ("u1")])  [pages=3 in=20 out=20 simreads=22 `,
			`  Index(by_tag [("u2") - ("u2")])  [pages=6 in=22 out=22 simreads=45 `}, 147},
	} {
		res, err := r.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			s, err := p.Open(ctx, tr, int64(1))
			if err != nil {
				return nil, err
			}
			return s.ExplainQuery(ctx, tc.q, tc.props)
		})
		if err != nil {
			t.Fatal(err)
		}
		out := res.(string)
		for _, node := range tc.nodes {
			if !strings.Contains(out, node) {
				t.Errorf("%s: no node %q in:\n%s", tc.what, node, out)
			}
		}
		txn := out[strings.LastIndex(out, "txn: "):]
		for _, pair := range [][2]string{{"simreads", "keys_read"}, {"simbytes", "bytes_read"}, {"simwait", "simwait"}} {
			nodes, whole := sum(out[:len(out)-len(txn)], pair[0]), sum(txn, pair[1])
			if nodes != whole || whole == 0 {
				t.Errorf("%s: the nodes' %s sum to %d, the transaction's %s is %d, in:\n%s",
					tc.what, pair[0], nodes, pair[1], whole, out)
			}
		}
		if got := sum(txn, "keys_read"); got != tc.reads {
			t.Errorf("%s: read %d keys, want %d", tc.what, got, tc.reads)
		}
	}
}

// TestRankAndTextCostExactWindows pins what RANK and TEXT maintenance and
// reads cost in simulated time (doc.go "What a RANK or TEXT index costs"),
// with the prices and virtual clock of TestOpenCostsExactWindows: a save is
// the old-record load plus one probe window shared by every maintainer —
// nothing sets the skip list up first — and a rank or text read costs its
// dependency depth. None of the members written here is promoted above
// level 0; the 1 in 16 that is pays a third window for its finger-split sum.
func TestRankAndTextCostExactWindows(t *testing.T) {
	doc := message.MustDescriptor("Doc",
		message.Field("id", 1, message.TypeInt64),
		message.Field("tag", 2, message.TypeString),
		message.Field("score", 3, message.TypeInt64),
		message.Field("body", 4, message.TypeString),
	)
	md := metadata.NewBuilder(1).
		AddRecordType(doc, keyexpr.Field("id")).
		AddIndex(&metadata.Index{Name: "by_tag", Type: metadata.IndexValue,
			Expression: keyexpr.Then(keyexpr.Field("tag"), keyexpr.Field("id"))}, "Doc").
		AddIndex(&metadata.Index{Name: "by_score", Type: metadata.IndexRank,
			Expression: keyexpr.Field("score")}, "Doc").
		AddIndex(&metadata.Index{Name: "body_text", Type: metadata.IndexText,
			Expression: keyexpr.Field("body")}, "Doc").
		MustBuild()
	db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{
		PerRead: openRead, PerGRV: openGRV, PerCommit: openCommit, Virtual: true}})
	r := NewRunner(db, RunnerOptions{})
	p := testProvider(t, md)
	ctx := context.Background()

	// timed runs one transaction on the warm provider and returns its
	// simulated duration and the keys it read.
	timed := func(commit bool, fn func(*Store) error) (time.Duration, int) {
		t.Helper()
		run := r.ReadRun
		if commit {
			run = r.Run
		}
		var keys int
		t0 := db.LatencyNow()
		_, err := run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			s, err := p.Open(ctx, tr, int64(1))
			if err == nil && fn != nil {
				err = fn(s)
			}
			keys = tr.Stats().KeysRead
			return nil, err
		})
		if err != nil {
			t.Fatal(err)
		}
		return time.Duration(db.LatencyNow() - t0), keys
	}
	expect := func(what string, got, want time.Duration) {
		t.Helper()
		if got != want {
			t.Errorf("%s took %v, want %v", what, got, want)
		}
	}
	rec := func(id, score int64) *message.Message {
		return message.New(doc).MustSet("id", id).MustSet("tag", fmt.Sprintf("t%d", score%7)).
			MustSet("score", score).MustSet("body", fmt.Sprintf("w%d the quick brown fox w%d", id%5, score%11))
	}
	save := func(msgs ...*message.Message) func(*Store) error {
		return func(s *Store) error {
			if len(msgs) == 1 {
				_, err := s.SaveRecord(msgs[0])
				return err
			}
			_, err := s.SaveRecords(msgs)
			return err
		}
	}
	rankOf := func(what string, score, want int64) func(*Store) error {
		return func(s *Store) error {
			got, err := s.RankOfValue("by_score", tuple.Tuple{score})
			if err == nil && got != want {
				err = fmt.Errorf("%s: RankOfValue(%d) = %d, want %d", what, score, got, want)
			}
			return err
		}
	}

	timed(true, nil)  // creates the store
	timed(false, nil) // caches its state
	took, _ := timed(false, nil)
	expect("warm open", took, openGRV)

	// Nothing has written the RANK index: no level has a head, and that is
	// an empty set, not an error.
	took, keys := timed(false, rankOf("never-written index", 50, 0))
	expect("RankOfValue on a never-written index", took, openGRV+2*openRead)
	if keys != 0 {
		t.Errorf("RankOfValue on a never-written index read %d keys, want 0", keys)
	}

	// The store's first save creates the heads inside its one probe window.
	took, _ = timed(true, save(rec(1, 100)))
	expect("first save into an empty store", took, openGRV+2*openRead+openCommit)
	timed(false, rankOf("after the first save", 100, 0))
	timed(false, rankOf("after the first save", 101, 1))

	var batch []*message.Message
	for id := int64(2); id <= 200; id++ {
		batch = append(batch, rec(id, 100*id))
	}
	timed(true, save(batch...))

	// Every indexed field of the rewritten records changes.
	took, _ = timed(true, save(rec(7, 705)))
	expect("SaveRecord of an existing record", took, openGRV+2*openRead+openCommit)
	took, _ = timed(true, save(rec(11, 1105), rec(12, 1205), rec(201, 20100), rec(13, 1305)))
	expect("SaveRecords of 4", took, openGRV+2*openRead+openCommit)
	// A delete's index maintenance resolves at the next store call or at
	// commit, so each delete's load window also covers the previous one's
	// probes: three loads, then the last delete's probes.
	took, _ = timed(true, func(s *Store) error {
		for _, id := range []int64{20, 21, 22} {
			if ok, err := s.DeleteRecord(tuple.Tuple{id}); err != nil || !ok {
				return fmt.Errorf("delete %d: %v, %v", id, ok, err)
			}
		}
		return nil
	})
	expect("three DeleteRecords", took, openGRV+4*openRead+openCommit)

	// 198 records remain; 146 of them score below 15000. The two-window read
	// fetches what the six-window level-by-level descent it replaced fetched
	// here, 17 pairs: per level, the entries from the level above's floor to
	// its own.
	const rankOfValueKeys = 17
	took, keys = timed(false, rankOf("198 records", 15000, 146))
	expect("RankOfValue", took, openGRV+2*openRead)
	if keys != rankOfValueKeys {
		t.Errorf("RankOfValue read %d keys, want %d", keys, rankOfValueKeys)
	}
	took, _ = timed(false, func(s *Store) error {
		e, ok, err := s.ByRank("by_score", 146)
		if err == nil && (!ok || fmt.Sprint(e.PrimaryKey()) != fmt.Sprint(tuple.Tuple{int64(150)})) {
			err = fmt.Errorf("ByRank(146) = %v, %v; want record 150", e.PrimaryKey(), ok)
		}
		return err
	})
	if took > openGRV+7*openRead {
		t.Errorf("ByRank took %v, want at most GRV + one window per level + one", took)
	}

	// k tokens are k range reads in one window.
	took, _ = timed(false, func(s *Store) error {
		pks, err := s.TextSearchAll("body_text", []string{"w3", "fox", "w5"}, 0)
		if err == nil && len(pks) == 0 {
			err = fmt.Errorf("TextSearchAll found nothing")
		}
		return err
	})
	expect("TextSearchAll of 3 tokens", took, openGRV+openRead)
	took, _ = timed(false, func(s *Store) error {
		pks, err := s.TextSearchPhrase("body_text", "quick brown fox")
		if err == nil && len(pks) != 198 {
			err = fmt.Errorf("TextSearchPhrase found %d records, want 198", len(pks))
		}
		return err
	})
	expect("TextSearchPhrase of 3 words", took, openGRV+openRead)
}
