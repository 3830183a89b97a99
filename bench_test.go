package recordlayer_test

// One benchmark per experiment of cmd/experiments, plus microbenchmarks for
// the load-bearing substrates. The experiment benches call the same harness
// functions as cmd/experiments, so `go test -bench .` regenerates every
// table and figure's underlying measurement. The micro benches exercise the
// public recordlayer façade — Runner, StoreProvider, ExecuteQuery — the same
// surface every consumer uses.

import (
	"context"
	"flag"
	"fmt"
	"sync/atomic"
	"testing"

	"recordlayer"
	"recordlayer/internal/exp"
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

// ---------------------------------------------------------------- figures & tables

// BenchmarkFigure1StorePopulation regenerates Figure 1's store size
// distribution and reports its two headline fractions.
func BenchmarkFigure1StorePopulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := exp.RunFigure1(nil, 100_000)
		b.ReportMetric(res.FractionUnder1KB*100, "%stores<1kB")
		b.ReportMetric(res.BytesFractionOver1MB*100, "%bytes>1MB")
	}
}

// BenchmarkTable1ZoneConcurrency regenerates Table 1's measured rows.
func BenchmarkTable1ZoneConcurrency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunTable1(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.CassandraCASFailures), "cassandra-cas-fails")
		b.ReportMetric(float64(res.RecordLayerConflicts), "rl-conflicts")
	}
}

// BenchmarkTable2TextBunching regenerates Table 2's space measurement.
func BenchmarkTable2TextBunching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunTable2(nil, 60, []int{1, 20})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PerBunchSize[0].BytesPerDoc, "B/doc-unbunched")
		b.ReportMetric(res.PerBunchSize[1].BytesPerDoc, "B/doc-bunch20")
		b.ReportMetric(res.PerBunchSize[1].MeanBunch, "mean-bunch")
	}
}

// BenchmarkSection82Overheads regenerates the §8.2 key-overhead statistics.
func BenchmarkSection82Overheads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunOverheads(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.QueryKeysRead, "query-keys")
		b.ReportMetric(res.QueryOverheadFrac*100, "query-overhead-%")
		b.ReportMetric(res.SaveIndexPerRecord, "index-writes/record")
	}
}

// BenchmarkSection2TxnSizes regenerates the §2 transaction size percentiles.
func BenchmarkSection2TxnSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunTxnSizes(nil, 150)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MedianBytes, "p50-bytes")
		b.ReportMetric(res.P99Bytes, "p99-bytes")
	}
}

// BenchmarkFigure5RankLookup measures rank queries on the skip list after
// verifying the paper's worked example.
func BenchmarkFigure5RankLookup(b *testing.B) {
	res, err := exp.RunFigure5(nil)
	if err != nil {
		b.Fatal(err)
	}
	if res.RankOfE != 4 {
		b.Fatalf("rank(e) = %d", res.RankOfE)
	}
	env := benchStore(b, 2000)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		i := i
		_, err := env.runner.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			s, err := env.provider.Open(ctx, tr, benchTenant)
			if err != nil {
				return nil, err
			}
			_, _, err = s.Rank("by_score_rank", tuple.Tuple{int64(i % 2000)}, tuple.Tuple{"U", int64(i % 2000)})
			return nil, err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------- ablations

// BenchmarkAblationAtomicVsRMW regenerates ablation A1.
func BenchmarkAblationAtomicVsRMW(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunAtomicVsRMW(nil, 8, 25)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.AtomicConflicts), "atomic-conflicts")
		b.ReportMetric(float64(res.RMWConflicts), "rmw-conflicts")
	}
}

// BenchmarkAblationVersionCache regenerates ablation A2.
func BenchmarkAblationVersionCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunVersionCache(nil, 300)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.GRVWithoutCache), "grv-no-cache")
		b.ReportMetric(float64(res.GRVWithCache), "grv-cached")
	}
}

// BenchmarkAblationBunchSweep regenerates ablation A3.
func BenchmarkAblationBunchSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunTable2(nil, 40, []int{1, 2, 5, 10, 20, 50})
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range res.PerBunchSize {
			b.ReportMetric(m.BytesPerDoc, fmt.Sprintf("B/doc-bunch%d", m.BunchSize))
		}
	}
}

// BenchmarkAblationSyncIndex regenerates ablation A4.
func BenchmarkAblationSyncIndex(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunSyncAblation(nil, 6, 15)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.CounterCASFailures), "counter-cas-fails")
		b.ReportMetric(float64(res.VersionIndexConflicts), "version-index-conflicts")
	}
}

// ---------------------------------------------------------------- micro

// benchLatency prices every simulated read for the micro benchmarks:
// `go test -bench . -args -latency 100us` runs the same suite under a
// 100µs-per-read I/O model, where pipelining and read-ahead show up as
// wall-clock wins instead of pure bookkeeping overhead. Zero (the default)
// keeps reads instant.
var benchLatency = flag.Duration("latency", 0, "simulated per-read I/O latency for the micro benchmarks")

const benchTenant = int64(1)

type benchEnv struct {
	db       *fdb.Database
	runner   *recordlayer.Runner
	provider *recordlayer.StoreProvider
	user     *message.Descriptor
}

func benchSchema() (*message.Descriptor, *metadata.MetaData) {
	user := message.MustDescriptor("U",
		message.Field("id", 1, message.TypeInt64),
		message.Field("name", 2, message.TypeString),
		message.Field("score", 3, message.TypeInt64),
	)
	md := metadata.NewBuilder(1).
		AddRecordType(user, keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		AddIndex(&metadata.Index{Name: "by_name", Type: metadata.IndexValue,
			Expression: keyexpr.Field("name")}, "U").
		AddIndex(&metadata.Index{Name: "score_sum", Type: metadata.IndexSum,
			Expression: keyexpr.Ungrouped(keyexpr.Field("score"))}, "U").
		AddIndex(&metadata.Index{Name: "by_score_rank", Type: metadata.IndexRank,
			Expression: keyexpr.Field("score")}, "U").
		MustBuild()
	return user, md
}

func benchFacade(b *testing.B) benchEnv {
	b.Helper()
	user, md := benchSchema()
	ks, err := keyspace.New(nil,
		keyspace.NewConstant("bench", "bench").Add(
			keyspace.NewDirectory("user", keyspace.TypeInt64)))
	if err != nil {
		b.Fatal(err)
	}
	provider, err := recordlayer.NewStoreProvider(md, ks,
		[]string{"bench", "user"}, recordlayer.ProviderOptions{})
	if err != nil {
		b.Fatal(err)
	}
	db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{PerRead: *benchLatency}})
	return benchEnv{
		db:       db,
		runner:   recordlayer.NewRunner(db, recordlayer.RunnerOptions{}),
		provider: provider,
		user:     user,
	}
}

func benchStore(b *testing.B, n int) benchEnv {
	b.Helper()
	env := benchFacade(b)
	ctx := context.Background()
	const batch = 200
	for lo := 0; lo < n; lo += batch {
		lo := lo
		_, err := env.runner.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			s, err := env.provider.Open(ctx, tr, benchTenant)
			if err != nil {
				return nil, err
			}
			for i := lo; i < lo+batch && i < n; i++ {
				rec := message.New(env.user).
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
			b.Fatal(err)
		}
	}
	return env
}

// BenchmarkSaveRecords compares saving N=50 records per transaction with a
// loop of SaveRecord (N sequential old-record loads) against the batched
// SaveRecords path (all N loads issued as concurrent futures). Under
// `-latency 100us` the batch's simwait-ns/op is sub-linear in N — the
// write-path acceptance criterion. The schema keeps to value+sum indexes so
// the old-record loads are the only read I/O in the loop.
func BenchmarkSaveRecords(b *testing.B) {
	const n = 50
	env := func(b *testing.B) benchEnv {
		b.Helper()
		user := message.MustDescriptor("U",
			message.Field("id", 1, message.TypeInt64),
			message.Field("name", 2, message.TypeString),
			message.Field("score", 3, message.TypeInt64),
		)
		md := metadata.NewBuilder(1).
			AddRecordType(user, keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
			AddIndex(&metadata.Index{Name: "by_name", Type: metadata.IndexValue,
				Expression: keyexpr.Field("name")}, "U").
			AddIndex(&metadata.Index{Name: "score_sum", Type: metadata.IndexSum,
				Expression: keyexpr.Ungrouped(keyexpr.Field("score"))}, "U").
			MustBuild()
		ks, err := keyspace.New(nil,
			keyspace.NewConstant("bench", "bench").Add(
				keyspace.NewDirectory("user", keyspace.TypeInt64)))
		if err != nil {
			b.Fatal(err)
		}
		provider, err := recordlayer.NewStoreProvider(md, ks,
			[]string{"bench", "user"}, recordlayer.ProviderOptions{})
		if err != nil {
			b.Fatal(err)
		}
		db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{PerRead: *benchLatency}})
		return benchEnv{db: db, runner: recordlayer.NewRunner(db, recordlayer.RunnerOptions{}),
			provider: provider, user: user}
	}
	run := func(b *testing.B, batch bool) {
		env := env(b)
		ctx := context.Background()
		msgs := make([]*message.Message, n)
		waitBefore := env.db.Metrics().SimWaitNanos.Load()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, err := env.runner.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
				s, err := env.provider.Open(ctx, tr, benchTenant)
				if err != nil {
					return nil, err
				}
				for j := range msgs {
					msgs[j] = message.New(env.user).
						MustSet("id", int64(j)).
						MustSet("name", fmt.Sprintf("user-%06d", j)).
						MustSet("score", int64(j))
				}
				if batch {
					_, err = s.SaveRecords(msgs)
					return nil, err
				}
				for _, m := range msgs {
					if _, err := s.SaveRecord(m); err != nil {
						return nil, err
					}
				}
				return nil, nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(env.db.Metrics().SimWaitNanos.Load()-waitBefore)/float64(b.N), "simwait-ns/op")
	}
	b.Run("loop50", func(b *testing.B) { run(b, false) })
	b.Run("batch50", func(b *testing.B) { run(b, true) })
}

// BenchmarkIndexHeavySave compares a loop of SaveRecord against the batched
// SaveRecords path over an index-heavy schema — value (uniqueness probes),
// rank (skip-list descent), and text (token bunch reads) — so index
// maintenance, not the old-record load, dominates the read I/O. Under
// `-latency 100us` the batch issues every record's probe reads through the
// two-phase maintainers before awaiting any of them, so simwait-ns/op is the
// acceptance metric: batch50 must sit >=3x below loop50. At zero latency the
// batch runs the same pipeline with futures that resolve at once.
func BenchmarkIndexHeavySave(b *testing.B) {
	const n = 50
	env := func(b *testing.B) benchEnv {
		b.Helper()
		user := message.MustDescriptor("U",
			message.Field("id", 1, message.TypeInt64),
			message.Field("name", 2, message.TypeString),
			message.Field("score", 3, message.TypeInt64),
			message.Field("bio", 4, message.TypeString),
		)
		md := metadata.NewBuilder(1).
			AddRecordType(user, keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
			AddIndex(&metadata.Index{Name: "by_name", Type: metadata.IndexValue,
				Expression: keyexpr.Field("name")}, "U").
			AddIndex(&metadata.Index{Name: "by_score_rank", Type: metadata.IndexRank,
				Expression: keyexpr.Field("score")}, "U").
			AddIndex(&metadata.Index{Name: "bio_text", Type: metadata.IndexText,
				Expression: keyexpr.Field("bio")}, "U").
			MustBuild()
		ks, err := keyspace.New(nil,
			keyspace.NewConstant("bench", "bench").Add(
				keyspace.NewDirectory("user", keyspace.TypeInt64)))
		if err != nil {
			b.Fatal(err)
		}
		provider, err := recordlayer.NewStoreProvider(md, ks,
			[]string{"bench", "user"}, recordlayer.ProviderOptions{})
		if err != nil {
			b.Fatal(err)
		}
		db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{PerRead: *benchLatency}})
		return benchEnv{db: db, runner: recordlayer.NewRunner(db, recordlayer.RunnerOptions{}),
			provider: provider, user: user}
	}
	run := func(b *testing.B, batch bool) {
		env := env(b)
		ctx := context.Background()
		msgs := make([]*message.Message, n)
		waitBefore := env.db.Metrics().SimWaitNanos.Load()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, err := env.runner.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
				s, err := env.provider.Open(ctx, tr, benchTenant)
				if err != nil {
					return nil, err
				}
				for j := range msgs {
					// Fresh ids per iteration: every save is an insert, so the
					// probe reads (old-record load, uniqueness, rank floor,
					// text bunch) dominate and the batch can overlap them.
					id := int64(i)*n + int64(j)
					msgs[j] = message.New(env.user).
						MustSet("id", id).
						MustSet("name", fmt.Sprintf("user-%06d", id)).
						MustSet("score", id).
						MustSet("bio", fmt.Sprintf("alpha beta gamma delta run%d member%d", i, j))
				}
				if batch {
					_, err = s.SaveRecords(msgs)
					return nil, err
				}
				for _, m := range msgs {
					if _, err := s.SaveRecord(m); err != nil {
						return nil, err
					}
				}
				return nil, nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(env.db.Metrics().SimWaitNanos.Load()-waitBefore)/float64(b.N), "simwait-ns/op")
	}
	b.Run("loop50", func(b *testing.B) { run(b, false) })
	b.Run("batch50", func(b *testing.B) { run(b, true) })
}

// BenchmarkMergeQuery measures 2-way union and intersection plans end to end.
// The merge cursors prefetch every drained child before peeking any of them,
// so each merge step waits one shared latency window instead of one per
// child; simwait-ns/op under `-latency 100us` is the acceptance metric
// (>=1.5x below the pre-prefetch serial drain).
func BenchmarkMergeQuery(b *testing.B) {
	user := message.MustDescriptor("U",
		message.Field("id", 1, message.TypeInt64),
		message.Field("team", 2, message.TypeString),
		message.Field("parity", 3, message.TypeString),
	)
	md := metadata.NewBuilder(1).
		AddRecordType(user, keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		AddIndex(&metadata.Index{Name: "by_team", Type: metadata.IndexValue,
			Expression: keyexpr.Field("team")}, "U").
		AddIndex(&metadata.Index{Name: "by_parity", Type: metadata.IndexValue,
			Expression: keyexpr.Field("parity")}, "U").
		MustBuild()
	ks, err := keyspace.New(nil,
		keyspace.NewConstant("bench", "bench").Add(
			keyspace.NewDirectory("user", keyspace.TypeInt64)))
	if err != nil {
		b.Fatal(err)
	}
	provider, err := recordlayer.NewStoreProvider(md, ks,
		[]string{"bench", "user"}, recordlayer.ProviderOptions{
			Planner: plan.Config{PreferIndexIntersection: true}})
	if err != nil {
		b.Fatal(err)
	}
	db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{PerRead: *benchLatency}})
	env := benchEnv{db: db, runner: recordlayer.NewRunner(db, recordlayer.RunnerOptions{}),
		provider: provider, user: user}
	ctx := context.Background()
	const rows = 1000
	_, err = env.runner.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := env.provider.Open(ctx, tr, benchTenant)
		if err != nil {
			return nil, err
		}
		for i := 0; i < rows; i++ {
			rec := message.New(user).
				MustSet("id", int64(i)).
				MustSet("team", fmt.Sprintf("t%02d", i%20)).
				MustSet("parity", fmt.Sprintf("p%d", i%2))
			if _, err := s.SaveRecord(rec); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		q    recordlayer.Query
		want int
	}{
		{"union2", recordlayer.Query{RecordTypes: []string{"U"},
			Filter: query.Or(
				query.Field("team").Equals("t01"),
				query.Field("team").Equals("t02"),
			)}, 100},
		{"intersection2", recordlayer.Query{RecordTypes: []string{"U"},
			Filter: query.And(
				query.Field("team").Equals("t01"),
				query.Field("parity").Equals("p1"),
			)}, 50},
	} {
		b.Run(bc.name, func(b *testing.B) {
			waitBefore := env.db.Metrics().SimWaitNanos.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := env.runner.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
					s, err := env.provider.Open(ctx, tr, benchTenant)
					if err != nil {
						return nil, err
					}
					cur, err := s.ExecuteQuery(ctx, bc.q, recordlayer.ExecuteProperties{})
					if err != nil {
						return nil, err
					}
					recs, err := cur.ToList()
					if err != nil {
						return nil, err
					}
					if len(recs) != bc.want {
						return nil, fmt.Errorf("%s returned %d, want %d", bc.name, len(recs), bc.want)
					}
					return nil, nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(env.db.Metrics().SimWaitNanos.Load()-waitBefore)/float64(b.N), "simwait-ns/op")
		})
	}
}

// BenchmarkIndexScan measures a 50-entry index range scan plus fetches, at
// fetch pipeline depth 1 (sequential) and the default depth 8. At zero
// latency the two must be within ~10% — the async pipeline runs on the
// consumer's goroutine with no worker bookkeeping. Under `-latency 100us`
// the record fetches are issued as overlapping futures, so depth 8 runs the
// scan in ~1/depth the simulated I/O time of depth 1 (the simwait-ns/op
// metric isolates the waiting from the CPU work).
func BenchmarkIndexScan(b *testing.B) {
	env := benchStore(b, 1000)
	ctx := context.Background()
	q := recordlayer.Query{
		RecordTypes: []string{"U"},
		Filter: query.And(
			query.Field("name").GreaterOrEqual("user-000100"),
			query.Field("name").LessThan("user-000150"),
		),
		Sort: keyexpr.Field("name"),
	}
	for _, bc := range []struct {
		name  string
		depth int
	}{
		{"depth1", 1},
		{"depth8", 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			props := recordlayer.ExecuteProperties{PipelineDepth: bc.depth}
			readsBefore := env.db.Metrics().KeysRead.Load()
			waitBefore := env.db.Metrics().SimWaitNanos.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := env.runner.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
					s, err := env.provider.Open(ctx, tr, benchTenant)
					if err != nil {
						return nil, err
					}
					cur, err := s.ExecuteQuery(ctx, q, props)
					if err != nil {
						return nil, err
					}
					recs, err := cur.ToList()
					if err != nil {
						return nil, err
					}
					if len(recs) != 50 {
						return nil, fmt.Errorf("scan returned %d", len(recs))
					}
					return nil, nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(env.db.Metrics().KeysRead.Load()-readsBefore)/float64(b.N), "simreads/op")
			b.ReportMetric(float64(env.db.Metrics().SimWaitNanos.Load()-waitBefore)/float64(b.N), "simwait-ns/op")
		})
	}
}

// BenchmarkPlannedQuery measures execution of an indexed query through
// ExecuteQuery, with planning amortized by the provider's plan cache. The
// fetch variant reads every record behind its index entries; the covering
// variant projects fields the by_name index reconstructs by itself, so the
// record subspace is never touched — simreads/op drops by the record fan-in
// (the acceptance metric for the covering read path).
func BenchmarkPlannedQuery(b *testing.B) {
	env := benchStore(b, 1000)
	ctx := context.Background()
	base := recordlayer.Query{RecordTypes: []string{"U"},
		Filter: query.Field("name").BeginsWith("user-0002")}
	var shapes int64
	for _, bc := range []struct {
		name string
		q    recordlayer.Query
	}{
		{"fetch", base},
		{"covering", base.Select("name", "id")},
	} {
		ran := false // -bench may select only some shapes
		b.Run(bc.name, func(b *testing.B) {
			ran = true
			readsBefore := env.db.Metrics().KeysRead.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := env.runner.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
					s, err := env.provider.Open(ctx, tr, benchTenant)
					if err != nil {
						return nil, err
					}
					cur, err := s.ExecuteQuery(ctx, bc.q, recordlayer.ExecuteProperties{})
					if err != nil {
						return nil, err
					}
					recs, err := cur.ToList()
					if err != nil {
						return nil, err
					}
					if len(recs) != 100 {
						return nil, fmt.Errorf("query returned %d", len(recs))
					}
					return nil, nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(env.db.Metrics().KeysRead.Load()-readsBefore)/float64(b.N), "simreads/op")
		})
		if ran {
			shapes++
		}
	}
	if st := env.provider.PlanCacheStats(); st.Misses != shapes {
		b.Fatalf("plan cache misses = %d, want %d (one per query shape run)", st.Misses, shapes)
	}
}

// BenchmarkIndexScanRaw measures the same 50-entry scan via the raw store
// API (no planner), isolating the query layer's overhead.
func BenchmarkIndexScanRaw(b *testing.B) {
	env := benchStore(b, 1000)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := env.runner.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			s, err := env.provider.Open(ctx, tr, benchTenant)
			if err != nil {
				return nil, err
			}
			c, err := s.ScanIndex("by_name", index.TupleRange{
				Low: tuple.Tuple{"user-000100"}, LowInclusive: true,
				High: tuple.Tuple{"user-000150"}, HighInclusive: false,
			}, index.ScanOptions{})
			if err != nil {
				return nil, err
			}
			n := 0
			fetched := s.FetchIndexedPipelined(c, false, 1)
			for {
				r, err := fetched.Next()
				if err != nil {
					return nil, err
				}
				if !r.OK {
					break
				}
				n++
			}
			if n != 50 {
				return nil, fmt.Errorf("scan returned %d", n)
			}
			return nil, nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------- governance

// BenchmarkMultiTenant measures what tenant resource governance costs on the
// single-tenant hot path — the acceptance bar is <10% per-op overhead for
// governed (tenant-bound context, accountant metering every layer, governor
// admission with generous limits) versus ungoverned runs of the same save
// loop. The /parallel variants run tenants concurrently to exercise the
// admission path under contention.
func BenchmarkMultiTenant(b *testing.B) {
	save := func(env benchEnv, ctx context.Context, i int) error {
		_, err := env.runner.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			s, err := env.provider.Open(ctx, tr, benchTenant)
			if err != nil {
				return nil, err
			}
			rec := message.New(env.user).
				MustSet("id", int64(i)).
				MustSet("name", fmt.Sprintf("user-%06d", i)).
				MustSet("score", int64(i))
			_, err = s.SaveRecord(rec)
			return nil, err
		})
		return err
	}
	governedEnv := func(b *testing.B) (benchEnv, context.Context) {
		b.Helper()
		env := benchFacade(b)
		gov := recordlayer.NewGovernor(nil, recordlayer.GovernorOptions{})
		gov.SetLimits("bench-tenant", recordlayer.TenantLimits{MaxConcurrent: 1 << 20})
		env.runner = recordlayer.NewRunner(env.db, recordlayer.RunnerOptions{Governor: gov})
		return env, recordlayer.WithTenant(context.Background(), "bench-tenant")
	}

	b.Run("ungoverned", func(b *testing.B) {
		env := benchFacade(b)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := save(env, ctx, i); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("governed", func(b *testing.B) {
		env, ctx := governedEnv(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := save(env, ctx, i); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("governed-parallel", func(b *testing.B) {
		env, ctx := governedEnv(b)
		var next atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := save(env, ctx, int(next.Add(1))); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
