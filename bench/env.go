package main

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"recordlayer"
	"recordlayer/internal/directory"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyspace"
	"recordlayer/internal/metadata"
	"recordlayer/internal/subspace"
)

// The frozen latency model. These are constants, never flags: every number
// the benchmark reports in simulated time is priced by them, so changing one
// silently re-bases every latency metric of every earlier run.
const (
	latPerRead   = 500 * time.Microsecond
	latPerKB     = 2 * time.Microsecond
	latPerGRV    = 300 * time.Microsecond
	latPerCommit = 2 * time.Millisecond
)

// pinProcess fixes the two runtime settings the environment could otherwise
// change under the benchmark: one P, so the concurrent GC never runs on a
// second core where it competes with neighbours, and the default GC pacing.
func pinProcess() {
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(100)
}

// env is one simulated cluster with the façade objects a stateless server
// holds: a Runner and a StoreProvider. Every clock the library can read is
// derived from the simulator's virtual latency clock plus the injected
// backoff sleeps, so simulated time is a pure function of the seed.
type env struct {
	w        *workload
	db       *fdb.Database
	runner   *recordlayer.Runner
	provider *recordlayer.StoreProvider
	md       *metadata.MetaData
	ks       *keyspace.KeySpace
	gov      *recordlayer.Governor

	slept int64 // nanos of injected Runner backoff, part of simulated time
	ctx   context.Context

	// res collects the ids (or the single aggregate value) a read op
	// returned; the oracle compares it with the model's answer.
	res []int64

	tr *tracer // nil outside -trace runs
}

// now is the benchmark's simulated clock: the simulator's virtual latency
// clock plus every backoff the Runner slept through the injected Sleep.
func (e *env) now() int64 { return e.db.LatencyNow() + e.slept }

func (e *env) clock() time.Time { return time.Unix(0, e.now()) }

func newEnv(w *workload, seed int64) (*env, error) {
	e := &env{w: w, md: w.metaData(), ctx: context.Background()}
	e.db = fdb.Open(&fdb.Options{
		Clock: func() time.Time { return e.clock() },
		Latency: fdb.LatencyModel{
			PerRead: latPerRead, PerKB: latPerKB,
			PerGRV: latPerGRV, PerCommit: latPerCommit,
			Virtual: true,
		},
	})
	jitter := rand.New(rand.NewSource(seed ^ 0x6a09e667))
	opts := recordlayer.RunnerOptions{
		Rand: jitter.Float64,
		Sleep: func(_ context.Context, d time.Duration) error {
			e.slept += int64(d)
			return nil
		},
		Now: e.clock,
	}
	if w.governed {
		// Limits generous enough that nothing is ever rejected or queued,
		// but set, so the token buckets, refill and byte settlement all run.
		e.gov = recordlayer.NewGovernor(recordlayer.NewAccountant(), recordlayer.GovernorOptions{
			DefaultLimits: recordlayer.TenantLimits{
				TxnPerSecond: 1e6, BytesPerSecond: 1e12, MaxConcurrent: 8,
			},
			TotalConcurrent: 64,
			Clock:           e.clock,
		})
		opts.Governor = e.gov
	}
	e.runner = recordlayer.NewRunner(e.db, opts)

	var err error
	if w.interned {
		layer := directory.NewLayerAt(subspace.FromBytes([]byte{0xFE}), subspace.FromBytes(nil), 1)
		e.ks, err = keyspace.New(layer,
			keyspace.NewConstant("app", "bench").Add(
				keyspace.NewInterned("container").Add(
					keyspace.NewDirectory("user", keyspace.TypeInt64))))
	} else {
		e.ks, err = keyspace.New(nil,
			keyspace.NewConstant("app", "bench").Add(
				keyspace.NewDirectory("user", keyspace.TypeInt64)))
	}
	if err != nil {
		return nil, err
	}
	e.provider, err = recordlayer.NewStoreProvider(e.md, e.ks, w.template(),
		recordlayer.ProviderOptions{Planner: w.planner})
	return e, err
}

// containerName is the interned directory value of the tenant_fanout path.
const containerName = "com.example.notes"

// open opens tenant's store through the provider, the way every request of a
// stateless server does.
func (e *env) open(ctx context.Context, tr *fdb.Transaction, tenant int64) (*recordlayer.Store, error) {
	t0 := e.spanStart()
	st, err := e.openStore(ctx, tr, tenant)
	e.span(spanOpen, t0)
	return st, err
}

func (e *env) openStore(ctx context.Context, tr *fdb.Transaction, tenant int64) (*recordlayer.Store, error) {
	return e.provider.Open(ctx, tr, e.pathValues(tenant)...)
}

// pathValues is what the keyspace template's variable directories bind to
// for one tenant.
func (e *env) pathValues(tenant int64) []interface{} {
	if e.w.interned {
		return []interface{}{containerName, tenant}
	}
	return []interface{}{tenant}
}

// tenantCtx binds the tenant identity a governed Runner admits and meters by.
func (e *env) tenantCtx(tenant int64) context.Context {
	if !e.w.governed {
		return e.ctx
	}
	return recordlayer.WithTenant(e.ctx, "u"+strconv.FormatInt(tenant, 10))
}
