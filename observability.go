package recordlayer

import (
	"context"
	"sort"

	"recordlayer/internal/core"
	"recordlayer/internal/fdb"
	"recordlayer/internal/obs"
)

// Observability facade: transaction traces, the pull-based metrics registry,
// and the slow-query log, re-exported from internal/obs and wired to the
// layer's components. Everything here is off by default and costs one nil
// check per instrumentation site when disabled; see doc.go "Observability".

// Trace collects the spans of one transaction's execution: admission
// queueing, GRV, each read window (issue vs await, so pipelining overlap is
// visible), per-index maintenance, commit, retry attempts and backoff.
// Attach one to a context with WithTrace before Runner.Run; a nil *Trace is
// inert, so call sites need no guards.
type Trace = obs.Trace

// NewTrace creates an empty trace.
func NewTrace() *Trace { return obs.NewTrace() }

// WithTrace attaches a trace to the context; the Runner propagates it into
// every transaction attempt, and the fdb and store layers below record into
// it.
func WithTrace(ctx context.Context, t *Trace) context.Context { return obs.WithTrace(ctx, t) }

// TraceFromContext returns the trace attached by WithTrace, or nil (a usable
// no-op).
func TraceFromContext(ctx context.Context) *Trace { return obs.FromContext(ctx) }

// MetricsRegistry is a pull-based registry of counters, gauges, and
// histograms: collectors run at scrape time, so exported values are always
// the live state of whatever they read (an Accountant snapshot, a governor's
// queue depth) with no background aggregation thread.
type MetricsRegistry = obs.Registry

// MetricSample is one collected value with its labels.
type MetricSample = obs.Sample

// MetricLabel is one name/value label pair on a sample.
type MetricLabel = obs.Label

// NewMetricsRegistry creates an empty registry; register the layer's
// components with the Register* functions, then serve or dump
// MetricsRegistry.WriteProm.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// SlowQueryLog captures structured summaries of query executions over their
// threshold and the latency distribution of every execution; install one via
// ProviderOptions.SlowQueries.
type SlowQueryLog = obs.SlowQueryLog

// SlowQuery is one captured slow execution.
type SlowQuery = obs.SlowQuery

// NewSlowQueryLog creates a log retaining at most max slow entries (default
// 128 when max <= 0).
func NewSlowQueryLog(max int) *SlowQueryLog { return obs.NewSlowQueryLog(max) }

// RegisterDatabaseMetrics exports db's cumulative counters: transactions,
// commits, conflicts, retries, GRVs, keys/bytes read and written, and total
// simulated read-latency wait.
func RegisterDatabaseMetrics(r *MetricsRegistry, db *fdb.Database) {
	m := db.Metrics()
	counter := func(name, help string, c *fdb.Counter) {
		r.Counter(name, help, func() []MetricSample { return obs.Single(float64(c.Load())) })
	}
	counter("fdb_transactions_started_total", "Transactions created against the database.", &m.TransactionsStarted)
	counter("fdb_commits_total", "Successful commits.", &m.Commits)
	counter("fdb_conflicts_total", "Commits aborted by the conflict resolver.", &m.Conflicts)
	counter("fdb_retries_total", "Transaction resets after retryable errors.", &m.Retries)
	counter("fdb_grv_total", "Read-version (GRV) acquisitions.", &m.GRVCalls)
	counter("fdb_keys_read_total", "Key-value pairs read.", &m.KeysRead)
	counter("fdb_bytes_read_total", "Key+value bytes read.", &m.BytesRead)
	counter("fdb_keys_written_total", "Keys mutated at commit.", &m.KeysWritten)
	counter("fdb_bytes_written_total", "Mutation bytes committed.", &m.BytesWritten)
	r.Counter("fdb_simwait_seconds_total", "Total time spent awaiting simulated read latency.",
		func() []MetricSample { return obs.Single(float64(m.SimWaitNanos.Load()) / 1e9) })
}

// RegisterRunnerMetrics exports a runner's retry-loop counters, including
// the per-cause retry and failure breakdowns (cause label: conflict, too_old,
// future_version, timeout, quota, maybe_committed, canceled, other) that make
// chaos runs attributable.
func RegisterRunnerMetrics(r *MetricsRegistry, run *Runner) {
	r.Counter("runner_runs_total", "Completed successful executions.",
		func() []MetricSample { return obs.Single(float64(run.Metrics().Runs)) })
	r.Counter("runner_retries_total", "Re-executions after retryable errors.",
		func() []MetricSample { return obs.Single(float64(run.Metrics().Retries)) })
	r.Counter("runner_failures_total", "Executions that returned an error.",
		func() []MetricSample { return obs.Single(float64(run.Metrics().Failures)) })
	r.Counter("runner_retries_by_cause_total", "Re-executions broken down by classified cause.",
		func() []MetricSample { return causeSamples(run.Metrics().RetriesByCause) })
	r.Counter("runner_failures_by_cause_total", "Caller-visible failures broken down by classified cause.",
		func() []MetricSample { return causeSamples(run.Metrics().FailuresByCause) })
}

// causeSamples renders a cause-count map as labeled samples in sorted cause
// order, so scrapes are deterministic.
func causeSamples(m map[string]int64) []MetricSample {
	causes := make([]string, 0, len(m))
	for c := range m {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	out := make([]MetricSample, 0, len(causes))
	for _, c := range causes {
		out = append(out, MetricSample{Labels: []MetricLabel{{Key: "cause", Value: c}}, Value: float64(m[c])})
	}
	return out
}

// tenantSamples collects one float per tenant usage row.
func tenantSamples(acct *Accountant, f func(TenantUsage) float64) []MetricSample {
	usages := acct.Snapshot()
	out := make([]MetricSample, 0, len(usages))
	for _, u := range usages {
		out = append(out, MetricSample{Labels: []MetricLabel{{Key: "tenant", Value: u.Tenant}}, Value: f(u)})
	}
	return out
}

// RegisterGovernorMetrics exports admission control: cluster in-flight and
// queue-depth gauges, per-tenant admission outcome counters (from the
// governor's accountant), and the lease-derived rate limits currently held.
func RegisterGovernorMetrics(r *MetricsRegistry, gov *Governor) {
	r.Gauge("governor_inflight", "Admitted, in-flight transactions.", func() []MetricSample {
		admitted, _ := gov.Inflight()
		return obs.Single(float64(admitted))
	})
	r.Gauge("governor_queue_depth", "Admissions waiting for capacity.", func() []MetricSample {
		_, waiting := gov.Inflight()
		return obs.Single(float64(waiting))
	})
	acct := gov.Accountant()
	r.Counter("governor_admissions_total", "Admissions granted, per tenant.", func() []MetricSample {
		return tenantSamples(acct, func(u TenantUsage) float64 { return float64(u.Admitted) })
	})
	r.Counter("governor_rejections_total", "Admissions rejected over quota, per tenant.", func() []MetricSample {
		return tenantSamples(acct, func(u TenantUsage) float64 { return float64(u.Rejected) })
	})
	r.Counter("governor_throttled_total", "Admissions that waited for capacity, per tenant.", func() []MetricSample {
		return tenantSamples(acct, func(u TenantUsage) float64 { return float64(u.Throttled) })
	})
	leaseGauge := func(name, help string, f func(TenantLimits) float64) {
		r.Gauge(name, help, func() []MetricSample {
			leases := gov.Leases()
			out := make([]MetricSample, 0, len(leases))
			for tenant, l := range leases {
				out = append(out, MetricSample{Labels: []MetricLabel{{Key: "tenant", Value: tenant}}, Value: f(l)})
			}
			return out
		})
	}
	leaseGauge("governor_lease_txn_per_second", "Leased slice of a tenant's global transaction rate.",
		func(l TenantLimits) float64 { return l.TxnPerSecond })
	leaseGauge("governor_lease_bytes_per_second", "Leased slice of a tenant's global byte rate.",
		func(l TenantLimits) float64 { return l.BytesPerSecond })
}

// RegisterAccountantMetrics exports per-tenant consumption: reads, writes,
// transactions, cumulative transaction latency, and conflicts. Collectors
// read acct.Snapshot() at scrape time, so exported values reconcile exactly
// with the live accountant.
func RegisterAccountantMetrics(r *MetricsRegistry, acct *Accountant) {
	counter := func(name, help string, f func(TenantUsage) float64) {
		r.Counter(name, help, func() []MetricSample { return tenantSamples(acct, f) })
	}
	counter("tenant_read_records_total", "Key-value pairs read on the tenant's behalf.",
		func(u TenantUsage) float64 { return float64(u.ReadRecords) })
	counter("tenant_read_bytes_total", "Key+value bytes read on the tenant's behalf.",
		func(u TenantUsage) float64 { return float64(u.ReadBytes) })
	counter("tenant_write_records_total", "Pairs written or cleared for the tenant.",
		func(u TenantUsage) float64 { return float64(u.WriteRecords) })
	counter("tenant_write_bytes_total", "Bytes written for the tenant.",
		func(u TenantUsage) float64 { return float64(u.WriteBytes) })
	counter("tenant_transactions_total", "Successful runner executions for the tenant.",
		func(u TenantUsage) float64 { return float64(u.Transactions) })
	counter("tenant_txn_seconds_total", "Cumulative transaction latency, including queue wait and retries.",
		func(u TenantUsage) float64 { return u.TxnTime.Seconds() })
	counter("tenant_conflicts_total", "Transaction attempts aborted by the resolver.",
		func(u TenantUsage) float64 { return float64(u.Conflicts) })
}

// RegisterMetrics exports the provider's metrics: what Open found in its two
// caches (store state, interned directory names), plan cache effectiveness
// and, when a SlowQueries log is installed, the slow-query counter and the
// full query-latency histogram.
func (p *StoreProvider) RegisterMetrics(r *MetricsRegistry) {
	r.Counter("store_state_cache_hits_total", "Store opens answered from the state cache (no read).",
		func() []MetricSample { return obs.Single(float64(p.states.Stats().Hits)) })
	r.Counter("store_state_cache_misses_total", "Store opens that read the header and index states.",
		func() []MetricSample { return obs.Single(float64(p.states.Stats().Misses)) })
	r.Counter("store_state_cache_invalidations_total", "Misses that found an entry older than the metadata version.",
		func() []MetricSample { return obs.Single(float64(p.states.Stats().Invalidations)) })
	r.Counter("directory_cache_hits_total", "Interned directory values resolved from the name cache.",
		func() []MetricSample { hits, _ := p.ks.DirectoryCacheStats(); return obs.Single(float64(hits)) })
	r.Counter("directory_cache_misses_total", "Interned directory values resolved by reading the directory layer.",
		func() []MetricSample { _, misses := p.ks.DirectoryCacheStats(); return obs.Single(float64(misses)) })
	r.Counter("plan_cache_hits_total", "Queries answered from the plan cache.",
		func() []MetricSample { return obs.Single(float64(p.plans.Stats().Hits)) })
	r.Counter("plan_cache_misses_total", "Queries that required planning.",
		func() []MetricSample { return obs.Single(float64(p.plans.Stats().Misses)) })
	r.Counter("plan_cache_evictions_total", "Plans evicted by the LRU bound.",
		func() []MetricSample { return obs.Single(float64(p.plans.Stats().Evictions)) })
	r.Gauge("plan_cache_size", "Plans currently cached.",
		func() []MetricSample { return obs.Single(float64(p.plans.Stats().Size)) })
	if log := p.opts.SlowQueries; log != nil {
		r.Counter("slow_queries_total", "Query executions over their slow threshold.",
			func() []MetricSample { return obs.Single(float64(log.SlowTotal())) })
		r.Histogram("query_duration_seconds", "Latency of every query execution.", log.DurationHistogram())
	}
}

// StateCacheStats reports what Open found in the provider's store-state
// cache.
func (p *StoreProvider) StateCacheStats() core.StateCacheStats { return p.states.Stats() }

// PlanCacheEntries lists the provider's cached plans, most recently used
// first (the `rl plans` command prints it).
func (p *StoreProvider) PlanCacheEntries() []PlanCacheEntry { return p.plans.Entries() }

// KeyDescription says where a key lies in a provider's stores.
type KeyDescription struct {
	// Tenant is the keyspace path of the store the key is in, rendered as
	// keyspace.Path renders one; "" when the key lies under no path of the
	// provider's template.
	Tenant string
	// Subspace names what the key holds in that store (core.KeyClass):
	// "records", "index <name>", "header", "index state <name>" or "build
	// progress <name>"; "store" for the store's own prefix, where a range
	// over the whole store starts; "" when the store's layout has no place
	// for it.
	Subspace string
}

// String renders the description for a log line or a test failure.
func (d KeyDescription) String() string {
	switch {
	case d.Tenant == "":
		return "outside every store"
	case d.Subspace == "":
		return d.Tenant + " (unknown subspace)"
	}
	return d.Tenant + " " + d.Subspace
}

// DescribeKey says which tenant's store key is in and what it holds there —
// the answer to "which key was that conflict on". It splits the tenant path
// off with the provider's keyspace template, naming an interned element only
// when the directory layer's cache knows it, and reads nothing.
func (p *StoreProvider) DescribeKey(key []byte) KeyDescription {
	path, rest, ok := p.ks.SplitKey(p.template, key)
	if !ok {
		return KeyDescription{}
	}
	return KeyDescription{Tenant: path, Subspace: core.KeyClass(rest)}
}
