package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"recordlayer"
	"recordlayer/internal/core"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/keyspace"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
)

// NoisyConfig sizes the noisy-neighbor experiment: Victims well-behaved
// tenants issuing small steady transactions share a cluster with one
// aggressor hammering large writes. Phases run on fresh clusters — the
// victims alone (baseline), victims plus aggressor ungoverned, and then under
// successive governance mechanisms: a txn-rate quota, a byte-rate quota,
// quotas persisted in a LimitsStore and loaded by two independent Governors
// (two "stateless servers"), quota leases splitting the aggressor's *global*
// budget across three lease-coordinated governors, and a background online
// index build yielding to foreground traffic — so the experiment isolates
// what each mechanism buys (§1, §5: fair multi-tenancy).
type NoisyConfig struct {
	// Phase is how long each phase runs (default 500ms).
	Phase time.Duration
	// IndexRecords pre-populates the background-index phase's bulk store
	// (default 1200).
	IndexRecords int
	// Seed shapes the record payloads.
	Seed int64
}

func (c NoisyConfig) withDefaults() NoisyConfig {
	if c.Phase <= 0 {
		c.Phase = 500 * time.Millisecond
	}
	if c.IndexRecords <= 0 {
		c.IndexRecords = 1200
	}
	return c
}

// The tenants and the aggressor's quotas.
const (
	// Victims is the number of well-behaved tenants.
	Victims = 4
	// AggressorWorkers is the aggressor's write concurrency.
	AggressorWorkers = 8
	// AggressorRate is the governed aggressor's quota in txn/s, and
	// AggressorBurst its token-bucket depth.
	AggressorRate  float64 = 40
	AggressorBurst         = 4
	// AggressorByteRate is the byte-hog phase's quota in bytes/s, and
	// AggressorByteBurst its byte bucket depth.
	AggressorByteRate  float64 = 256 << 10
	AggressorByteBurst int64   = 64 << 10
)

// TenantResult is one tenant's outcome in one phase.
type TenantResult struct {
	Tenant     string
	Txns       int
	Bytes      int64 // read+write bytes the Accountant charged the tenant
	Rejections int64
	Throughput float64 // successful txn/s
	P50, P95   time.Duration
}

// NoisyPhase is one phase's outcome.
type NoisyPhase struct {
	Name      string
	Tenants   []TenantResult // victims first (sorted), aggressor last if present
	VictimP50 time.Duration  // pooled victim latency median
	VictimP95 time.Duration
	Elapsed   time.Duration // measured wall time of the phase's worker loops
	Indexed   int           // records the background index build processed
	// Bulk is what the bulk tenant was billed during the phase's loops: the
	// background index build's transactions, admissions and bytes, since the
	// build runs through the phase's Runner under that tenant.
	Bulk recordlayer.TenantUsage
	// IO is the phase's database-level I/O delta (fdb Snapshot/Delta over the
	// worker loops): what the whole phase — victims, aggressor, index build —
	// cost the cluster, independent of per-tenant accounting.
	IO fdb.MetricsSnapshot
}

// NoisyStats is the whole experiment's outcome.
type NoisyStats struct {
	Config      NoisyConfig
	Baseline    NoisyPhase // victims only
	Ungoverned  NoisyPhase // + aggressor, no governor
	Governed    NoisyPhase // + aggressor, txn-rate quota caps it
	ByteHog     NoisyPhase // + aggressor, byte-rate quota caps it
	Persisted   NoisyPhase // + aggressor, quotas via LimitsStore into 2 governors
	Distributed NoisyPhase // + aggressor across 3 governors sharing quota leases
	BgIndex     NoisyPhase // victims + background online index build

	// AggressorCap is the maximum admissions the governed aggressor's
	// txn-rate quota allows in one phase (burst + rate·phase).
	AggressorCap float64
	// ByteBudget is the byte-hog phase's drainable budget over its measured
	// elapsed time (byte burst + byte rate·elapsed).
	ByteBudget int64
	// ByteCapped reports the aggressor's accounted bytes stayed near
	// ByteBudget (within slack for post-hoc debt and metering overshoot).
	ByteCapped bool
	// SharedLimitsConsistent reports both store-fed governors saw identical
	// non-zero limits for the aggressor with no in-process SetLimits call.
	SharedLimitsConsistent bool
	// Isolated reports the txn-governed victims' p50 stayed within 2x of
	// their aggressor-free baseline.
	Isolated bool

	// DistributedCap is the maximum admissions the aggressor's *global* txn
	// quota allows in the distributed phase: the global burst (plus one
	// token of rounding per server's scaled slice burst) plus rate·elapsed.
	// Because the lease slices never sum past the global rate, three
	// governors together cannot admit more than this — the whole point of
	// the phase.
	DistributedCap float64
	// DistributedByteBudget is the distributed phase's drainable global byte
	// budget (byte burst + byte rate·elapsed).
	DistributedByteBudget int64
	// DistributedByteCapped reports the aggressor's accounted bytes across
	// all three servers stayed within the global byte budget's bound.
	DistributedByteCapped bool
	// LeaseSliceSumOK reports every mid-phase sample of the lease table kept
	// sum(slices) <= the global limit for both resources.
	LeaseSliceSumOK bool
	// ExportConsistent reports the metering report (per-tenant rows exported
	// by all three servers) exactly matched the live Accountant snapshots.
	ExportConsistent bool
}

// aggressor tenant ID; victims are "victim-0".."victim-N".
const aggressorTenant = "aggressor"

// bulkTenant owns the store the background index build walks.
const bulkTenant = "bulk"

// The workload shapes. byteCapBound derives the smoke gate's pass/fail line
// from these, so tuning the aggressor cannot silently skew the CI gate.
const (
	victimRecsPerTxn    = 3
	victimRecSize       = 200
	aggressorRecsPerTxn = 12
	aggressorRecSize    = 4096
	// byteQuotaConcurrency is the byte-hog aggressor's MaxConcurrent: each
	// in-flight transaction admitted while the bucket was still positive
	// can overshoot the budget by one transaction's bytes.
	byteQuotaConcurrency = 2
	// writeAmplification pads one transaction's payload bytes up to what
	// a transaction is actually billed (record chunks, versions, keys).
	writeAmplification = 3
	// distServers is how many lease-coordinated governors the distributed
	// phase spreads the aggressor across.
	distServers = 3
	// distMaxBackoff caps a distributed-phase worker's quota backoff: a cold
	// server's lease slice starts near zero, and sleeping out a RetryAfter
	// computed from that starvation-level rate would idle the worker past
	// the very rebalance that grows the slice.
	distMaxBackoff = 20 * time.Millisecond
)

// RunNoisyNeighbor runs every phase and evaluates the isolation criteria.
func RunNoisyNeighbor(ctx context.Context, cfg NoisyConfig) (NoisyStats, error) {
	cfg = cfg.withDefaults()
	stats := NoisyStats{Config: cfg, AggressorCap: AggressorBurst + AggressorRate*cfg.Phase.Seconds()}
	fleet := &leaseFleet{phase: cfg.Phase, sliceOK: true}
	phases := []struct {
		out  *NoisyPhase
		spec phaseSpec
	}{
		{&stats.Baseline, phaseSpec{name: "baseline"}},
		{&stats.Ungoverned, phaseSpec{name: "ungoverned", aggressor: true}},
		{&stats.Governed, phaseSpec{name: "governed", aggressor: true,
			limit: setLimits(recordlayer.TenantLimits{
				TxnPerSecond: AggressorRate, Burst: AggressorBurst, MaxConcurrent: 1})}},
		{&stats.ByteHog, phaseSpec{name: "byte-hog", aggressor: true,
			limit: setLimits(recordlayer.TenantLimits{
				BytesPerSecond: AggressorByteRate, ByteBurst: AggressorByteBurst,
				MaxConcurrent: byteQuotaConcurrency})}},
		// Split across 2 servers: the same total cap.
		{&stats.Persisted, phaseSpec{name: "persisted", servers: 2, aggressor: true,
			limit: loadLimits(recordlayer.TenantLimits{
				TxnPerSecond: AggressorRate / 2, Burst: (AggressorBurst + 1) / 2, MaxConcurrent: 1},
				&stats.SharedLimitsConsistent)}},
		{&stats.Distributed, phaseSpec{name: "distributed", servers: distServers, aggressor: true,
			limit: fleet.claim, alongside: fleet.heartbeat, maxBackoff: distMaxBackoff}},
		{&stats.BgIndex, phaseSpec{name: "bg-index", bulk: true}},
	}
	for _, p := range phases {
		phase, err := runPhase(ctx, cfg, p.spec)
		if err != nil {
			return stats, err
		}
		*p.out = phase
	}
	stats.LeaseSliceSumOK = fleet.sliceOK
	var err error
	if stats.ExportConsistent, err = fleet.exported(ctx); err != nil {
		return stats, err
	}

	stats.ByteBudget = AggressorByteBurst + int64(AggressorByteRate*stats.ByteHog.Elapsed.Seconds())
	stats.ByteCapped = AggressorOf(stats.ByteHog).Bytes <= byteCapBound(stats.ByteBudget)
	stats.DistributedCap = float64(AggressorBurst+distServers) +
		AggressorRate*stats.Distributed.Elapsed.Seconds()
	stats.DistributedByteBudget = AggressorByteBurst +
		int64(AggressorByteRate*stats.Distributed.Elapsed.Seconds())
	stats.DistributedByteCapped = AggressorOf(stats.Distributed).Bytes <= distByteCapBound(stats.DistributedByteBudget)
	stats.Isolated = stats.Baseline.VictimP50 > 0 &&
		stats.Governed.VictimP50 <= 2*stats.Baseline.VictimP50
	return stats, nil
}

// byteCapBound is the most bytes a correctly byte-governed aggressor can be
// charged: the drainable budget, plus post-hoc debt overshoot from
// transactions admitted while the bucket was still positive (bounded by the
// concurrency ceiling times one transaction's bytes), with 25% slack for
// scheduling jitter in elapsed-time measurement.
func byteCapBound(budget int64) int64 {
	perTxn := int64(aggressorRecsPerTxn * aggressorRecSize * writeAmplification)
	return budget + budget/4 + byteQuotaConcurrency*perTxn
}

// distByteCapBound is the distributed phase's byte ceiling: the global
// budget with ~1.1x slack (the acceptance bound — lease slices never sum
// past the global rate), plus post-hoc debt overshoot from each server's
// in-flight transactions (every server runs its own MaxConcurrent ceiling).
func distByteCapBound(budget int64) int64 {
	perTxn := int64(aggressorRecsPerTxn * aggressorRecSize * writeAmplification)
	return budget + budget/10 + distServers*byteQuotaConcurrency*perTxn
}

// AggressorOf returns the aggressor's row in a phase (zero row if absent).
func AggressorOf(p NoisyPhase) TenantResult {
	for _, t := range p.Tenants {
		if t.Tenant == aggressorTenant {
			return t
		}
	}
	return TenantResult{}
}

// Check returns an error describing every governance invariant the run
// violated — the deterministic smoke gate CI runs (`cmd/experiments -run nn
// -short`). Latency-ratio checks use generous bounds; the quota-cap and
// shared-limits checks are tight because the token buckets are exact.
func (s NoisyStats) Check() error {
	var problems []string
	if a := AggressorOf(s.Governed); float64(a.Txns) > s.AggressorCap*1.25+2 {
		problems = append(problems, fmt.Sprintf(
			"txn-governed aggressor ran %d txns, quota cap %.0f", a.Txns, s.AggressorCap))
	}
	if !s.ByteCapped {
		problems = append(problems, fmt.Sprintf(
			"byte-governed aggressor charged %d bytes, budget %d (bound %d)",
			AggressorOf(s.ByteHog).Bytes, s.ByteBudget, byteCapBound(s.ByteBudget)))
	}
	if !s.SharedLimitsConsistent {
		problems = append(problems, "store-fed governors disagreed on persisted limits")
	}
	// The persisted phase halves rate and burst per server, so the two
	// servers' combined budget is ~AggressorCap (+1 for burst rounding) —
	// a regression that applied the unhalved rate would double it and trip
	// this bound.
	if a := AggressorOf(s.Persisted); float64(a.Txns) > (s.AggressorCap+1)*1.25+4 {
		problems = append(problems, fmt.Sprintf(
			"persisted-limits aggressor ran %d txns across 2 servers, combined cap ~%.0f", a.Txns, s.AggressorCap))
	}
	// The distributed bound is the acceptance criterion: an aggressor spread
	// over 3 lease-coordinated governors stays within ~1.1x its *global*
	// caps — without leases each server would grant the full budget and the
	// aggressor would run at ~3x.
	if a := AggressorOf(s.Distributed); float64(a.Txns) > s.DistributedCap*1.1+2 {
		problems = append(problems, fmt.Sprintf(
			"distributed aggressor ran %d txns across %d servers, global cap %.0f",
			a.Txns, distServers, s.DistributedCap))
	}
	if !s.DistributedByteCapped {
		problems = append(problems, fmt.Sprintf(
			"distributed aggressor charged %d bytes, global budget %d (bound %d)",
			AggressorOf(s.Distributed).Bytes, s.DistributedByteBudget,
			distByteCapBound(s.DistributedByteBudget)))
	}
	if !s.LeaseSliceSumOK {
		problems = append(problems, "lease slices summed past the global limit")
	}
	if !s.ExportConsistent {
		problems = append(problems, "metering report disagreed with the live accountants")
	}
	for _, p := range []NoisyPhase{s.Baseline, s.Governed, s.ByteHog, s.Persisted, s.Distributed, s.BgIndex} {
		victims := 0
		for _, t := range p.Tenants {
			if t.Tenant != aggressorTenant {
				victims += t.Txns
			}
		}
		if victims == 0 {
			problems = append(problems, fmt.Sprintf("phase %s: victims made no progress", p.Name))
		}
	}
	if s.BgIndex.Indexed == 0 {
		problems = append(problems, "background index build made no progress")
	}
	if b := s.BgIndex.Bulk; b.Transactions == 0 || b.WriteBytes == 0 {
		problems = append(problems, fmt.Sprintf(
			"background index build billed %d txns and %d write bytes to %s, want both non-zero",
			b.Transactions, b.WriteBytes, bulkTenant))
	}
	if s.Baseline.VictimP50 > 0 && s.BgIndex.VictimP50 > 3*s.Baseline.VictimP50 {
		problems = append(problems, fmt.Sprintf(
			"background index build tripled victim p50: %v vs baseline %v",
			s.BgIndex.VictimP50, s.Baseline.VictimP50))
	}
	if len(problems) == 0 {
		return nil
	}
	return fmt.Errorf("noisy-neighbor invariants violated:\n  - %s", strings.Join(problems, "\n  - "))
}

// noisySchema is the shared Note-style schema.
func noisySchema() (*message.Descriptor, *metadata.MetaData, error) {
	note := message.MustDescriptor("Note",
		message.Field("id", 1, message.TypeInt64),
		message.Field("body", 2, message.TypeString),
	)
	md, err := metadata.NewBuilder(1).
		AddRecordType(note, keyexpr.Field("id")).
		Build()
	return note, md, err
}

// noisySchemaV2 adds the by_body index the background build constructs.
func noisySchemaV2(note *message.Descriptor) (*metadata.MetaData, error) {
	return metadata.NewBuilder(2).
		AddRecordType(note, keyexpr.Field("id")).
		AddIndex(&metadata.Index{Name: "by_body", Type: metadata.IndexValue,
			Expression:   keyexpr.Then(keyexpr.Field("body"), keyexpr.Field("id")),
			AddedVersion: 2}, "Note").
		Build()
}

// tenantProviders builds the keyspace app=<app>/tenant=<string> and one
// StoreProvider over it per metadata, each a server with its own caches.
func tenantProviders(app string, mds ...*metadata.MetaData) (*keyspace.KeySpace, []*recordlayer.StoreProvider, error) {
	ks, err := keyspace.New(nil,
		keyspace.NewConstant("app", app).Add(
			keyspace.NewDirectory("tenant", keyspace.TypeString)))
	if err != nil {
		return nil, nil, err
	}
	providers := make([]*recordlayer.StoreProvider, len(mds))
	for i, md := range mds {
		if providers[i], err = recordlayer.NewStoreProvider(md, ks, []string{"app", "tenant"},
			recordlayer.ProviderOptions{}); err != nil {
			return nil, nil, err
		}
	}
	return ks, providers, nil
}

// openAndSave is the experiments' one write: open tenant's store through p,
// creating it if missing, and save recs (with none, it only opens).
func openAndSave(p *recordlayer.StoreProvider, tenant string, recs ...*message.Message) recordlayer.TransactFunc {
	return func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := p.Open(ctx, tr, tenant)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			if _, err := store.SaveRecord(rec); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
}

// leaseSlicesWithin samples tenant's live lease rows and reports whether
// their slices sum to at most the global limit for both resources.
func leaseSlicesWithin(leases *recordlayer.QuotaLeaseStore, tenant string, now time.Time,
	global recordlayer.TenantLimits) (bool, error) {
	rows, err := leases.Live(tenant, now)
	if err != nil {
		return false, err
	}
	var sumTxn, sumBytes float64
	for _, r := range rows {
		sumTxn += r.Slice.Txn
		sumBytes += r.Slice.Bytes
	}
	return sumTxn <= global.TxnPerSecond*1.0001 && sumBytes <= global.BytesPerSecond*1.0001, nil
}

// noisyCluster is one fresh simulated cluster with its schema and keyspace.
type noisyCluster struct {
	note     *message.Descriptor
	ks       *keyspace.KeySpace
	provider *recordlayer.StoreProvider
	db       *fdb.Database
}

func newNoisyCluster() (*noisyCluster, error) {
	note, md, err := noisySchema()
	if err != nil {
		return nil, err
	}
	ks, providers, err := tenantProviders("noisy", md)
	if err != nil {
		return nil, err
	}
	return &noisyCluster{note: note, ks: ks, provider: providers[0], db: fdb.Open(nil)}, nil
}

// server is one "stateless server" of a phase: a Runner billing its own
// Accountant, admitted by its Governor (nil when the phase is ungoverned).
type server struct {
	acct   *recordlayer.Accountant
	gov    *recordlayer.Governor
	runner *recordlayer.Runner
}

// phaseSpec is one phase as data; runPhase drives every phase the same way.
type phaseSpec struct {
	name      string
	servers   int  // one when zero
	aggressor bool // the aggressor's workers join, round-robin over the servers
	// limit gives the servers' governors their limits once every tenant's
	// store exists, so creating the stores is charged to no quota. A phase
	// with neither limit nor bulk runs ungoverned.
	limit func(ctx context.Context, c *noisyCluster, servers []server) error
	// alongside runs beside the workers until they finish.
	alongside func(ctx context.Context)
	// bulk builds by_body over a pre-populated bulk store beside the workers,
	// through server 0 at background priority, under a capacity tight enough
	// that the build actually contends with the victims.
	bulk bool
	// maxBackoff caps the workers' quota backoff; zero trusts RetryAfter.
	maxBackoff time.Duration
}

// setLimits installs l for the aggressor with SetLimits on every governor.
func setLimits(l recordlayer.TenantLimits) func(context.Context, *noisyCluster, []server) error {
	return func(_ context.Context, _ *noisyCluster, servers []server) error {
		for _, s := range servers {
			s.gov.SetLimits(aggressorTenant, l)
		}
		return nil
	}
}

// loadLimits is the stateless-server flow: the aggressor's quota is written
// once to a LimitsStore, and every governor loads it with no in-process
// SetLimits call. consistent reports whether all of them saw exactly l.
func loadLimits(l recordlayer.TenantLimits, consistent *bool) func(context.Context, *noisyCluster, []server) error {
	return func(_ context.Context, c *noisyCluster, servers []server) error {
		limits := recordlayer.NewLimitsStore(c.db)
		if err := limits.Set(aggressorTenant, l); err != nil {
			return err
		}
		*consistent = true
		for _, s := range servers {
			if _, err := s.gov.LoadLimits(limits); err != nil {
				return err
			}
			*consistent = *consistent && s.gov.LimitsFor(aggressorTenant) == l
		}
		return nil
	}
}

// runPhase runs one phase on a fresh cluster: victims on server 0, aggressor
// workers round-robin over the servers, all until the phase deadline.
func runPhase(ctx context.Context, cfg NoisyConfig, spec phaseSpec) (NoisyPhase, error) {
	c, err := newNoisyCluster()
	if err != nil {
		return NoisyPhase{}, err
	}
	servers := make([]server, max(spec.servers, 1))
	for i := range servers {
		s := &servers[i]
		s.acct = recordlayer.NewAccountant()
		if spec.limit != nil || spec.bulk {
			var gopts recordlayer.GovernorOptions
			if spec.bulk {
				gopts.TotalConcurrent = Victims + 1
			}
			s.gov = recordlayer.NewGovernor(s.acct, gopts)
		}
		s.runner = recordlayer.NewRunner(c.db, recordlayer.RunnerOptions{Accountant: s.acct, Governor: s.gov})
	}

	tenants := make([]string, 0, Victims+1)
	for i := 0; i < Victims; i++ {
		tenants = append(tenants, fmt.Sprintf("victim-%d", i))
	}
	if spec.aggressor {
		tenants = append(tenants, aggressorTenant)
	}
	if spec.bulk {
		tenants = append(tenants, bulkTenant)
	}
	for _, tenant := range tenants {
		if _, err := servers[0].runner.Run(recordlayer.WithTenant(ctx, tenant), openAndSave(c.provider, tenant)); err != nil {
			return NoisyPhase{}, fmt.Errorf("workload: pre-create %s: %w", tenant, err)
		}
	}
	if spec.limit != nil {
		if err := spec.limit(ctx, c, servers); err != nil {
			return NoisyPhase{}, err
		}
	}
	var indexer *core.OnlineIndexer
	var bulkBase recordlayer.TenantUsage
	if spec.bulk {
		if indexer, err = bulkIndexer(ctx, c, servers[0].runner, cfg); err != nil {
			return NoisyPhase{}, err
		}
		bulkBase = servers[0].acct.Tenant(bulkTenant).Snapshot()
	}

	var workers []*worker
	var wg sync.WaitGroup
	ioBase := c.db.Metrics().Snapshot()
	start := time.Now()
	deadline := start.Add(cfg.Phase)
	spawn := func(tenant string, s server, recsPerTxn, recSize int, record bool) {
		w := &worker{tenant: tenant, runner: s.runner, maxBackoff: spec.maxBackoff}
		seed := cfg.Seed + int64(len(workers))*7919
		workers = append(workers, w)
		wg.Add(1)
		go w.run(ctx, c, deadline, seed, recsPerTxn, recSize, record, &wg)
	}
	for _, tenant := range tenants[:Victims] {
		// Victims: one worker each, small steady writes (3 × ~200 B).
		spawn(tenant, servers[0], victimRecsPerTxn, victimRecSize, true)
	}
	if spec.aggressor {
		for i := 0; i < AggressorWorkers; i++ {
			// Aggressor: many workers, heavy writes (12 × ~4 kB).
			spawn(aggressorTenant, servers[i%len(servers)], aggressorRecsPerTxn, aggressorRecSize, false)
		}
	}

	var side sync.WaitGroup
	sideCtx, stopSide := context.WithCancel(ctx)
	defer stopSide()
	if spec.alongside != nil {
		side.Add(1)
		go func() {
			defer side.Done()
			spec.alongside(sideCtx)
		}()
	}
	indexed := 0
	var buildErr error
	if indexer != nil {
		bctx, cancel := context.WithDeadline(recordlayer.WithPriority(
			recordlayer.WithTenant(ctx, bulkTenant), recordlayer.PriorityBackground), deadline)
		defer cancel()
		side.Add(1)
		go func() {
			defer side.Done()
			indexed, buildErr = indexer.Build(bctx)
			// Deadline expiry is the expected way a phase-bounded build
			// stops; progress is durable either way.
			if errors.Is(buildErr, context.DeadlineExceeded) || ctx.Err() != nil {
				buildErr = nil
			}
		}()
	}
	wg.Wait()
	stopSide()
	side.Wait()
	elapsed := time.Since(start)
	if buildErr != nil {
		return NoisyPhase{}, fmt.Errorf("workload: background index build: %w", buildErr)
	}

	phase, err := mergePhase(spec.name, workers, elapsed, servers)
	phase.Indexed = indexed
	if spec.bulk {
		phase.Bulk = servers[0].acct.Tenant(bulkTenant).Snapshot().Delta(bulkBase)
	}
	phase.IO = c.db.Metrics().Snapshot().Delta(ioBase)
	return phase, err
}

// bulkIndexer seeds the bulk tenant's store and returns the online build of
// by_body over it. Every batch enters through runner, so a build run under
// the bulk tenant at background priority is admitted and billed as such.
func bulkIndexer(ctx context.Context, c *noisyCluster, runner *recordlayer.Runner, cfg NoisyConfig) (*core.OnlineIndexer, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 17))
	tctx := recordlayer.WithTenant(ctx, bulkTenant)
	const perTxn = 100
	for base := 0; base < cfg.IndexRecords; base += perTxn {
		recs := make([]*message.Message, min(perTxn, cfg.IndexRecords-base))
		for j := range recs {
			recs[j] = message.New(c.note).
				MustSet("id", int64(base+j)).
				MustSet("body", NoteBody(rng, 120))
		}
		if _, err := runner.Run(tctx, openAndSave(c.provider, bulkTenant, recs...)); err != nil {
			return nil, fmt.Errorf("workload: populate bulk store: %w", err)
		}
	}
	v2, err := noisySchemaV2(c.note)
	if err != nil {
		return nil, err
	}
	space, err := c.ks.MustPath("app").MustAdd("tenant", bulkTenant).ToSubspaceStatic()
	if err != nil {
		return nil, err
	}
	return &core.OnlineIndexer{
		DB:        runner,
		MetaData:  v2,
		Space:     space,
		IndexName: "by_body",
		BatchSize: 32,
		Config:    core.Config{InlineBuildLimit: 8}, // force the online path
	}, nil
}

// leaseFleet is the distributed phase's cluster-wide governance: the
// aggressor's *global* quota (txn rate and byte rate) is written once to the
// LimitsStore, and every server runs a QuotaLeaseManager that claims a
// demand-sized, time-bounded slice of that budget from
// /__system__/limits/leases. Without leases each server would grant the full
// budget (the persisted phase's halved-rate workaround does not scale past a
// static fleet); with them the slices never sum past the global limit, so the
// aggressor's combined throughput stays at ~1x its quota no matter how many
// servers it hits. Every server also exports its Accountant's windows to the
// shared metering subspace, which exported checks against the accountants.
type leaseFleet struct {
	phase   time.Duration
	leases  *recordlayer.QuotaLeaseStore
	mgrs    []*recordlayer.QuotaLeaseManager
	exps    []*recordlayer.UsageExporter
	servers []server
	meter   *recordlayer.MeteringStore
	sliceOK bool // written by heartbeat only, read once it has returned
}

// leaseGlobal is the aggressor's FULL budget: leases do the splitting.
var leaseGlobal = recordlayer.TenantLimits{
	TxnPerSecond:   AggressorRate,
	Burst:          AggressorBurst,
	BytesPerSecond: AggressorByteRate,
	ByteBurst:      AggressorByteBurst,
	MaxConcurrent:  byteQuotaConcurrency,
}

// claim stores the global quota, gives each server its lease manager and
// exporter, and runs two synchronous refresh rounds, which converge the
// cold-start claims to an equal split (round 1 claims in arrival order
// against shrinking headroom; round 2 re-sizes every claim against all
// live rows).
func (f *leaseFleet) claim(ctx context.Context, c *noisyCluster, servers []server) error {
	if err := recordlayer.NewLimitsStore(c.db).Set(aggressorTenant, leaseGlobal); err != nil {
		return err
	}
	f.leases = recordlayer.NewQuotaLeaseStore(c.db)
	f.meter = recordlayer.NewMeteringStore(c.db)
	f.servers = servers
	for i, s := range servers {
		name := fmt.Sprintf("server-%d", i)
		f.mgrs = append(f.mgrs, recordlayer.NewQuotaLeaseManager(s.gov, c.db,
			recordlayer.QuotaLeaseOptions{Server: name, TTL: f.phase / 2}))
		f.exps = append(f.exps, recordlayer.NewUsageExporter(s.acct, c.db, name))
	}
	for round := 0; round < 2; round++ {
		for _, m := range f.mgrs {
			if _, err := m.Refresh(ctx); err != nil {
				return err
			}
		}
	}
	return nil
}

// heartbeat renews and rebalances every lease about ten times a phase and
// after each round checks the lease table's slice sums against the global
// limit.
func (f *leaseFleet) heartbeat(ctx context.Context) {
	t := time.NewTicker(max(f.phase/10, 5*time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			for _, m := range f.mgrs {
				_, _ = m.Refresh(ctx) // transient claim conflicts retry next beat
			}
			if ok, err := leaseSlicesWithin(f.leases, aggressorTenant, time.Now(), leaseGlobal); err == nil && !ok {
				f.sliceOK = false
			}
		}
	}
}

// exported exports every server's final window and reports whether the
// aggregated report equals the live accountants: the billing pipeline must
// account every transaction and byte the phase ran, exactly once.
func (f *leaseFleet) exported(ctx context.Context) (bool, error) {
	for _, e := range f.exps {
		if _, err := e.Export(ctx); err != nil {
			return false, err
		}
	}
	_, total, err := f.meter.Report()
	if err != nil {
		return false, err
	}
	var live recordlayer.TenantUsage
	for _, s := range f.servers {
		for _, u := range s.acct.Snapshot() {
			live = live.Accumulate(u)
		}
	}
	return total == live, nil
}

// worker is one load generator's tally.
type worker struct {
	tenant    string
	runner    *recordlayer.Runner
	txns      int
	latencies []time.Duration
	err       error
	// maxBackoff, when set, caps the quota-rejection backoff (see
	// distMaxBackoff). Zero trusts RetryAfter unconditionally.
	maxBackoff time.Duration
}

// run loops transactions until the deadline, backing off on quota
// rejections as a well-behaved client would.
func (w *worker) run(ctx context.Context, c *noisyCluster, deadline time.Time,
	seed int64, recsPerTxn, recSize int, record bool, wg *sync.WaitGroup) {
	defer wg.Done()
	rng := rand.New(rand.NewSource(seed))
	tctx := recordlayer.WithTenant(ctx, w.tenant)
	// Distinct id ranges per worker keep tenants conflict-free with
	// themselves.
	id := seed << 32
	for time.Now().Before(deadline) && ctx.Err() == nil {
		start := time.Now()
		recs := make([]*message.Message, recsPerTxn)
		for j := range recs {
			recs[j] = message.New(c.note).
				MustSet("id", id+int64(j)).
				MustSet("body", NoteBody(rng, recSize))
		}
		_, err := w.runner.Run(tctx, openAndSave(c.provider, w.tenant, recs...))
		id += int64(recsPerTxn)
		if err != nil {
			var qe *recordlayer.QuotaExceededError
			if errors.As(err, &qe) {
				// The recommended backoff: wait out the quota window.
				pause := qe.RetryAfter
				if w.maxBackoff > 0 && pause > w.maxBackoff {
					pause = w.maxBackoff
				}
				time.Sleep(min(pause, time.Until(deadline)))
				continue
			}
			w.err = err
			return
		}
		w.txns++
		if record {
			w.latencies = append(w.latencies, time.Since(start))
		}
	}
}

// mergePhase folds per-worker tallies into the phase result, pulling
// rejection and byte counts from every server's accountant.
func mergePhase(name string, workers []*worker, elapsed time.Duration, servers []server) (NoisyPhase, error) {
	byTenant := map[string]*TenantResult{}
	pooled := map[string][]time.Duration{}
	for _, w := range workers {
		if w.err != nil {
			return NoisyPhase{}, fmt.Errorf("workload: %s worker: %w", w.tenant, w.err)
		}
		tr, ok := byTenant[w.tenant]
		if !ok {
			tr = &TenantResult{Tenant: w.tenant}
			byTenant[w.tenant] = tr
		}
		tr.Txns += w.txns
		pooled[w.tenant] = append(pooled[w.tenant], w.latencies...)
	}
	phase := NoisyPhase{Name: name, Elapsed: elapsed}
	var victimLat []time.Duration
	names := make([]string, 0, len(byTenant))
	for t := range byTenant {
		names = append(names, t)
	}
	sort.Strings(names)
	// Aggressor row last for readable tables.
	sort.SliceStable(names, func(i, j int) bool {
		return (names[i] != aggressorTenant) && (names[j] == aggressorTenant)
	})
	for _, t := range names {
		tr := byTenant[t]
		tr.Throughput = float64(tr.Txns) / elapsed.Seconds()
		for _, s := range servers {
			u := s.acct.Tenant(t).Snapshot()
			tr.Rejections += u.Rejected
			tr.Bytes += u.ReadBytes + u.WriteBytes
		}
		tr.P50, tr.P95 = percentiles(pooled[t])
		if t != aggressorTenant {
			victimLat = append(victimLat, pooled[t]...)
		}
		phase.Tenants = append(phase.Tenants, *tr)
	}
	phase.VictimP50, phase.VictimP95 = percentiles(victimLat)
	return phase, nil
}

// percentiles returns the p50 and p95 of a latency sample (0,0 when empty).
func percentiles(ds []time.Duration) (p50, p95 time.Duration) {
	if len(ds) == 0 {
		return 0, 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	return at(0.50), at(0.95)
}
