package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"recordlayer"
	"recordlayer/internal/core"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/resource/lease"
)

// ChaosConfig sizes the chaos run's two phases on faulted clusters: a fleet
// of lease-coordinated governors churning under failed heartbeats and a
// crash, and two servers sharing a warm store-state cache while one walks an
// index through its states. Each is single-goroutine, so every fault draw is
// a function of the seed. The run asserts that lease slices never over-grant
// and that a warm store-state cache never outlives the state it holds. Lost
// writes, ghost writes, a non-idempotent counter and scrubs under the same
// fault mix are the model test's (the root TestStoreAgreesWithModel).
type ChaosConfig struct {
	// Writes sizes the state-cache phase, which makes Writes/2 saves
	// (default 240).
	Writes int
	// Seed drives the workload shape and the fault schedule.
	Seed int64
	// LeaseRounds is how many heartbeat rounds the lease-churn phase runs
	// (default 40).
	LeaseRounds int
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Writes <= 0 {
		c.Writes = 240
	}
	if c.LeaseRounds <= 0 {
		c.LeaseRounds = 40
	}
	return c
}

// leaseServers is how many lease-coordinated governors churn.
const leaseServers = 3

// chaosFaults is the injected fault mix, dealt from seed.
func chaosFaults(seed int64) fdb.FaultConfig {
	return fdb.FaultConfig{
		Seed:                seed,
		PCommitNotCommitted: 0.05,
		PCommitUnknown:      0.08,
		PReadTooOld:         0.03,
		PReadFuture:         0.02,
		PLatencySpike:       0.05,
		SpikeLatency:        2 * time.Millisecond,
	}
}

// chaosTenant owns the chaos store and the leased budget.
const chaosTenant = "chaos"

// zones are the values a note's zone field takes.
var zones = []string{"personal", "work", "shared"}

// ChaosStats is the whole chaos run's outcome; Check is the CI smoke gate.
type ChaosStats struct {
	Config ChaosConfig

	// Faults is what the state-cache phase's injector dealt, and
	// RetriesByCause its runner's retries by cause.
	Faults         fdb.FaultCounts
	RetriesByCause map[string]int64
	// Conflicts counts the real conflicts the state-cache phase's commits
	// met — the resolver's, not the injector's — by the store subspace the
	// committed write they lost to lies in (StoreProvider.DescribeKey).
	Conflicts map[string]int

	// Lease churn phase.
	LeaseRounds          int
	LeaseRefreshFailures int // heartbeats killed by injected faults
	// LeaseSliceSumOK reports every sampled lease-table state kept
	// sum(live slices) <= the global limit.
	LeaseSliceSumOK bool
	// LeaseEnforcedSumOK reports the rates the live managers actually
	// enforced never summed past global*(1+servers*MinFraction) — decayed
	// holders sit at the floor, never at their stale slice.
	LeaseEnforcedSumOK bool

	// Store-state cache phase: server A saves through its warm cache while
	// server B walks by_zone through write-only -> readable -> disabled.
	CacheSaves int   // A's saves attempted
	CacheHits  int64 // A's opens answered from its state cache
	StateFlips int   // B's acknowledged state changes
	// NestedFlips counts B's changes committed between A's cached open and
	// A's commit; NestedFlipStaleCommits, those A committed through anyway —
	// must be zero, A's read conflicts on the skipped reads must abort it.
	NestedFlips, NestedFlipStaleCommits int
	// CacheScrubs counts scrubs of the window each maintained period ends
	// with; CacheScrubIssues, entries a save skipped while the index was
	// write-only or readable — must be zero.
	CacheScrubs, CacheScrubIssues int
	// StaleMetaDataSeen / StaleMetaDataMissed: after B upgraded the schema,
	// A's requests that failed with ErrStaleMetaData / that succeeded on the
	// old schema — the latter must be zero.
	StaleMetaDataSeen, StaleMetaDataMissed int
	// TenantsCreated counts A's acknowledged creations of a fresh tenant
	// mid-storm; CreatedWarmOpens, A's next opens of one that read nothing
	// (mostly served by what the creating commit cached); CreatedStaleOpens,
	// next opens whose view differed from an uncached open's in the same
	// transaction — must be zero.
	TenantsCreated, CreatedWarmOpens, CreatedStaleOpens int
}

// Check returns an error describing every chaos invariant the run violated —
// the deterministic smoke gate CI runs (`cmd/experiments -run chaos -short`).
func (s ChaosStats) Check() error {
	var problems []string
	if s.Faults.Total() == 0 {
		problems = append(problems, "fault injector never fired; the run exercised nothing")
	}
	if s.Faults.CommitsUnknown == 0 {
		problems = append(problems, "no maybe-committed commit was injected; ambiguity handling untested")
	}
	if s.LeaseRefreshFailures == 0 {
		problems = append(problems, "no lease heartbeat failed; the decay path was untested")
	}
	if !s.LeaseSliceSumOK {
		problems = append(problems, "lease slices summed past the global limit during churn")
	}
	if !s.LeaseEnforcedSumOK {
		problems = append(problems, "enforced lease rates summed past the decay bound: a failed heartbeat over-granted")
	}
	if s.CacheHits == 0 {
		problems = append(problems, "server A never opened from its state cache; the cache phase exercised nothing")
	}
	if s.StateFlips < 3 || s.NestedFlips == 0 || s.CacheScrubs == 0 {
		problems = append(problems, fmt.Sprintf(
			"state-cache phase under-exercised: %d flips, %d nested in a cached save, %d scrubs",
			s.StateFlips, s.NestedFlips, s.CacheScrubs))
	}
	if s.NestedFlipStaleCommits > 0 {
		problems = append(problems, fmt.Sprintf(
			"%d saves committed on cached index state that changed under them", s.NestedFlipStaleCommits))
	}
	if s.CacheScrubIssues > 0 {
		problems = append(problems, fmt.Sprintf(
			"%d index entries skipped by saves while the index was write-only or readable", s.CacheScrubIssues))
	}
	if s.StaleMetaDataSeen == 0 || s.StaleMetaDataMissed > 0 {
		problems = append(problems, fmt.Sprintf(
			"after the schema upgrade the old-schema server saw ErrStaleMetaData %d times and stale success %d times",
			s.StaleMetaDataSeen, s.StaleMetaDataMissed))
	}
	if s.TenantsCreated == 0 || s.CreatedWarmOpens == 0 {
		problems = append(problems, fmt.Sprintf(
			"tenant creation under-exercised: %d created mid-storm, %d warm next opens",
			s.TenantsCreated, s.CreatedWarmOpens))
	}
	if s.CreatedStaleOpens > 0 {
		problems = append(problems, fmt.Sprintf(
			"%d opens of a new tenant saw a cached state an uncached open did not", s.CreatedStaleOpens))
	}
	if len(problems) == 0 {
		return nil
	}
	return fmt.Errorf("chaos invariants violated:\n  - %s", strings.Join(problems, "\n  - "))
}

// chaosSchema is the Note schema with the by_zone VALUE index the
// state-cache phase walks through its states.
func chaosSchema(version int) (*message.Descriptor, *metadata.MetaData, error) {
	note := message.MustDescriptor("Note",
		message.Field("id", 1, message.TypeInt64),
		message.Field("zone", 2, message.TypeString),
		message.Field("body", 3, message.TypeString),
	)
	md, err := metadata.NewBuilder(version).
		AddRecordType(note, keyexpr.Field("id")).
		AddIndex(&metadata.Index{Name: "by_zone", Type: metadata.IndexValue,
			Expression: keyexpr.Then(keyexpr.Field("zone"), keyexpr.Field("id"))}, "Note").
		Build()
	return note, md, err
}

// chaosCluster is a faulted cluster for a storm. A virtual latency model makes
// injected latency spikes take effect (the clock is deterministic and never
// sleeps).
func chaosCluster(inj *fdb.FaultInjector) *fdb.Database {
	return fdb.Open(&fdb.Options{
		Latency: fdb.LatencyModel{PerRead: 20 * time.Microsecond, PerGRV: 40 * time.Microsecond,
			PerCommit: 60 * time.Microsecond, Virtual: true},
		Faults: inj,
		Sleep:  func(time.Duration) {},
	})
}

// countConflicts has db's tap count each real conflict a commit meets in
// stats.Conflicts, by the subspace p says the committed write lies in. Only
// a conflict's verdict is decoded.
func countConflicts(db *fdb.Database, p *recordlayer.StoreProvider, stats *ChaosStats) {
	var mu sync.Mutex
	db.SetTap(func(_ *fdb.Transaction, a fdb.Access) {
		var fe *fdb.Error
		if a.Kind != fdb.AccessCommit || !errors.As(a.Err, &fe) || fe.Conflict == nil || fe.Injected {
			return
		}
		d := p.DescribeKey(fe.Conflict.Write.Begin)
		where := d.Subspace
		if d.Tenant == "" || where == "" {
			where = d.String()
		}
		mu.Lock()
		stats.Conflicts[where]++
		mu.Unlock()
	})
}

// instantBackoff keeps a storm's retries wall-clock fast.
func instantBackoff(ctx context.Context, _ time.Duration) error { return ctx.Err() }

// RunChaos runs the lease churn and the state-cache phase, each on its own
// faulted cluster, and returns the combined stats. Both are functions of
// cfg.Seed alone.
func RunChaos(ctx context.Context, cfg ChaosConfig) (ChaosStats, error) {
	cfg = cfg.withDefaults()
	stats := ChaosStats{Config: cfg, LeaseSliceSumOK: true, LeaseEnforcedSumOK: true, Conflicts: map[string]int{}}
	if err := runChaosLeases(ctx, cfg, &stats); err != nil {
		return stats, err
	}
	if err := runChaosStateCache(ctx, cfg, &stats); err != nil {
		return stats, err
	}
	return stats, nil
}

// runChaosStateCache is the gate on the store-state cache: two servers, each
// a provider with its own cache, share one faulted cluster. A saves notes
// through its warm cache; B walks by_zone through write-only -> readable ->
// disabled -> (rebuilt) write-only, half of its changes committing between
// A's cached open and A's commit. The index is scrubbed at the end of every
// period in which saves had to maintain it, so a save that trusted a stale
// "disabled" shows up as a missing entry. Every twelfth save A also creates a
// fresh tenant under the storm, and its next open of that tenant must see what
// an uncached open sees. Finally B upgrades the schema and A, still on the old
// one, must be refused rather than served from cache.
func runChaosStateCache(ctx context.Context, cfg ChaosConfig, stats *ChaosStats) error {
	note, v1, err := chaosSchema(1)
	if err != nil {
		return err
	}
	_, v2, err := chaosSchema(2)
	if err != nil {
		return err
	}
	ks, servers, err := tenantProviders("chaos", v1, v1, v2)
	if err != nil {
		return err
	}
	a, b, bUpgraded := servers[0], servers[1], servers[2]

	inj := fdb.NewFaultInjector(chaosFaults(cfg.Seed + 2))
	db := chaosCluster(inj)
	countConflicts(db, a, stats)
	runner := recordlayer.NewRunner(db, recordlayer.RunnerOptions{Sleep: instantBackoff})
	space, err := ks.MustPath("app").MustAdd("tenant", chaosTenant).ToSubspaceStatic()
	if err != nil {
		return err
	}

	// quiet runs fn with the injector paused: harness bookkeeping, not storm.
	quiet := func(fn func() error) error {
		inj.Disable()
		defer inj.Enable()
		return fn()
	}
	state := func() (st metadata.IndexState, err error) {
		err = quiet(func() error {
			_, err := runner.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
				s, err := b.Open(ctx, tr, chaosTenant)
				if err == nil {
					st = s.IndexState("by_zone")
				}
				return nil, err
			})
			return err
		})
		return st, err
	}
	scrub := func() error {
		return quiet(func() error {
			for _, ix := range v1.Indexes() {
				scr := &core.Scrubber{DB: db, MetaData: v1, Space: space, IndexName: ix.Name, BatchSize: 32}
				rep, err := scr.Scrub(ctx)
				if err != nil {
					return fmt.Errorf("workload: chaos cache scrub of %s: %w", ix.Name, err)
				}
				stats.CacheScrubIssues += len(rep.Issues)
			}
			stats.CacheScrubs++
			return nil
		})
	}
	// flip moves by_zone from its state `from` to that state's successor;
	// an attempt that finds another state (an earlier attempt applied behind
	// an unknown result) does nothing, which is what makes it idempotent.
	flip := func(from metadata.IndexState) error {
		//rl:idempotent the closure acts only while the index is still in state `from`; a re-run after an applied commit is a no-op
		_, err := runner.RunIdempotent(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			s, err := b.Open(ctx, tr, chaosTenant)
			if err != nil || s.IndexState("by_zone") != from {
				return nil, err
			}
			switch from {
			case metadata.StateWriteOnly:
				return nil, s.MarkIndexReadable("by_zone")
			case metadata.StateReadable:
				return nil, s.MarkIndexDisabled("by_zone")
			}
			// Disabled: saves skipped the index legitimately, so rebuild it
			// before it counts again.
			if err := s.RebuildIndexInline("by_zone"); err != nil {
				return nil, err
			}
			return nil, s.MarkIndexWriteOnly("by_zone")
		})
		return err
	}
	// step reads the true state, scrubs if a maintained period is about to
	// end, and flips. A flip that exhausts its retries is simply not counted;
	// the next step starts from whatever state is true by then.
	step := func() (bool, error) {
		from, err := state()
		if err != nil {
			return false, err
		}
		if from == metadata.StateReadable {
			if err := scrub(); err != nil {
				return false, err
			}
		}
		if flip(from) != nil {
			return false, nil
		}
		stats.StateFlips++
		return true, nil
	}
	// create is A creating tenant n mid-storm, every other time marking
	// by_zone write-only in the creating transaction, which then bumps and
	// caches nothing. A's next open of the tenant must see what an uncached
	// open in the same transaction sees, whatever the storm did to the
	// creation.
	create := func(rng *rand.Rand, n int) error {
		tenant := fmt.Sprintf("%s-%d", chaosTenant, n)
		rec := message.New(note).MustSet("id", int64(n)).
			MustSet("zone", zones[rng.Intn(len(zones))]).MustSet("body", NoteBody(rng, 32))
		//rl:idempotent creating the store, marking an index write-only and saving one pre-generated record each converge when re-run
		_, err := runner.RunIdempotent(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			s, err := a.Open(ctx, tr, tenant)
			if err != nil {
				return nil, err
			}
			if n%2 == 1 {
				if err := s.MarkIndexWriteOnly("by_zone"); err != nil {
					return nil, err
				}
			}
			_, err = s.SaveRecord(rec)
			return nil, err
		})
		if err == nil {
			stats.TenantsCreated++
		}
		space, err := ks.MustPath("app").MustAdd("tenant", tenant).ToSubspaceStatic()
		if err != nil {
			return err
		}
		view := func(s *core.Store) string {
			return fmt.Sprintf("%+v by_zone=%v", s.Header(), s.IndexState("by_zone"))
		}
		var warm, stale bool
		_, err = runner.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			hits := a.StateCacheStats().Hits
			s, err := a.Open(ctx, tr, tenant)
			if err != nil {
				return nil, err
			}
			warm = a.StateCacheStats().Hits > hits
			// A missing store is created in this transaction's buffer by A's
			// open and so found by this one; a cached claim that it exists is
			// not.
			uncached, err := core.Open(tr, v1, space, core.OpenOptions{})
			if fdb.IsRetryable(err) {
				return nil, err
			}
			stale = err != nil || view(uncached) != view(s.Store)
			return nil, nil
		})
		if err == nil && warm {
			stats.CreatedWarmOpens++
		}
		if err == nil && stale {
			stats.CreatedStaleOpens++
		}
		return nil
	}

	if err := quiet(func() error {
		_, err := runner.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			s, err := b.Open(ctx, tr, chaosTenant)
			if err != nil {
				return nil, err
			}
			return nil, s.MarkIndexWriteOnly("by_zone") // empty store: nothing to build
		})
		return err
	}); err != nil {
		return fmt.Errorf("workload: chaos cache pre-create: %w", err)
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	saves := cfg.Writes / 2
	for i := 0; i < saves; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		rec := message.New(note).MustSet("id", int64(rng.Intn(saves/3+1))).
			MustSet("zone", zones[rng.Intn(len(zones))]).MustSet("body", NoteBody(rng, 32))
		// Every sixth save B changes the state: alternately before A begins,
		// and in the middle of A's first attempt, after its cached open.
		nested := i%12 == 6
		if i%12 == 0 {
			if _, err := step(); err != nil {
				return err
			}
		}
		if i%12 == 3 {
			if err := create(rng, i/12); err != nil {
				return err
			}
		}
		stats.CacheSaves++
		// first is A's first attempt, the one B's nested change lands inside.
		var first *fdb.Transaction
		flipped := false
		var nestedErr error
		//rl:idempotent re-saving the same pre-generated record converges to the same stored state
		_, err := runner.RunIdempotent(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			if first == nil {
				first = tr
			}
			s, err := a.Open(ctx, tr, chaosTenant)
			if err != nil {
				return nil, err
			}
			if _, err := s.SaveRecord(rec); err != nil {
				return nil, err
			}
			if nested && tr == first {
				flipped, nestedErr = step()
			}
			return nil, nil
		})
		if nestedErr != nil {
			return nestedErr
		}
		if flipped {
			stats.NestedFlips++
			if _, cerr := first.CommittedVersion(); err == nil && cerr == nil {
				stats.NestedFlipStaleCommits++
			}
		}
	}
	stats.CacheHits = a.StateCacheStats().Hits

	// The last maintained period: bring the index to readable without a
	// rebuild (which would repair what this phase is looking for) and scrub.
	final, err := state()
	if err != nil {
		return err
	}
	if final == metadata.StateWriteOnly {
		if err := quiet(func() error { return flip(final) }); err != nil {
			return err
		}
		final = metadata.StateReadable
	}
	if final == metadata.StateReadable {
		if err := scrub(); err != nil {
			return err
		}
	}

	// B deploys schema version 2. Once that is acknowledged, A's warm cache
	// still says version 1 — and must not be believed.
	upgrade := func() error {
		//rl:idempotent opening with the newer schema only raises the header's version; re-running finds it raised
		_, err := runner.RunIdempotent(ctx, openAndSave(bUpgraded, chaosTenant))
		return err
	}
	if upgrade() != nil {
		// Not acknowledged under the storm: deploy it for certain.
		if err := quiet(upgrade); err != nil {
			return fmt.Errorf("workload: chaos cache upgrade: %w", err)
		}
	}
	for i := 0; i < 10; i++ {
		_, err := runner.ReadRun(ctx, openAndSave(a, chaosTenant))
		var stale *core.ErrStaleMetaData
		switch {
		case err == nil:
			stats.StaleMetaDataMissed++
		case errors.As(err, &stale):
			stats.StaleMetaDataSeen++
		}
	}
	stats.Faults, stats.RetriesByCause = inj.Counts(), runner.Metrics().RetriesByCause
	return nil
}

// runChaosLeases churns a fleet of lease-coordinated governors under injected
// heartbeat failures and a mid-run server crash, sampling the over-grant
// invariants every round on a deterministic manual clock.
func runChaosLeases(ctx context.Context, cfg ChaosConfig, stats *ChaosStats) error {
	inj := fdb.NewFaultInjector(chaosFaults(cfg.Seed + 1))
	db := fdb.Open(&fdb.Options{Faults: inj, Sleep: func(time.Duration) {}})

	limits := recordlayer.NewLimitsStore(db)
	global := recordlayer.TenantLimits{
		TxnPerSecond: 100, Burst: 10,
		BytesPerSecond: 1 << 20, ByteBurst: 64 << 10,
		MaxConcurrent: 2,
	}
	// Installing the budget is setup, not churn.
	inj.Disable()
	if err := limits.Set(chaosTenant, global); err != nil {
		return err
	}
	inj.Enable()

	// The phase runs on a manual clock: TTL expiry, reclaim, and decay are
	// exact functions of the round counter, never of wall time.
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	const ttl = 2 * time.Second
	leaseStore := recordlayer.NewQuotaLeaseStore(db)
	mgrs := make([]*recordlayer.QuotaLeaseManager, leaseServers)
	for i := range mgrs {
		gov := recordlayer.NewGovernor(recordlayer.NewAccountant(), recordlayer.GovernorOptions{})
		mgrs[i] = recordlayer.NewQuotaLeaseManager(gov, db, recordlayer.QuotaLeaseOptions{
			Server: fmt.Sprintf("chaos-%d", i),
			TTL:    ttl,
			Clock:  clock,
		})
	}

	rounds := cfg.LeaseRounds
	stats.LeaseRounds = rounds
	crashFrom, crashTo := rounds/3, 2*rounds/3
	// The decayed floor is uncoordinated (each failed server grants itself
	// MinFraction locally), so enforced rates may legitimately sum to
	// global*(1+servers*MinFraction); anything past that is an over-grant.
	enforcedBound := 1 + lease.MinFraction*float64(leaseServers)
	for r := 0; r < rounds; r++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		now = now.Add(ttl / 4)
		liveMgrs := make([]*recordlayer.QuotaLeaseManager, 0, leaseServers)
		for i, m := range mgrs {
			if i == leaseServers-1 && r >= crashFrom && r < crashTo {
				continue // the last server "crashes": no heartbeat, no enforcement
			}
			liveMgrs = append(liveMgrs, m)
			if _, err := m.Refresh(ctx); err != nil {
				stats.LeaseRefreshFailures++
			}
		}
		ok, err := leaseSlicesWithin(leaseStore, chaosTenant, now, global)
		if err != nil {
			continue // an injected read fault killed the sample; next round
		}
		if !ok {
			stats.LeaseSliceSumOK = false
		}
		var enfTxn, enfBytes float64
		for _, m := range liveMgrs {
			if s, ok := m.Held(chaosTenant); ok {
				enfTxn += s.Txn
				enfBytes += s.Bytes
			}
		}
		if enfTxn > global.TxnPerSecond*enforcedBound*1.0001 ||
			enfBytes > global.BytesPerSecond*enforcedBound*1.0001 {
			stats.LeaseEnforcedSumOK = false
		}
	}
	for _, m := range mgrs {
		m.Close()
	}
	return nil
}
