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
	"recordlayer/internal/query"
	"recordlayer/internal/resource/lease"
	"recordlayer/internal/tuple"
)

// ChaosConfig sizes the fault-injection chaos run: a single-goroutine mixed
// workload (so every fault draw is deterministic per seed) against a cluster
// whose FaultInjector deals conflicts, stale reads, latency spikes, and
// maybe-committed commits, followed by a full consistency audit with the
// injector off. The run asserts the robustness invariants end to end: no
// acknowledged write is lost, no write from a cleanly-failed commit appears,
// indexes scrub clean, lease slices never over-grant through heartbeat
// failures, and a warm store-state cache never outlives the state it holds.
type ChaosConfig struct {
	// Writes is how many write operations the mixed workload issues, spread
	// round-robin over the three cohorts (default 240).
	Writes int
	// Seed drives the workload shape and the fault schedule.
	Seed int64
	// LeaseRounds is how many heartbeat rounds the lease-churn phase runs
	// (default 40).
	LeaseRounds int
	// MisdeclareIncrements is a self-test knob: route the non-idempotent
	// counter increments through RunIdempotent anyway, so a maybe-committed
	// attempt that actually applied is blindly re-run and double-increments.
	// A correct harness must FAIL its Check with this set — it proves the
	// chaos gate has teeth.
	MisdeclareIncrements bool
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

const (
	// queryEvery issues one zone query after every this many writes: range
	// reads that absorb injected mid-scan errors.
	queryEvery = 8
	// leaseServers is how many lease-coordinated governors churn.
	leaseServers = 3
)

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

// counterID is the shared-counter record's primary key, outside the cohort
// id space (which starts at 0).
const counterID = int64(-1)

// zones are the values a note's zone field takes.
var zones = []string{"personal", "work", "shared"}

// ChaosStats is the whole chaos run's outcome; Check is the CI smoke gate.
type ChaosStats struct {
	Config ChaosConfig

	// Workload shape.
	Writes        int // write operations attempted (all cohorts)
	Queries       int // zone queries attempted
	QueryFailures int // queries that exhausted retries (reads only; no invariant)
	RowsRead      int

	// Write-fate cohorts. Acked writes were acknowledged to the "client";
	// Unknown writes ended maybe-committed (either fate is legal);
	// CleanFailed writes failed with a guarantee nothing was applied.
	Acked, Unknown, CleanFailed int
	// UnknownApplied counts maybe-committed writes that turned out durable.
	UnknownApplied int
	// LostAcks counts acknowledged writes that were missing or corrupt at
	// verification — must be zero.
	LostAcks int
	// Ghosts counts cleanly-failed writes that were present anyway — must be
	// zero.
	Ghosts int

	// Shared counter: incremented only through non-idempotent Run, so the
	// final value must satisfy CounterAcked <= CounterValue <=
	// CounterAcked+CounterUnknown. A runner that blindly retried
	// maybe-committed commits would double-increment and break the upper
	// bound.
	CounterAcked, CounterUnknown int
	CounterValue                 int64

	// Scrubber audit of every index of the schema after the storm.
	ScrubEntries, ScrubRecords, ScrubIssues int

	// Fault schedule actually dealt.
	Faults fdb.FaultCounts
	// RetriesByCause merges the per-cause retry counters of every runner the
	// workload used.
	RetriesByCause map[string]int64
	// Conflicts counts the real conflicts the storms' commits met — the
	// resolver's, not the injector's — by the store subspace the committed
	// write they lost to lies in (StoreProvider.DescribeKey).
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
	if s.Acked == 0 {
		problems = append(problems, "no write was ever acknowledged")
	}
	if s.CleanFailed == 0 {
		problems = append(problems, "no write failed cleanly; the ghost invariant was untested")
	}
	if s.LostAcks > 0 {
		problems = append(problems, fmt.Sprintf(
			"%d of %d acknowledged writes were lost or corrupt", s.LostAcks, s.Acked))
	}
	if s.Ghosts > 0 {
		problems = append(problems, fmt.Sprintf(
			"%d ghost writes appeared from %d cleanly-failed commits", s.Ghosts, s.CleanFailed))
	}
	lo, hi := int64(s.CounterAcked), int64(s.CounterAcked+s.CounterUnknown)
	if s.CounterValue < lo || s.CounterValue > hi {
		problems = append(problems, fmt.Sprintf(
			"counter is %d, outside [acked=%d, acked+unknown=%d]: increments were lost or double-applied",
			s.CounterValue, lo, hi))
	}
	if s.ScrubIssues > 0 {
		problems = append(problems, fmt.Sprintf(
			"index scrub found %d inconsistencies after the storm", s.ScrubIssues))
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

// chaosSchema is the Note schema with the audited by_zone VALUE index and the
// counter field.
func chaosSchema(version int) (*message.Descriptor, *metadata.MetaData, error) {
	note := message.MustDescriptor("Note",
		message.Field("id", 1, message.TypeInt64),
		message.Field("zone", 2, message.TypeString),
		message.Field("body", 3, message.TypeString),
		message.Field("n", 4, message.TypeInt64),
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

// RunChaos runs the storm, the audit, and the lease churn, and returns the
// combined stats. The fault schedule, workload, and audit are all functions
// of cfg.Seed alone.
func RunChaos(ctx context.Context, cfg ChaosConfig) (ChaosStats, error) {
	cfg = cfg.withDefaults()
	stats := ChaosStats{Config: cfg, LeaseSliceSumOK: true, LeaseEnforcedSumOK: true, Conflicts: map[string]int{}}

	note, md, err := chaosSchema(1)
	if err != nil {
		return stats, err
	}
	ks, providers, err := tenantProviders("chaos", md)
	if err != nil {
		return stats, err
	}
	provider := providers[0]

	inj := fdb.NewFaultInjector(chaosFaults(cfg.Seed))
	db := chaosCluster(inj)
	countConflicts(db, provider, &stats)
	// Cohort A writes get one attempt: retryable failures surface, so the
	// run accumulates writes with a hard "nothing applied" guarantee — the
	// ghost set the audit checks.
	strict := recordlayer.NewRunner(db, recordlayer.RunnerOptions{MaxAttempts: 1, Sleep: instantBackoff})
	runner := recordlayer.NewRunner(db, recordlayer.RunnerOptions{Sleep: instantBackoff})

	// Pre-create the store before the storm so directory allocation is not
	// subject to injected faults.
	inj.Disable()
	if _, err := runner.Run(ctx, openAndSave(provider, chaosTenant)); err != nil {
		return stats, fmt.Errorf("workload: chaos pre-create: %w", err)
	}
	inj.Enable()

	// The storm: three interleaved cohorts plus periodic zone queries, one
	// goroutine, every payload generated outside the closures.
	rng := rand.New(rand.NewSource(cfg.Seed))
	acked := map[int64]string{}     // id -> expected body, write acknowledged
	unknown := map[int64]string{}   // id -> expected body, fate ambiguous
	cleanFailed := map[int64]bool{} // id -> true, guaranteed not applied
	for i := 0; i < cfg.Writes; i++ {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		id := int64(i)
		zone := zones[rng.Intn(len(zones))]
		body := NoteBody(rng, 64+rng.Intn(192))
		stats.Writes++
		switch i % 3 {
		case 0, 1:
			save := openAndSave(provider, chaosTenant,
				message.New(note).MustSet("id", id).MustSet("zone", zone).MustSet("body", body))
			var err error
			if i%3 == 0 {
				// Cohort A: single-attempt Run — acked, ambiguous, or cleanly failed.
				_, err = strict.Run(ctx, save)
			} else {
				// Cohort B: retried as idempotent — ambiguity is retried through.
				//rl:idempotent re-saving the same pre-generated record converges to the same stored state
				_, err = runner.RunIdempotent(ctx, save)
			}
			switch {
			case err == nil:
				acked[id] = body
			case recordlayer.IsMaybeCommitted(err):
				unknown[id] = body
			default:
				cleanFailed[id] = true
			}
		case 2: // Cohort C: non-idempotent read-modify-write counter increment.
			inc := func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
				store, err := provider.Open(ctx, tr, chaosTenant)
				if err != nil {
					return nil, err
				}
				n := int64(0)
				if old, err := store.LoadRecordByKey(tuple.Tuple{counterID}); err != nil {
					return nil, err
				} else if old != nil {
					if v, ok := old.Message.Get("n"); ok {
						n = v.(int64)
					}
				}
				rec := message.New(note).MustSet("id", counterID).
					MustSet("zone", "counter").MustSet("n", n+1)
				_, err = store.SaveRecord(rec)
				return nil, err
			}
			var err error
			if cfg.MisdeclareIncrements {
				//rl:idempotent deliberate misdeclaration — the self-test knob that must make Check fail by double-applying increments
				_, err = runner.RunIdempotent(ctx, inc)
			} else {
				_, err = runner.Run(ctx, inc)
			}
			switch {
			case err == nil:
				stats.CounterAcked++
			case recordlayer.IsMaybeCommitted(err):
				stats.CounterUnknown++
			}
		}
		if (i+1)%queryEvery != 0 {
			continue
		}
		stats.Queries++
		q := query.RecordQuery{
			RecordTypes: []string{"Note"},
			Filter:      query.Field("zone").Equals(zone),
		}
		rows, err := runner.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			store, err := provider.Open(ctx, tr, chaosTenant)
			if err != nil {
				return nil, err
			}
			cur, err := store.ExecuteQuery(ctx, q, recordlayer.ExecuteProperties{
				RowLimit: 50, ScanRecordLimit: 500, Snapshot: true,
			})
			if err != nil {
				return nil, err
			}
			n := 0
			err = cur.ForEach(func(*recordlayer.Record) error { n++; return nil })
			return n, err
		})
		if err != nil {
			// Reads carry no durability invariant; an exhausted retry budget
			// under the fault storm is tolerated and counted.
			stats.QueryFailures++
			continue
		}
		stats.RowsRead += rows.(int)
	}
	stats.Acked = len(acked)
	stats.Unknown = len(unknown)
	stats.CleanFailed = len(cleanFailed)
	stats.Faults = inj.Counts()
	stats.RetriesByCause = mergeCauses(strict.Metrics().RetriesByCause, runner.Metrics().RetriesByCause)

	// The audit: injector off, verify every cohort's fate against the store.
	inj.Disable()
	load := func(id int64) (*core.StoredRecord, error) {
		v, err := runner.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			store, err := provider.Open(ctx, tr, chaosTenant)
			if err != nil {
				return nil, err
			}
			return store.LoadRecordByKey(tuple.Tuple{id})
		})
		if err != nil {
			return nil, err
		}
		return v.(*core.StoredRecord), nil
	}
	body := func(rec *core.StoredRecord) string {
		if rec == nil {
			return ""
		}
		if v, ok := rec.Message.Get("body"); ok {
			return v.(string)
		}
		return ""
	}
	for id, want := range acked {
		rec, err := load(id)
		if err != nil {
			return stats, fmt.Errorf("workload: chaos audit load %d: %w", id, err)
		}
		if rec == nil || body(rec) != want {
			stats.LostAcks++
		}
	}
	for id, want := range unknown {
		rec, err := load(id)
		if err != nil {
			return stats, fmt.Errorf("workload: chaos audit load %d: %w", id, err)
		}
		if rec != nil {
			stats.UnknownApplied++
			// Either fate is legal, but a present record must be intact.
			if body(rec) != want {
				stats.LostAcks++
			}
		}
	}
	for id := range cleanFailed {
		rec, err := load(id)
		if err != nil {
			return stats, fmt.Errorf("workload: chaos audit load %d: %w", id, err)
		}
		if rec != nil {
			stats.Ghosts++
		}
	}
	if rec, err := load(counterID); err != nil {
		return stats, fmt.Errorf("workload: chaos audit counter: %w", err)
	} else if rec != nil {
		if v, ok := rec.Message.Get("n"); ok {
			stats.CounterValue = v.(int64)
		}
	}

	// Scrub every index the storm maintained, both directions.
	space, err := ks.MustPath("app").MustAdd("tenant", chaosTenant).ToSubspaceStatic()
	if err != nil {
		return stats, err
	}
	for _, ix := range md.Indexes() {
		scr := &core.Scrubber{DB: db, MetaData: md, Space: space, IndexName: ix.Name, BatchSize: 32}
		rep, err := scr.Scrub(ctx)
		if err != nil {
			return stats, fmt.Errorf("workload: chaos scrub of %s: %w", ix.Name, err)
		}
		stats.ScrubEntries += rep.EntriesScanned
		stats.ScrubRecords += rep.RecordsScanned
		stats.ScrubIssues += len(rep.Issues)
	}

	// The lease churn and state-cache phases run on their own faulted clusters.
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

// mergeCauses folds per-cause counter maps into one (nil when all empty).
func mergeCauses(ms ...map[string]int64) map[string]int64 {
	var out map[string]int64
	for _, m := range ms {
		for c, n := range m {
			if out == nil {
				out = make(map[string]int64, 8)
			}
			out[c] += n
		}
	}
	return out
}
