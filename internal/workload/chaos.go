package workload

import (
	"context"
	"fmt"
	"strings"
	"time"

	"recordlayer"
	"recordlayer/internal/fdb"
	"recordlayer/internal/resource/lease"
)

// ChaosConfig sizes the chaos run: a fleet of lease-coordinated governors
// churning on a faulted cluster under failed heartbeats and a crash. It is
// single-goroutine, so every fault draw is a function of the seed, and it
// asserts that lease slices never over-grant. Concurrent transactions under
// the same fault mix are the model test's (the root TestStoreAgreesWithModel
// and its Interleave op), as are lost writes, ghost writes, a non-idempotent
// counter and scrubs.
type ChaosConfig struct {
	// Seed drives the fault schedule.
	Seed int64
	// LeaseRounds is how many heartbeat rounds the lease-churn phase runs
	// (default 40).
	LeaseRounds int
}

func (c ChaosConfig) withDefaults() ChaosConfig {
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
	}
}

// chaosTenant owns the leased budget.
const chaosTenant = "chaos"

// ChaosStats is the chaos run's outcome; Check is the CI smoke gate.
type ChaosStats struct {
	Config ChaosConfig

	// Faults is what the lease phase's injector dealt.
	Faults fdb.FaultCounts

	LeaseRounds          int
	LeaseRefreshFailures int // heartbeats killed by injected faults
	// LeaseSliceSumOK reports every sampled lease-table state kept
	// sum(live slices) <= the global limit.
	LeaseSliceSumOK bool
	// LeaseEnforcedSumOK reports the rates the live managers actually
	// enforced never summed past global*(1+servers*MinFraction) — decayed
	// holders sit at the floor, never at their stale slice.
	LeaseEnforcedSumOK bool
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
	if len(problems) == 0 {
		return nil
	}
	return fmt.Errorf("chaos invariants violated:\n  - %s", strings.Join(problems, "\n  - "))
}

// RunChaos runs the lease churn on a faulted cluster and returns its stats,
// a function of cfg.Seed alone.
func RunChaos(ctx context.Context, cfg ChaosConfig) (ChaosStats, error) {
	cfg = cfg.withDefaults()
	stats := ChaosStats{Config: cfg, LeaseSliceSumOK: true, LeaseEnforcedSumOK: true}
	err := runChaosLeases(ctx, cfg, &stats)
	return stats, err
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
	stats.Faults = inj.Counts()
	return nil
}
