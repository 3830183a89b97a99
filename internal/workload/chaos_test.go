package workload

import (
	"context"
	"strings"
	"testing"
)

// TestChaosInvariantsHoldOnCISeeds replays the exact runs the CI smoke gate
// executes: default chaos config over the three pinned seeds, every invariant
// green.
func TestChaosInvariantsHoldOnCISeeds(t *testing.T) {
	for _, seed := range []int64{7, 42, 1337} {
		stats, err := RunChaos(context.Background(), ChaosConfig{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := stats.Check(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		// The storm must have actually exercised the paths the invariants
		// guard, or a green check proves nothing.
		if stats.Faults.CommitsUnknown == 0 || stats.CleanFailed == 0 || stats.LeaseRefreshFailures == 0 {
			t.Errorf("seed %d: under-exercised run: %+v", seed, stats.Faults)
		}
	}
}

// TestChaosDeterministicPerSeed: two runs of the same seed produce the same
// stats — the property that makes a chaos failure reproducible.
func TestChaosDeterministicPerSeed(t *testing.T) {
	a, err := RunChaos(context.Background(), ChaosConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(context.Background(), ChaosConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Faults != b.Faults {
		t.Errorf("fault schedules diverged: %+v vs %+v", a.Faults, b.Faults)
	}
	if a.Acked != b.Acked || a.Unknown != b.Unknown || a.CleanFailed != b.CleanFailed ||
		a.CounterValue != b.CounterValue {
		t.Errorf("write fates diverged: %+v vs %+v", a, b)
	}
	if a.CacheHits != b.CacheHits || a.StateFlips != b.StateFlips || a.NestedFlips != b.NestedFlips ||
		a.StaleMetaDataSeen != b.StaleMetaDataSeen || a.TenantsCreated != b.TenantsCreated ||
		a.CreatedWarmOpens != b.CreatedWarmOpens {
		t.Errorf("state-cache phase diverged: %+v vs %+v", a, b)
	}
}

// TestChaosCatchesMisdeclaredIdempotency: the harness's self-test knob routes
// the non-idempotent counter increments through RunIdempotent, so a
// maybe-committed attempt that in fact applied is blindly re-run and
// double-increments. Check MUST flag it — this is the proof the gate would
// catch a real maybe-committed regression, not rubber-stamp it.
func TestChaosCatchesMisdeclaredIdempotency(t *testing.T) {
	// Seed 7 is verified to deal at least one unknown-but-applied counter
	// commit; it is also the first CI seed.
	stats, err := RunChaos(context.Background(), ChaosConfig{Seed: 7, MisdeclareIncrements: true})
	if err != nil {
		t.Fatal(err)
	}
	cerr := stats.Check()
	if cerr == nil {
		t.Fatal("misdeclared idempotency went undetected; the chaos gate has no teeth")
	}
	if !strings.Contains(cerr.Error(), "double-applied") {
		t.Errorf("Check flagged the wrong invariant: %v", cerr)
	}
	if stats.CounterValue <= int64(stats.CounterAcked+stats.CounterUnknown) {
		t.Errorf("counter %d within [%d, %d]; expected an overshoot",
			stats.CounterValue, stats.CounterAcked, stats.CounterAcked+stats.CounterUnknown)
	}
}
