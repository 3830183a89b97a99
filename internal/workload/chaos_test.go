package workload

import (
	"context"
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
		// The phases must have actually exercised the paths the invariants
		// guard, or a green check proves nothing.
		if stats.Faults.CommitsUnknown == 0 || stats.LeaseRefreshFailures == 0 {
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
	if a.CacheHits != b.CacheHits || a.StateFlips != b.StateFlips || a.NestedFlips != b.NestedFlips ||
		a.StaleMetaDataSeen != b.StaleMetaDataSeen || a.TenantsCreated != b.TenantsCreated ||
		a.CreatedWarmOpens != b.CreatedWarmOpens {
		t.Errorf("state-cache phase diverged: %+v vs %+v", a, b)
	}
}
