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
// stats, every field of them, the faults dealt included — the property that
// makes a chaos failure reproducible.
func TestChaosDeterministicPerSeed(t *testing.T) {
	a, err := RunChaos(context.Background(), ChaosConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(context.Background(), ChaosConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("seed 42 ran twice differently: %+v vs %+v", a, b)
	}
}
