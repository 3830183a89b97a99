package workload

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// TestNoisyNeighbor runs a short three-phase experiment and checks the
// structural guarantees that are deterministic: every phase produced victim
// traffic, the governed aggressor was held to its admission cap (burst +
// rate·phase), and it was rejected at least once. Latency ratios are printed
// by cmd/experiments rather than asserted here — they are machine-dependent.
func TestNoisyNeighbor(t *testing.T) {
	cfg := NoisyConfig{
		Victims:          2,
		AggressorWorkers: 4,
		Phase:            200 * time.Millisecond,
		AggressorRate:    30,
		AggressorBurst:   3,
		Seed:             7,
	}
	stats, err := RunNoisyNeighbor(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	find := func(p NoisyPhase, tenant string) *TenantResult {
		for i := range p.Tenants {
			if p.Tenants[i].Tenant == tenant {
				return &p.Tenants[i]
			}
		}
		return nil
	}

	for _, p := range []NoisyPhase{stats.Baseline, stats.Ungoverned, stats.Governed} {
		for i := 0; i < cfg.Victims; i++ {
			v := find(p, fmt.Sprintf("victim-%d", i))
			if v == nil || v.Txns == 0 {
				t.Fatalf("%s: victim-%d did no work: %+v", p.Name, i, p.Tenants)
			}
		}
		if p.VictimP50 <= 0 {
			t.Errorf("%s: no victim latency sample", p.Name)
		}
	}
	if find(stats.Baseline, aggressorTenant) != nil {
		t.Error("baseline phase should have no aggressor")
	}

	ag := find(stats.Governed, aggressorTenant)
	if ag == nil {
		t.Fatal("governed phase missing aggressor row")
	}
	// The token bucket is a hard cap: admissions <= burst + rate*phase (the
	// 1.5 slack absorbs scheduling overrun past the phase deadline).
	if float64(ag.Txns) > stats.AggressorCap*1.5 {
		t.Errorf("governed aggressor ran %d txns, cap is %.0f", ag.Txns, stats.AggressorCap)
	}
	if ag.Rejections == 0 {
		t.Error("governed aggressor was never rejected — quota not exercised")
	}

	un := find(stats.Ungoverned, aggressorTenant)
	if un == nil {
		t.Fatal("ungoverned phase missing aggressor row")
	}
	if un.Txns <= ag.Txns {
		t.Errorf("governance did not reduce aggressor throughput: %d -> %d", un.Txns, ag.Txns)
	}

	// Governance v2 invariants: byte quota capped the byte-hog near its
	// budget, the persisted-limits phase fed two governors identically from
	// one LimitsStore, the background index build made progress, and every
	// deterministic invariant of the CI smoke gate holds.
	if !stats.ByteCapped {
		t.Errorf("byte-hog aggressor charged %d bytes, budget %d",
			aggressorOf(stats.ByteHog).Bytes, stats.ByteBudget)
	}
	if bh := find(stats.ByteHog, aggressorTenant); bh == nil || bh.Rejections == 0 {
		t.Error("byte-hog aggressor was never rejected — byte quota not exercised")
	}
	if !stats.SharedLimitsConsistent {
		t.Error("two governors sharing one LimitsStore disagreed on limits")
	}
	if stats.BgIndex.Indexed == 0 {
		t.Error("background index build made no progress")
	}
	if err := stats.Check(); err != nil {
		t.Errorf("smoke-gate invariants: %v", err)
	}
}
