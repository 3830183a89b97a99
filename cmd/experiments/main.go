// Command experiments regenerates every table and figure of the paper's
// evaluation. Run a single experiment with -run <id> or everything with
// -run all.
//
//	go run ./cmd/experiments -run all
//	go run ./cmd/experiments -run f1      # Figure 1
//	go run ./cmd/experiments -run t1      # Table 1
//	go run ./cmd/experiments -run t2      # Table 2
//	go run ./cmd/experiments -run e1      # §8.2 key overheads
//	go run ./cmd/experiments -run e2      # §2 transaction sizes
//	go run ./cmd/experiments -run f5      # Figure 5 rank walkthrough
//	go run ./cmd/experiments -run a1..a4  # ablations
//	go run ./cmd/experiments -run nn      # noisy-neighbor tenant governance
//	go run ./cmd/experiments -run chaos   # lease churn and state cache under faults
//
// With -short, nn and chaos are CI's smoke gates: nn runs 150 ms phases and
// exits non-zero if a governance invariant fails; chaos replays three pinned
// seeds, and its output is a function of those seeds alone. Lost and ghost
// writes under the same faults are checked by the root package's model test
// (go test -run TestStoreAgreesWithModel .), not here.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"recordlayer/internal/exp"
	"recordlayer/internal/workload"
)

func main() {
	run := flag.String("run", "all", "experiment id: f1,t1,t2,e1,e2,f5,a1,a2,a3,a4,nn,chaos,all")
	stores := flag.Int("stores", 200_000, "synthetic record stores for Figure 1")
	docs := flag.Int("docs", 233, "documents for Table 2 (paper used 233)")
	txns := flag.Int("txns", 300, "transactions for the size distribution")
	short := flag.Bool("short", false, "short deterministic mode: small phases, exit non-zero on violated governance invariants (the CI smoke gate)")
	flag.Parse()

	ids := []string{*run}
	if *run == "all" {
		ids = []string{"f1", "t1", "t2", "e1", "e2", "f5", "a1", "a2", "a3", "a4", "nn", "chaos"}
	}
	for i, id := range ids {
		if i > 0 {
			fmt.Println("\n" + line() + "\n")
		}
		if err := runOne(id, *stores, *docs, *txns, *short); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}

func line() string {
	return "================================================================"
}

func runOne(id string, stores, docs, txns int, short bool) error {
	w := os.Stdout
	switch id {
	case "f1":
		exp.RunFigure1(w, stores)
	case "t1":
		_, err := exp.RunTable1(w)
		return err
	case "t2":
		_, err := exp.RunTable2(w, docs, []int{1, 20})
		return err
	case "e1":
		_, err := exp.RunOverheads(w)
		return err
	case "e2":
		_, err := exp.RunTxnSizes(w, txns)
		return err
	case "f5":
		_, err := exp.RunFigure5(w)
		return err
	case "a1":
		_, err := exp.RunAtomicVsRMW(w, 8, 40)
		return err
	case "a2":
		_, err := exp.RunVersionCache(w, 500)
		return err
	case "a3":
		fmt.Fprintln(w, "Ablation A3: bunch size sweep (Table 2 corpus)")
		fmt.Fprintln(w)
		_, err := exp.RunTable2(w, docs, []int{1, 2, 5, 10, 20, 50})
		return err
	case "a4":
		_, err := exp.RunSyncAblation(w, 8, 25)
		return err
	case "nn":
		return runNoisyNeighbor(w, short)
	case "chaos":
		return runChaos(w, short)
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}

// runNoisyNeighbor prints the tenant-governance isolation experiment: N
// well-behaved tenants with and without an aggressor, under each governance
// mechanism in turn (txn-rate quota, byte-rate quota, persisted limits on
// two servers, background index build). In short mode it uses small phases
// and fails on violated invariants — the CI gate.
func runNoisyNeighbor(w io.Writer, short bool) error {
	cfg := workload.NoisyConfig{Seed: 42}
	if short {
		cfg.Phase = 150 * time.Millisecond
		cfg.IndexRecords = 600
	}
	fmt.Fprintln(w, "Noisy neighbor: per-tenant governance (Accountant + Governor)")
	stats, err := workload.RunNoisyNeighbor(context.Background(), cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %d well-behaved tenants (3x200B txns) vs 1 aggressor (%d workers, 12x4kB txns)\n",
		workload.Victims, workload.AggressorWorkers)
	fmt.Fprintf(w, "  governed aggressor quota: %.0f txn/s, burst %d, concurrency 1 (cap %.0f txns/phase)\n",
		workload.AggressorRate, workload.AggressorBurst, stats.AggressorCap)
	fmt.Fprintf(w, "  byte-hog aggressor quota: %.0f B/s, byte burst %d\n\n",
		workload.AggressorByteRate, workload.AggressorByteBurst)

	printPhase := func(p workload.NoisyPhase) {
		fmt.Fprintf(w, "  phase %-10s  victim p50 %8v  p95 %8v\n", p.Name, p.VictimP50, p.VictimP95)
		for _, t := range p.Tenants {
			line := fmt.Sprintf("    %-10s %6d txns  %8.0f txn/s", t.Tenant, t.Txns, t.Throughput)
			if t.P50 > 0 {
				line += fmt.Sprintf("  p50 %8v", t.P50)
			}
			if t.Tenant == "aggressor" && t.Bytes > 0 {
				line += fmt.Sprintf("  %8.1f MB", float64(t.Bytes)/(1<<20))
			}
			if t.Rejections > 0 {
				line += fmt.Sprintf("  (%d quota rejections)", t.Rejections)
			}
			fmt.Fprintln(w, line)
		}
		if p.Indexed > 0 {
			fmt.Fprintf(w, "    background index build processed %d records (yielding to foreground)\n", p.Indexed)
			fmt.Fprintf(w, "    billed to the build's tenant: %d txns, %d admissions (%d queued), %d B read, %d B written\n",
				p.Bulk.Transactions, p.Bulk.Admitted, p.Bulk.Throttled, p.Bulk.ReadBytes, p.Bulk.WriteBytes)
		}
		fmt.Fprintf(w, "    cluster I/O: %d commits, %d conflicts, %d keys written (%d B)\n",
			p.IO.Commits, p.IO.Conflicts, p.IO.KeysWritten, p.IO.BytesWritten)
	}
	printPhase(stats.Baseline)
	printPhase(stats.Ungoverned)
	printPhase(stats.Governed)
	printPhase(stats.ByteHog)
	printPhase(stats.Persisted)
	printPhase(stats.Distributed)
	printPhase(stats.BgIndex)

	ratio := func(p workload.NoisyPhase) float64 {
		if stats.Baseline.VictimP50 == 0 {
			return 0
		}
		return float64(p.VictimP50) / float64(stats.Baseline.VictimP50)
	}
	fmt.Fprintf(w, "\n  victim p50 vs baseline: ungoverned %.1fx, governed %.1fx, byte-hog %.1fx, persisted %.1fx (target <= 2x)\n",
		ratio(stats.Ungoverned), ratio(stats.Governed), ratio(stats.ByteHog), ratio(stats.Persisted))
	fmt.Fprintf(w, "  victim p50 under background index build: %.1fx of baseline (target ~1.2x)\n",
		ratio(stats.BgIndex))
	// The persisted phase halves the quota per server, so the two servers'
	// combined budget equals the single-server cap.
	fmt.Fprintf(w, "  aggressor txns/phase: ungoverned %d -> txn-governed %d (cap %.0f) -> persisted-on-2-servers %d (combined cap ~%.0f)\n",
		workload.AggressorOf(stats.Ungoverned).Txns, workload.AggressorOf(stats.Governed).Txns, stats.AggressorCap,
		workload.AggressorOf(stats.Persisted).Txns, stats.AggressorCap)
	fmt.Fprintf(w, "  aggressor bytes: ungoverned %.1f MB -> byte-governed %.2f MB (budget %.2f MB, capped: %v)\n",
		float64(workload.AggressorOf(stats.Ungoverned).Bytes)/(1<<20),
		float64(workload.AggressorOf(stats.ByteHog).Bytes)/(1<<20),
		float64(stats.ByteBudget)/(1<<20), stats.ByteCapped)
	fmt.Fprintf(w, "  persisted limits: two governors loaded one LimitsStore, consistent: %v\n",
		stats.SharedLimitsConsistent)
	// The distributed phase stores the FULL global quota once; quota leases
	// split it across three governors at runtime.
	fmt.Fprintf(w, "  distributed (3 lease-coordinated governors): aggressor %d txns (global cap %.0f), %.2f MB (global budget %.2f MB, capped: %v)\n",
		workload.AggressorOf(stats.Distributed).Txns, stats.DistributedCap,
		float64(workload.AggressorOf(stats.Distributed).Bytes)/(1<<20),
		float64(stats.DistributedByteBudget)/(1<<20), stats.DistributedByteCapped)
	fmt.Fprintf(w, "  lease slices summed <= global limit on every sample: %v; metering export matched accountants: %v\n",
		stats.LeaseSliceSumOK, stats.ExportConsistent)
	if stats.Isolated {
		fmt.Fprintln(w, "  ISOLATION HELD: governed victims within 2x of aggressor-free baseline")
	} else {
		fmt.Fprintln(w, "  isolation NOT held on this run/machine (timing-sensitive)")
	}

	if short {
		if err := stats.Check(); err != nil {
			return err
		}
		fmt.Fprintln(w, "  SMOKE GATE PASSED: all governance invariants held")
	}
	return nil
}

// chaosSeeds are the fixed fault schedules the short (CI smoke gate) mode
// replays; a full run uses the first seed only but a larger workload.
var chaosSeeds = []int64{7, 42, 1337}

// runChaos prints the two chaos phases, each on a cluster under injected
// conflicts, maybe-committed commits, stale reads and latency spikes: lease
// churn (over-grant bounds through failed heartbeats and a crash) and a warm
// store-state cache under index-state flips, tenant creation and a schema
// upgrade (coherence). In short mode it replays every fixed seed and fails
// on any violated invariant — the CI gate.
func runChaos(w io.Writer, short bool) error {
	fmt.Fprintln(w, "Chaos: deterministic fault injection, lease churn and state-cache coherence")
	seeds := chaosSeeds
	cfg := workload.ChaosConfig{Writes: 600, LeaseRounds: 60}
	if short {
		cfg = workload.ChaosConfig{} // defaults: 120 state-cache saves, 40 lease rounds
	} else {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		cfg.Seed = seed
		stats, err := workload.RunChaos(context.Background(), cfg)
		if err != nil {
			return err
		}
		f := stats.Faults
		fmt.Fprintf(w, "\n  seed %d\n", seed)
		fmt.Fprintf(w, "    state-cache faults dealt: %d conflicts, %d unknown-result (%d applied), %d stale reads, %d future reads, %d latency spikes\n",
			f.CommitsNotCommitted, f.CommitsUnknown, f.UnknownApplied, f.ReadsTooOld, f.ReadsFuture, f.LatencySpikes)
		fmt.Fprintf(w, "    leases: %d rounds, %d failed heartbeats, slice-sum ok: %v, enforced-sum ok: %v\n",
			stats.LeaseRounds, stats.LeaseRefreshFailures, stats.LeaseSliceSumOK, stats.LeaseEnforcedSumOK)
		fmt.Fprintf(w, "    state cache: %d cached opens in %d saves; %d flips (%d inside a cached save, %d committed through); %d scrubs, %d skipped entries; stale schema refused %d, served %d\n",
			stats.CacheHits, stats.CacheSaves, stats.StateFlips, stats.NestedFlips, stats.NestedFlipStaleCommits,
			stats.CacheScrubs, stats.CacheScrubIssues, stats.StaleMetaDataSeen, stats.StaleMetaDataMissed)
		fmt.Fprintf(w, "    tenants created mid-storm: %d; next opens warm %d, stale %d\n",
			stats.TenantsCreated, stats.CreatedWarmOpens, stats.CreatedStaleOpens)
		if len(stats.RetriesByCause) > 0 {
			fmt.Fprintf(w, "    retries by cause: %v\n", stats.RetriesByCause)
		}
		fmt.Fprintf(w, "    real conflicts by subspace: %v\n", stats.Conflicts)
		if err := stats.Check(); err != nil {
			return err
		}
	}
	if short {
		fmt.Fprintf(w, "\n  SMOKE GATE PASSED: all chaos invariants held across %d seeds\n", len(seeds))
	} else {
		fmt.Fprintln(w, "\n  all chaos invariants held")
	}
	return nil
}
