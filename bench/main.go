// Command bench is the repository's benchmark: one closed-loop client on one
// core drives four workloads through the public recordlayer façade against
// the internal/fdb simulator, reports latency in simulated time and costs as
// exact counts, and checks every result against a naive in-benchmark model.
// See README.md.
//
//	bench --workload ck_mix --seed 1 --seconds 10 --trace 0   one run, as BENCHMARK.json's command
//	bench --seed 1                                              all four workloads
//	bench --seed 1 --trace 1                                    per-layer probes and traced runs
//	bench --agree 5                                             two interleaved sets of 5 runs per workload
package main

import (
	"flag"
	"fmt"
	"os"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 10

func main() {
	workloadName := flag.String("workload", "", "workload to run (default: all four, one child process each)")
	seed := flag.Int64("seed", 1, "seed of the workload generator; the only input that changes what the library sees")
	seconds := flag.Int("seconds", defaultSeconds, "length of the timed phase: it runs opsPerSecond x seconds ops")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run and per-layer probes")
	agree := flag.Int("agree", 0, "run two interleaved sets of K runs per workload and compare their medians")
	describe := flag.Bool("describe", false, "print BENCHMARK.json as this program defines it, and exit")
	flag.Parse()
	if *describe {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	pinProcess()

	switch {
	case *agree > 0:
		os.Exit(runAgree(*agree, *seconds))
	case *workloadName == "":
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	w := workloadByName(*workloadName)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	nOps := w.opsPerSecond * *seconds
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed, nOps)
	} else {
		res, err = runEndToEnd(w, *seed, nOps)
	}
	if err == nil {
		err = res.complete()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: workload %s seed %d: %v\n", w.name, *seed, err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.correct() {
		os.Exit(1)
	}
}
