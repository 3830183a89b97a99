package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// Runs of whole workloads as child processes of this same binary: each run
// gets a fresh heap and a fresh collector, exactly as the benchmark's command
// does. -agree uses them to show that two sets of runs of the same code agree
// within the benchmark's own bounds.

// childResult is the contract's result line.
type childResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runChild runs one workload in a child process, passing its report through
// to out (nil: discard), and returns the parsed result line.
func runChild(workload string, seed int64, seconds, trace int, out *os.File) (*childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	if out != nil {
		out.Write(stdout.Bytes())
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res childResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return &res, nil
}

// runAll runs every workload once and returns the process exit code.
func runAll(seed int64, seconds, trace int) int {
	code := 0
	for _, w := range workloads {
		if _, err := runChild(w.name, seed, seconds, trace, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			code = 1
		}
	}
	return code
}

// quartiles are Python's statistics.quantiles(xs, n=4): the exclusive method,
// which is what the acceptance check of the benchmark contract uses.
func quartiles(xs []float64) (q [3]float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = max(1, min(n-1, j))
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// runAgree runs, per workload, two sets of k runs of this binary, interleaved
// A B B A ..., run i of either set with seed i. It prints each end-to-end
// metric's median, quartiles and relative spread (interquartile distance over
// median) per set, and fails if a spread other than setup_s's exceeds the
// metric's bound or the two medians differ by more than it.
func runAgree(k, seconds int) int {
	if k < 2 {
		fmt.Fprintln(os.Stderr, "bench: -agree needs at least 2 runs per set")
		return 2
	}
	code := 0
	for _, w := range workloads {
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for i := 0; i < k; i++ {
			order := [2]int{0, 1}
			if i%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, set := range order {
				res, err := runChild(w.name, int64(i+1), seconds, 0, nil)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					return 1
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		fmt.Printf("workload %s: 2 sets x %d runs, seeds 1..%d, %d s each\n", w.name, k, k, seconds)
		// Run i of either set had seed i: everything but wall time and
		// allocation must have repeated to the last digit.
		for _, name := range exactMetrics {
			for i := range sets[0][name] {
				if a, b := sets[0][name][i], sets[1][name][i]; a != b {
					fmt.Printf("  NOT EXACT: %s differs between two runs of seed %d: %v vs %v\n", name, i+1, a, b)
					code = 1
				}
			}
		}
		fmt.Printf("  %-20s %12s %12s %12s %8s | %12s %8s | %8s %6s\n",
			"metric", "A median", "A q1", "A q3", "A iqr", "B median", "B iqr", "|A-B|", "bound")
		for _, d := range endToEnd {
			qa, qb := quartiles(sets[0][d.name]), quartiles(sets[1][d.name])
			spreadA, spreadB := (qa[2]-qa[0])/qa[1], (qb[2]-qb[0])/qb[1]
			diff := math.Abs(qa[1]-qb[1]) / qa[1]
			verdict := ""
			if d.name != "setup_s" && math.Max(spreadA, spreadB) > d.bound {
				verdict = "  SPREAD OVER BOUND"
				code = 1
			}
			if diff > d.bound {
				verdict += "  MEDIANS DISAGREE"
				code = 1
			}
			fmt.Printf("  %-20s %12.6g %12.6g %12.6g %7.2f%% | %12.6g %7.2f%% | %7.2f%% %5.1f%%%s\n",
				d.name, qa[1], qa[0], qa[2], 100*spreadA, qb[1], 100*spreadB, 100*diff, 100*d.bound, verdict)
		}
	}
	return code
}
