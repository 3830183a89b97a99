package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// small shrinks a workload to a size the whole suite runs at in seconds. The
// mix, schema and code paths are the workload's own.
func small(name string) *workload {
	w := *workloadByName(name)
	w.tenants = min(w.tenants, 4)
	w.perTenant = min(w.perTenant, 150)
	return &w
}

const smallOps = 300

// Two runs of one seed must agree to the last digit on everything derived
// from simulated time and counts; a run of another seed draws different
// literals, tenants and record contents but the same op mix, so those metrics
// move little. At this scale (300 ops) "little" is 15 %; at full size the
// README's -agree tables show the spreads the bounds are set from.
func TestExactMetricsRepeatAndSeedsAgree(t *testing.T) {
	for _, wl := range workloads {
		w := small(wl.name)
		var runs [3]*result
		for i, seed := range []int64{7, 7, 8} {
			res, err := runEndToEnd(w, seed, smallOps)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() {
				t.Fatalf("%s seed %d: oracle failed: %v", w.name, seed, res.failures)
			}
			if err := res.complete(); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
			runs[i] = res
		}
		a, b, other := runs[0].values, runs[1].values, runs[2].values
		moved := false
		for _, name := range exactMetrics {
			if a[name] != b[name] {
				t.Errorf("%s: %s differs between two runs of one seed: %v vs %v", w.name, name, a[name], b[name])
			}
			moved = moved || a[name] != other[name]
		}
		if !moved {
			t.Errorf("%s: two seeds gave identical metrics; the seed is not reaching the generator", w.name)
		}
		for _, name := range []string{"read_sim_p50_ms", "write_sim_p50_ms", "keys_read_per_txn", "write_amp", "space_amp"} {
			if math.Abs(a[name]-other[name])/a[name] > 0.15 {
				t.Errorf("%s: %s moved %v -> %v between seeds", w.name, name, a[name], other[name])
			}
		}
		// Allocation is exact but for the runtime's own background
		// allocations, a rounding error over a full-size run (README, "What
		// repeats") and a larger share at this scale: 1 % here.
		if x, y := a["alloc_kb_per_txn"], b["alloc_kb_per_txn"]; math.Abs(x-y)/x > 0.01 {
			t.Errorf("%s: alloc_kb_per_txn %v vs %v", w.name, x, y)
		}
	}
}

func TestOracleCatchesCorruptModel(t *testing.T) {
	for _, wl := range workloads {
		w := small(wl.name)
		g := generate(w, 3, smallOps)
		e, _, err := setUp(w, 3, g, 1)
		if err != nil {
			t.Fatal(err)
		}
		e.runOps(g.ops, nil)
		clean := newResult(w, 3)
		if _, err := e.check(g, clean); err != nil {
			t.Fatal(err)
		}
		if !clean.correct() {
			t.Fatalf("%s: oracle rejects a correct run: %v", w.name, clean.failures)
		}
		// One record's score off by one, and one record the store never lost.
		for id, r := range g.model.recs[0] {
			r.score++
			g.model.recs[0][id] = r
			break
		}
		g.model.recs[1][1<<40] = row{zone: w.zones[0]}
		bad := newResult(w, 3)
		if _, err := e.check(g, bad); err != nil {
			t.Fatal(err)
		}
		if len(bad.failures) < 2 {
			t.Errorf("%s: oracle missed a corrupted model: %v", w.name, bad.failures)
		}
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	w := small("index_write")
	dir := t.TempDir()
	old, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)
	res, err := runTraced(w, 5, 4*smallOps)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.complete(); err != nil {
		t.Error(err)
	}
	if !res.correct() {
		t.Errorf("traced run incorrect: %v", res.failures)
	}
	if _, err := os.Stat("out/index_write.spans.jsonl"); err != nil {
		t.Error(err)
	}
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from `bench --describe`; regenerate it")
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(onDisk, &doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("bad unit %q of %s", u, n)
		}
	}
	for _, w := range doc.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 {
			t.Errorf("why of %s is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range doc.EndToEnd {
		check(m.Name, m.Unit)
		hasSetup = hasSetup || m.Name == "setup_s"
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound of %s is %v", m.Name, m.Bound)
		}
	}
	for _, m := range doc.PerLayer {
		check(m.Name, m.Unit)
	}
	if !hasSetup || len(doc.PerLayer) > 128 || len(doc.EndToEnd) > 16 {
		t.Error("BENCHMARK.json is outside the contract's limits")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	want := [3]float64{3.5, 13.5, 31.0}
	if q != want {
		t.Errorf("quartiles = %v, want %v", q, want)
	}
}
