package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// metricDef names one reported metric. BENCHMARK.json carries the same
// lists; bench_test.go keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system would see, per workload. Failures are
// not a metric here: the result line carries attempted and failed counts, and
// any failed op makes the run incorrect.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"txn_per_s", "txn/s", "higher", 0.20},
	{"read_sim_p50_ms", "ms", "lower", 0.01},
	{"read_sim_p99_ms", "ms", "lower", 0.01},
	{"write_sim_p50_ms", "ms", "lower", 0.01},
	{"write_sim_p99_ms", "ms", "lower", 0.02},
	{"alloc_kb_per_txn", "KB", "lower", 0.03},
	{"heap_live_mb", "MB", "lower", 0.05},
	{"keys_read_per_txn", "keys", "lower", 0.015},
	{"write_amp", "ratio", "lower", 0.03},
	{"space_amp", "ratio", "lower", 0.015},
}

// exactMetrics are the end-to-end metrics that are pure functions of the
// seed: simulated time and counts. Two runs of one seed give the same value
// to the last digit.
var exactMetrics = []string{"read_sim_p50_ms", "read_sim_p99_ms", "write_sim_p50_ms", "write_sim_p99_ms",
	"keys_read_per_txn", "write_amp", "space_amp"}

func lower(name, unit string) metricDef  { return metricDef{name: name, unit: unit, better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{name: name, unit: unit, better: "higher"} }

// perLayer is measured in -trace runs: fixed-count probe loops into each
// layer's public functions, plus the traced run of the workload itself.
var perLayer = []metricDef{
	lower("tuple.pack_ns", "ns"), lower("tuple.unpack_ns", "ns"), lower("tuple.pack_allocs", "count"),
	lower("message.marshal_ns", "ns"), lower("message.unmarshal_ns", "ns"), lower("message.unmarshal_allocs", "count"),
	lower("keyexpr.eval_ns", "ns"),
	lower("keyspace.resolve_ns", "ns"), lower("keyspace.resolve_keys_read", "keys"),
	lower("fdb.get_ns", "ns"), lower("fdb.getrange_ns_per_kv", "ns"),
	lower("fdb.set_ns_at_10", "ns"), lower("fdb.set_ns_at_1000", "ns"), lower("fdb.set_alloc_b_at_1000", "B"),
	lower("fdb.rywrange_ns_at_1000", "ns"),
	lower("fdb.commit_ns_per_mutation", "ns"), lower("fdb.conflict_check_ns", "ns"),
	lower("kvcursor.scan_ns_per_kv", "ns"), lower("kvcursor.batches_per_1k_kv", "count"),
	lower("cursor.union_ns_per_row", "ns"), lower("cursor.intersection_ns_per_row", "ns"), lower("cursor.mapasync_ns_per_row", "ns"),
	lower("index.value.update_ns", "ns"), lower("index.value.update_keys_read", "keys"), lower("index.value.update_keys_written", "keys"),
	lower("index.sum.update_ns", "ns"), lower("index.sum.update_keys_read", "keys"), lower("index.sum.update_keys_written", "keys"),
	lower("index.version.update_ns", "ns"), lower("index.version.update_keys_read", "keys"), lower("index.version.update_keys_written", "keys"),
	lower("index.rank.update_ns", "ns"), lower("index.rank.update_keys_read", "keys"), lower("index.rank.update_keys_written", "keys"),
	lower("index.text.update_ns", "ns"), lower("index.text.update_keys_read", "keys"), lower("index.text.update_keys_written", "keys"),
	lower("index.value.scan_ns_per_entry", "ns"), lower("index.rank.lookup_ns", "ns"),
	lower("core.open_ns", "ns"), lower("core.open_keys_read", "keys"),
	lower("core.save_ns", "ns"), lower("core.save_keys_written", "keys"),
	lower("core.load_ns", "ns"), lower("core.delete_ns", "ns"),
	lower("core.scan_ns_per_record_at_100", "ns"), lower("core.scan_ns_per_record_at_1000", "ns"),
	lower("plan.plan_ns", "ns"),
	lower("plan.keys_per_row.index_fetch", "keys"), lower("plan.keys_per_row.covering", "keys"),
	lower("plan.keys_per_row.union2", "keys"), lower("plan.keys_per_row.intersection2", "keys"),
	lower("plan.keys_per_row.fullscan", "keys"),
	higher("recordlayer.plancache_hit_share", "ratio"), lower("recordlayer.plancache_get_ns", "ns"),
	lower("recordlayer.runner_empty_run_ns", "ns"), lower("recordlayer.retries_per_txn", "ratio"),
	lower("resource.admit_ns", "ns"), lower("resource.meter_ns", "ns"), lower("resource.state_b_per_tenant", "B"),
	lower("span.open_us", "us"), lower("span.plan_us", "us"), lower("span.execute_us", "us"),
	lower("span.save_us", "us"), lower("span.commit_us", "us"),
	lower("trace.admit_ms_per_txn", "ms"), lower("trace.grv_ms_per_txn", "ms"),
	lower("trace.read_wait_ms_per_txn", "ms"), lower("trace.commit_ms_per_txn", "ms"),
	lower("trace.index.value_ms_per_txn", "ms"), lower("trace.index.sum_ms_per_txn", "ms"),
	lower("trace.index.version_ms_per_txn", "ms"), lower("trace.index.rank_ms_per_txn", "ms"),
	lower("trace.index.text_ms_per_txn", "ms"),
	lower("trace.read_windows_per_txn", "count"), higher("trace.reads_per_window", "ratio"),
	lower("obs.trace_overhead_share", "ratio"),
}

// result is one run's outcome: the contract's result line plus notes for the
// human reading the output.
type result struct {
	workload  string
	seed      int64
	defs      []metricDef
	values    map[string]float64
	attempted int
	failed    int
	notes     []string
	failures  []string
}

func newResult(w *workload, seed int64) *result {
	return &result{workload: w.name, seed: seed, defs: endToEnd, values: map[string]float64{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) notef(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a wrong answer. The seed is printed with it, so the failure
// replays.
func (r *result) fail(format string, args ...interface{}) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return len(r.failures) == 0 && r.failed == 0 }

// complete reports metrics the run failed to produce a finite value for.
func (r *result) complete() error {
	for _, d := range r.defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value", d.name)
		}
	}
	return nil
}

// print writes every metric by name with its unit, then, as the last line,
// the contract's JSON object.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d\n", r.workload, r.seed)
	for _, d := range r.defs {
		fmt.Fprintf(w, "  %-40s %16.6g %s\n", d.name, r.values[d.name], d.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "  WRONG (workload %s, seed %d): %s\n", r.workload, r.seed, f)
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, r.correct(), r.attempted, r.failed)
	for i, d := range r.defs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, d.name,
			strconv.FormatFloat(r.values[d.name], 'g', -1, 64), d.unit)
	}
	b.WriteString("}}")
	fmt.Fprintln(w, b.String())
}

// benchmarkJSON renders BENCHMARK.json from the definitions above, so the
// file at the repository root cannot drift from what the program reports:
// bench_test.go compares the two.
func benchmarkJSON() []byte {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, named{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers always marshal
	}
	return append(out, '\n')
}
