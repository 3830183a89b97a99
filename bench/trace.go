package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"recordlayer"
)

// Tracing for -trace runs. The benchmark opens its own spans around each
// façade call — open, plan, execute, save, commit, under one root span per
// op — in simulated time, keeps them in memory, and writes them out when the
// run ends. It also attaches the library's own recordlayer.Trace to each
// op's context and folds those spans (admission, GRV, read windows, awaits,
// per-index maintenance, commit) into per-op totals. Untraced runs pay one
// nil check per site.

type spanName uint8

const (
	spanOp spanName = iota
	spanOpen
	spanPlan
	spanExecute
	spanSave
	spanCommit
	numSpanNames
)

var spanNames = [numSpanNames]string{"op", "open", "plan", "execute", "save", "commit"}

// span is one interval of the benchmark's own tracing. op identifies the
// request; every span but the root is caused by the op's root span.
type span struct {
	op         int32
	name       spanName
	start, end int64
}

type tracer struct {
	e     *env
	spans []span
	op    int32
	// opStart and fnEnd are simulated-clock readings: when the current op
	// began, and when its last transactional closure returned (the commit
	// span runs from there to the Runner call's return).
	opStart, fnEnd int64
	cur            *recordlayer.Trace
	// lib folds the library's spans by name: count and total nanoseconds.
	lib map[string]*spanAgg
}

type spanAgg struct {
	n     int64
	nanos int64
}

func newTracer(e *env) *tracer { return &tracer{e: e, lib: map[string]*spanAgg{}} }

func (t *tracer) begin(ctx context.Context) context.Context {
	t.cur = recordlayer.NewTrace()
	t.opStart = t.e.now()
	t.fnEnd = t.opStart
	return recordlayer.WithTrace(ctx, t.cur)
}

func (t *tracer) end() {
	t.spans = append(t.spans, span{op: t.op, name: spanOp, start: t.opStart, end: t.e.now()})
	for _, s := range t.cur.Spans() {
		a := t.lib[s.Name]
		if a == nil {
			a = &spanAgg{}
			t.lib[s.Name] = a
		}
		a.n++
		a.nanos += s.End - s.Start
	}
	t.cur = nil
	t.op++
}

func (e *env) spanStart() int64 {
	if e.tr == nil {
		return 0
	}
	return e.now()
}

func (e *env) span(name spanName, t0 int64) {
	if e.tr != nil {
		e.tr.spans = append(e.tr.spans, span{op: e.tr.op, name: name, start: t0, end: e.now()})
	}
}

func (e *env) markFnEnd() {
	if e.tr != nil {
		e.tr.fnEnd = e.now()
	}
}

// spanCommit closes the commit span: from the closure's return to the Runner
// call's return. Read-only transactions get a zero-length one.
func (e *env) spanCommit() {
	if e.tr != nil {
		e.span(spanCommit, e.tr.fnEnd)
	}
}

// totals sums each span name's duration over the run, in nanoseconds. The
// root's self time is its duration minus what its children cover; children
// never overlap each other, so that is a plain subtraction.
func (t *tracer) totals() (byName [numSpanNames]int64, opSelf int64) {
	for _, s := range t.spans {
		byName[s.name] += s.end - s.start
	}
	opSelf = byName[spanOp]
	for n := spanOpen; n < numSpanNames; n++ {
		opSelf -= byName[n]
	}
	return byName, opSelf
}

func (t *tracer) libNanos(name string) int64 {
	if a := t.lib[name]; a != nil {
		return a.nanos
	}
	return 0
}

func (t *tracer) libCount(name string) int64 {
	if a := t.lib[name]; a != nil {
		return a.n
	}
	return 0
}

// outDir is where span files go: bench/out under the checkout root, or out
// when the program runs from its own directory.
func outDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// write dumps the benchmark's spans as one JSON object per line: op id, span
// name, parent (the op's root span for every child), start and end in
// simulated nanoseconds.
func (t *tracer) write(workload string) (string, error) {
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		parent := `"op"`
		if s.name == spanOp {
			parent = "null"
		}
		fmt.Fprintf(w, `{"op":%d,"name":%q,"parent":%s,"start_ns":%d,"end_ns":%d}`+"\n",
			s.op, spanNames[s.name], parent, s.start, s.end)
	}
	// The library's own spans, folded: one line per span name.
	var names []string
	for n := range t.lib {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, `{"library_span":%q,"count":%d,"total_ns":%d}`+"\n", n, t.lib[n].n, t.lib[n].nanos)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
