// Package obs is the observability substrate: transaction traces, per-node
// query execution stats, a pull-based metrics registry with Prometheus text
// export, and a slow-query log. It depends only on the standard library so
// every other layer — the fdb simulator, the runner, the plan executor — can
// import it without cycles.
//
// Everything here is disabled-by-default and priced for the hot path: a nil
// *Trace, a nil *PlanStats, and an unset slow-query log cost one pointer
// check at each instrumentation site (the same pattern as a transaction with
// no meter bound and the latency-off fast path in internal/fdb).
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span names recorded by the built-in instrumentation sites. A span's
// timestamps are readings of the clock relevant to its layer: fdb spans
// (read, await, GRV, commit) are priced by the database's latency clock — the
// deterministic virtual clock under Options.Latency.Virtual, so span tests
// assert exact windows — while runner spans (admission, attempts, backoff)
// use the runner's wall clock. Durations are therefore always meaningful;
// comparing timestamps across layers is only meaningful outside virtual mode.
const (
	// SpanRead is one read window: issue time to ready time. Overlapped
	// reads produce overlapping SpanRead windows — the visible proof of §8's
	// asynchronous pipelining.
	SpanRead = "fdb.read"
	// SpanAwait is actual blocking on a read: recorded only when an await
	// really waited, so K overlapped reads show K SpanRead windows inside
	// one SpanAwait.
	SpanAwait = "fdb.await"
	// SpanGRV is the read-version acquisition round trip.
	SpanGRV = "fdb.grv"
	// SpanCommit covers commit validation plus the priced commit round trip.
	SpanCommit = "fdb.commit"
	// SpanAdmit covers Governor admission queueing in the Runner.
	SpanAdmit = "runner.admit"
	// SpanAttempt covers one transactional attempt (fn plus commit); its
	// attr records the attempt number and error cause.
	SpanAttempt = "runner.attempt"
	// SpanBackoff covers the retry backoff sleep between attempts.
	SpanBackoff = "runner.backoff"
	// SpanIndexPrefix prefixes per-index maintenance spans: "index.<name>".
	// A span opens when the maintainer's update is issued and closes when it
	// resolves, so batch saves show overlapping index spans.
	SpanIndexPrefix = "index."
	// SpanIndexerBatch covers one OnlineIndexer batch transaction: scan,
	// issue, resolve. Attr records the batch limit and records indexed.
	SpanIndexerBatch = "indexer.batch"
	// SpanLeaseRefresh is one distributed-quota heartbeat: limits reload,
	// demand estimation, and lease claims for every rate-limited tenant.
	SpanLeaseRefresh = "lease.refresh"
	// SpanMeterExport is one metering-export tick: the accountant snapshot
	// plus the persisted usage-window append.
	SpanMeterExport = "metering.export"
)

// Span is one traced interval. Start and End are nanosecond readings of the
// recording layer's clock (see the Span* constants for which).
type Span struct {
	Name  string
	Start int64
	End   int64
	// Bytes is the payload size for read spans; zero elsewhere.
	Bytes int
	// Attr carries span-specific detail (attempt number, error cause,
	// backoff delay); empty when there is none.
	Attr string
}

// Duration returns the span's length.
func (s Span) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// Trace is a passive span sink riding the context through a Runner
// transaction (WithTrace / FromContext). All methods are safe on a nil
// receiver — Add on nil is a no-op — and safe for concurrent use, so
// instrumentation sites need exactly one pointer check.
type Trace struct {
	mu    sync.Mutex
	spans []Span
}

// NewTrace creates an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Add records one finished span.
func (t *Trace) Add(name string, start, end int64, bytes int, attr string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: start, End: end, Bytes: bytes, Attr: attr})
	t.mu.Unlock()
}

// Spans returns a copy of every recorded span, in recording order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Named returns the spans with the given name, in recording order.
func (t *Trace) Named(name string) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Len returns the number of recorded spans.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Summary renders a compact per-name aggregate — count and total duration,
// sorted by descending total — the structured trace digest the slow-query
// log records:
//
//	runner.attempt=1×3.1ms fdb.await=2×2.0ms fdb.read=9×1.1ms fdb.commit=1×0.2ms
func (t *Trace) Summary() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	type agg struct {
		name  string
		n     int
		total time.Duration
	}
	byName := map[string]*agg{}
	var order []*agg
	for _, s := range t.spans {
		a, ok := byName[s.Name]
		if !ok {
			a = &agg{name: s.Name}
			byName[s.Name] = a
			order = append(order, a)
		}
		a.n++
		a.total += s.Duration()
	}
	t.mu.Unlock()
	sort.SliceStable(order, func(i, j int) bool { return order[i].total > order[j].total })
	parts := make([]string, len(order))
	for i, a := range order {
		parts[i] = fmt.Sprintf("%s=%d×%s", a.name, a.n, a.total)
	}
	return strings.Join(parts, " ")
}
