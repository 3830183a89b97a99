package obs

import (
	"sync"
	"time"
)

// SlowQuery is one over-threshold query execution's structured summary.
type SlowQuery struct {
	// Plan is the executed plan's tree string.
	Plan string
	// Elapsed is wall-clock time from execution start to the stream's halt.
	Elapsed time.Duration
	// Rows is how many records the stream delivered.
	Rows int
	// Reason is the cursor's NoNextReason string ("source exhausted",
	// "return limit reached", ...).
	Reason string
	// Trace is the transaction trace's Summary when one rode the context;
	// empty otherwise.
	Trace string
	// KeysRead, BytesRead and SimWaitNanos are what the executing
	// transaction's stats (fdb.TxnStats) grew by between execution start and
	// the halt; InFlightHighWater is the transaction's in-flight high-water
	// mark at the halt. They need no trace.
	KeysRead, BytesRead int
	SimWaitNanos        int64
	InFlightHighWater   int
}

// DefaultQueryBuckets are the query_duration_seconds histogram bounds:
// 100µs to 2.5s, the range between a warm covering scan and a multi-page
// latency-priced query.
var DefaultQueryBuckets = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5,
}

// SlowQueryLog collects structured summaries of query executions that ran
// longer than the caller's threshold (ExecuteProperties.SlowQueryThreshold),
// and observes *every* execution's latency into a histogram so the registry
// exports the full distribution, not just the tail. Safe for concurrent use;
// entries are a bounded ring (oldest dropped first).
type SlowQueryLog struct {
	mu      sync.Mutex
	max     int
	entries []SlowQuery
	slow    int64
	hist    *Histogram
}

// NewSlowQueryLog creates a log retaining at most max entries (default 128
// when max <= 0).
func NewSlowQueryLog(max int) *SlowQueryLog {
	if max <= 0 {
		max = 128
	}
	return &SlowQueryLog{max: max, hist: NewHistogram(DefaultQueryBuckets...)}
}

// Observe records one finished query execution; slow marks it over the
// caller's threshold, which captures its structured summary.
func (l *SlowQueryLog) Observe(q SlowQuery, slow bool) {
	if l == nil {
		return
	}
	l.hist.Observe(q.Elapsed.Seconds())
	if !slow {
		return
	}
	l.mu.Lock()
	l.slow++
	if len(l.entries) == l.max {
		copy(l.entries, l.entries[1:])
		l.entries = l.entries[:l.max-1]
	}
	l.entries = append(l.entries, q)
	l.mu.Unlock()
}

// Entries returns a copy of the retained slow-query summaries, oldest first.
func (l *SlowQueryLog) Entries() []SlowQuery {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowQuery, len(l.entries))
	copy(out, l.entries)
	return out
}

// SlowTotal returns how many executions exceeded their threshold (including
// any whose entries the ring has since dropped).
func (l *SlowQueryLog) SlowTotal() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.slow
}

// DurationHistogram returns the all-executions latency histogram (seconds).
func (l *SlowQueryLog) DurationHistogram() *Histogram {
	if l == nil {
		return nil
	}
	return l.hist
}
