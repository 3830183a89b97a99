package fdb

import "sync/atomic"

// Counter is a concurrency-safe monotonic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Metrics aggregates database-level counters. Per-transaction figures are
// available from Transaction.Stats; these totals power the §8.2 overhead
// experiments and the concurrency ablations.
type Metrics struct {
	TransactionsStarted Counter
	Commits             Counter
	Conflicts           Counter
	Retries             Counter
	GRVCalls            Counter

	KeysRead     Counter
	BytesRead    Counter
	KeysWritten  Counter
	BytesWritten Counter

	// SimWaitNanos totals time spent awaiting simulated read latency across
	// all transactions (zero when no latency model is configured). Overlapped
	// reads wait once per window, so this divided by read count falls as
	// pipelining improves.
	SimWaitNanos Counter
}

// MetricsSnapshot is a point-in-time copy of Metrics as plain values, so
// experiments measure phases as Snapshot-then-Delta instead of hand-diffing
// individual counters.
type MetricsSnapshot struct {
	TransactionsStarted int64
	Commits             int64
	Conflicts           int64
	Retries             int64
	GRVCalls            int64

	KeysRead     int64
	BytesRead    int64
	KeysWritten  int64
	BytesWritten int64

	SimWaitNanos int64
}

// Snapshot copies every counter. The copy is not a single atomic cut across
// counters — concurrent transactions may land between loads — but each field
// is itself a consistent atomic read, which is what phase deltas need.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		TransactionsStarted: m.TransactionsStarted.Load(),
		Commits:             m.Commits.Load(),
		Conflicts:           m.Conflicts.Load(),
		Retries:             m.Retries.Load(),
		GRVCalls:            m.GRVCalls.Load(),
		KeysRead:            m.KeysRead.Load(),
		BytesRead:           m.BytesRead.Load(),
		KeysWritten:         m.KeysWritten.Load(),
		BytesWritten:        m.BytesWritten.Load(),
		SimWaitNanos:        m.SimWaitNanos.Load(),
	}
}

// Delta returns this snapshot minus prev: what happened between the two.
func (s MetricsSnapshot) Delta(prev MetricsSnapshot) MetricsSnapshot {
	return MetricsSnapshot{
		TransactionsStarted: s.TransactionsStarted - prev.TransactionsStarted,
		Commits:             s.Commits - prev.Commits,
		Conflicts:           s.Conflicts - prev.Conflicts,
		Retries:             s.Retries - prev.Retries,
		GRVCalls:            s.GRVCalls - prev.GRVCalls,
		KeysRead:            s.KeysRead - prev.KeysRead,
		BytesRead:           s.BytesRead - prev.BytesRead,
		KeysWritten:         s.KeysWritten - prev.KeysWritten,
		BytesWritten:        s.BytesWritten - prev.BytesWritten,
		SimWaitNanos:        s.SimWaitNanos - prev.SimWaitNanos,
	}
}

// TxnStats captures the I/O performed by a single transaction. The Record
// Layer's resource-isolation limits (§8.2) are enforced against these.
type TxnStats struct {
	KeysRead     int
	BytesRead    int
	KeysWritten  int // keys mutated at commit (sets + atomic ops + versionstamped)
	BytesWritten int
	RangeClears  int
	Size         int // bytes of the mutations issued; the size limit also counts read conflict ranges
	// Mutations counts buffered write operations (sets, atomics, clears) as
	// they are issued, before commit. With Size, it is what a bound Meter is
	// billed for writes (Transaction.BindMeter).
	Mutations int

	// SimWaitNanos is the time this transaction spent awaiting simulated
	// read latency (Options.Latency). K overlapped reads cost ~1 window here;
	// K sequential reads cost K windows — the observable proof of §8's
	// asynchronous pipelining.
	SimWaitNanos int64
	// InFlightHighWater is the most reads simultaneously unresolved per the
	// latency clock (issued, ready time not yet reached) — the overlap depth
	// actually achieved. Zero when no latency model is configured (instant
	// reads are not tracked).
	InFlightHighWater int
}
