// Package kvcursor adapts FoundationDB range reads to the streaming cursor
// model: a resumable cursor over a key range with resource-limit accounting.
// Its continuation is simply the last key returned, so any stateless server
// can resume the scan (§3.1).
package kvcursor

import (
	"bytes"
	"errors"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
)

// Options controls a range scan.
type Options struct {
	// Reverse scans in descending key order.
	Reverse bool
	// Snapshot performs snapshot reads (no read conflicts).
	Snapshot bool
	// Limiter enforces out-of-band resource limits (may be nil).
	Limiter *cursor.Limiter
	// Continuation resumes after a previously returned key.
	Continuation []byte
	// BatchSize bounds the first underlying GetRange (default 128). Later
	// batches grow exponentially up to MaxBatchSize — FDB's iterator mode —
	// so long scans stop paying a full range-read setup per 128 pairs.
	BatchSize int
	// MaxBatchSize caps the batch growth (default 4096). Set it equal to
	// BatchSize to disable growth.
	//
	// When a batch arrives the cursor issues the next one as a future, so its
	// latency overlaps with draining the buffer (§8). Results are the same for
	// any transaction that does not write ahead of its own scan, but the batch
	// read ahead is conflict-ranged and counted in TxnStats even if never
	// consumed. A demand (Demand, or a Limiter's record budget) holds it back.
	MaxBatchSize int
}

// Default batch sizing: start small so point-ish scans stay cheap, grow
// exponentially so long scans amortize per-batch costs.
const (
	DefaultBatchSize    = 128
	DefaultMaxBatchSize = 4096
)

type kvCursor struct {
	tr         *fdb.Transaction
	begin, end []byte
	opts       Options
	batch      int // next GetRange limit; doubles per fill up to MaxBatchSize
	buf        []fdb.KeyValue
	bufPos     int
	more       bool
	started    bool
	lastKey    []byte
	halted     *cursor.Result[fdb.KeyValue]
	pending    *fdb.FutureRange // read-ahead: the next batch, already issued
	fetched    int              // pairs fetched so far
	want       int              // announced demand in pairs; 0 = none
}

// errForeignContinuation rejects a continuation outside the scan's range.
var errForeignContinuation = errors.New("kvcursor: corrupt continuation: key outside the scan's range")

// New creates a cursor over [begin, end). A continuation is the last key
// a scan of this range returned, so one outside [begin, end) came from
// another scan or another tenant; the cursor fails without reading.
func New(tr *fdb.Transaction, begin, end []byte, opts Options) cursor.Cursor[fdb.KeyValue] {
	if cont := opts.Continuation; len(cont) > 0 && (bytes.Compare(cont, begin) < 0 || bytes.Compare(cont, end) >= 0) {
		return cursor.Fail[fdb.KeyValue](errForeignContinuation)
	}
	c := &kvCursor{tr: tr, begin: append([]byte(nil), begin...), end: append([]byte(nil), end...), opts: opts}
	if opts.BatchSize <= 0 {
		c.opts.BatchSize = DefaultBatchSize
	}
	if opts.MaxBatchSize <= 0 {
		c.opts.MaxBatchSize = DefaultMaxBatchSize
	}
	if c.opts.MaxBatchSize < c.opts.BatchSize {
		c.opts.MaxBatchSize = c.opts.BatchSize
	}
	c.batch = c.opts.BatchSize
	if len(opts.Continuation) > 0 {
		// The continuation is the last key previously returned.
		if !opts.Reverse {
			c.begin = fdb.KeyAfter(opts.Continuation)
		} else {
			c.end = append([]byte(nil), opts.Continuation...)
		}
	}
	if n, ok := opts.Limiter.RecordsLeft(); ok {
		c.Demand(n + 1) // a record per pair; the pair past the budget shows it was exceeded
	}
	return c
}

// Demand implements cursor.Demander. The first range read is sized to n when
// one read can hold it (a longer scan ramps as usual), and nothing is read
// ahead until more than n pairs have been fetched — until the hint has proved
// wrong. Of several demands the smallest holds; one mid-scan is ignored.
func (c *kvCursor) Demand(n int) {
	if c.started || (c.want > 0 && c.want <= n) {
		return
	}
	c.want = n
	if n <= c.opts.MaxBatchSize {
		c.batch = n
	}
}

// issueBatch starts the range read for the next batch over the current
// bounds. The future's data resolves at issue, so the cursor is free to
// advance its begin/end buffers afterwards.
func (c *kvCursor) issueBatch() *fdb.FutureRange {
	ro := fdb.RangeOptions{Limit: c.batch, Reverse: c.opts.Reverse}
	if c.opts.Snapshot {
		return c.tr.Snapshot().GetRangeAsync(c.begin, c.end, ro)
	}
	return c.tr.GetRangeAsync(c.begin, c.end, ro)
}

func (c *kvCursor) fill() error {
	var kvs []fdb.KeyValue
	var more bool
	var err error
	if c.pending != nil {
		kvs, more, err = c.pending.Get()
		c.pending = nil
	} else {
		kvs, more, err = c.issueBatch().Get()
	}
	if err != nil {
		return err
	}
	c.buf, c.bufPos, c.more, c.started = kvs, 0, more, true
	c.fetched += len(kvs)
	if len(kvs) > 0 {
		// Advance the bound in place: begin/end are owned by the cursor
		// (copied at construction, and GetRange copies what it retains), so
		// refills reuse their backing arrays instead of reallocating.
		last := kvs[len(kvs)-1].Key
		if !c.opts.Reverse {
			c.begin = append(append(c.begin[:0], last...), 0x00)
		} else {
			c.end = append(c.end[:0], last...)
		}
	}
	if c.batch < c.opts.MaxBatchSize {
		c.batch *= 2
		if c.batch > c.opts.MaxBatchSize {
			c.batch = c.opts.MaxBatchSize
		}
	}
	if more && c.fetched > c.want {
		// Issue the next batch now: its latency window elapses while the
		// consumer drains the batch just delivered.
		c.pending = c.issueBatch()
	}
	return nil
}

// Prefetch implements cursor.Prefetcher: when the buffer is drained and no
// read-ahead future is in flight, it issues the next batch's range read
// without awaiting it, so a composite parent can overlap this cursor's fill
// with its siblings'. Results are unchanged — Next's fill consumes the
// pending future exactly as if it had issued the read itself. A demand
// does not hold it back: the issued batch is one Next is already
// committed to reading, not a speculative extra.
func (c *kvCursor) Prefetch() {
	if c.halted != nil || c.pending != nil || c.bufPos < len(c.buf) || c.drained() {
		return
	}
	c.pending = c.issueBatch()
}

// drained reports that the range has no read left to issue.
func (c *kvCursor) drained() bool {
	return (c.started && !c.more) || bytes.Compare(c.begin, c.end) >= 0
}

// Ready implements cursor.Readier: a pair is buffered, or the scan has halted
// or has nothing left to read.
func (c *kvCursor) Ready() bool {
	return c.halted != nil || c.bufPos < len(c.buf) || c.drained()
}

// Next implements cursor.Cursor.
func (c *kvCursor) Next() (cursor.Result[fdb.KeyValue], error) {
	if c.halted != nil {
		return *c.halted, nil
	}
	if c.bufPos >= len(c.buf) {
		if !c.drained() {
			if err := c.fill(); err != nil {
				return cursor.Result[fdb.KeyValue]{}, err
			}
		}
		if c.bufPos >= len(c.buf) {
			h := cursor.Result[fdb.KeyValue]{OK: false, Reason: cursor.SourceExhausted}
			c.halted = &h
			return h, nil
		}
	}
	kv := c.buf[c.bufPos]
	if reason, ok := c.opts.Limiter.TryRecord(len(kv.Key) + len(kv.Value)); !ok {
		h := cursor.Result[fdb.KeyValue]{OK: false, Reason: reason, Continuation: c.lastKey}
		c.halted = &h
		return h, nil
	}
	c.bufPos++
	// kv.Key is a fresh slice produced by GetRange for this cursor alone;
	// share it with the continuation rather than copying per pair. Keys are
	// treated as immutable throughout the layer.
	c.lastKey = kv.Key
	return cursor.Result[fdb.KeyValue]{Value: kv, OK: true, Continuation: c.lastKey}, nil
}
