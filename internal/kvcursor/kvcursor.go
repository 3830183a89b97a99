// Package kvcursor adapts FoundationDB range reads to the streaming cursor
// model: a resumable cursor over a key range with resource-limit accounting.
// Its continuation is simply the last key returned, so any stateless server
// can resume the scan (§3.1).
package kvcursor

import (
	"bytes"
	"fmt"

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
	buf        fdb.Pairs
	bufPos     int
	more       bool
	started    bool
	lastKey    []byte
	halted     *cursor.Result[fdb.KeyValue]
	pending    *fdb.FutureRange // read-ahead: the next batch, already issued
	fetched    int              // pairs fetched so far
	want       int              // announced demand in pairs; 0 = none
	mapper     fdb.Mapper       // NewMapped's; nil reads plain batches
}

// errForeignContinuation rejects a continuation outside the scan's range.
var errForeignContinuation = fmt.Errorf("kvcursor: key outside the scan's range: %w", cursor.ErrCorruptContinuation)

// New creates a cursor over [begin, end). A continuation is the last key
// a scan of this range returned, so one outside [begin, end) came from
// another scan or another tenant; the cursor fails without reading.
func New(tr *fdb.Transaction, begin, end []byte, opts Options) cursor.Cursor[fdb.KeyValue] {
	if foreign(begin, end, opts) {
		return cursor.Fail[fdb.KeyValue](errForeignContinuation)
	}
	return newCursor(tr, begin, end, opts, nil)
}

// Mapped is a pair of a mapped scan with the pairs of the range its key maps
// to, read in the same request.
type Mapped struct {
	fdb.KeyValue
	Mapped fdb.Pairs
}

// NewMapped is New over mapped reads (fdb.Transaction.GetMappedRangeAsync):
// each batch reads, with its pairs, the range mapper derives from each pair's
// key, so the pair arrives with what it points at. Batch sizes, demand,
// read-ahead, continuations and the Limiter, which counts the scanned pair
// alone, are New's.
func NewMapped(tr *fdb.Transaction, begin, end []byte, opts Options, mapper fdb.Mapper) cursor.Cursor[Mapped] {
	if foreign(begin, end, opts) {
		return cursor.Fail[Mapped](errForeignContinuation)
	}
	return mappedCursor{newCursor(tr, begin, end, opts, mapper)}
}

// foreign reports a continuation outside [begin, end).
func foreign(begin, end []byte, opts Options) bool {
	cont := opts.Continuation
	return len(cont) > 0 && (bytes.Compare(cont, begin) < 0 || bytes.Compare(cont, end) >= 0)
}

func newCursor(tr *fdb.Transaction, begin, end []byte, opts Options, mapper fdb.Mapper) *kvCursor {
	c := &kvCursor{tr: tr, begin: append([]byte(nil), begin...), end: append([]byte(nil), end...), opts: opts, mapper: mapper}
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
		// The continuation is the last key previously returned. It is also
		// this scan's position until a pair is returned: a halt before the
		// first one hands it back, so the resumed scan does not restart.
		c.lastKey = opts.Continuation
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

// Demand implements cursor.Cursor. The first range read is sized to n when
// one read can hold it (a longer scan ramps as usual), and nothing is read
// ahead until more than n pairs have been fetched — until the hint has proved
// wrong. Of several demands the smallest holds; one mid-scan is ignored, and
// so is n <= 0, no demand.
func (c *kvCursor) Demand(n int) {
	if n <= 0 || c.started || (c.want > 0 && c.want <= n) {
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
	switch {
	case c.mapper != nil && c.opts.Snapshot:
		return c.tr.Snapshot().GetMappedRangeAsync(c.begin, c.end, ro, c.mapper)
	case c.mapper != nil:
		return c.tr.GetMappedRangeAsync(c.begin, c.end, ro, c.mapper)
	case c.opts.Snapshot:
		return c.tr.Snapshot().GetRangeAsync(c.begin, c.end, ro)
	}
	return c.tr.GetRangeAsync(c.begin, c.end, ro)
}

func (c *kvCursor) fill() error {
	var kvs fdb.Pairs
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
	c.fetched += kvs.Len()
	if kvs.Len() > 0 {
		// Advance the bound in place: begin/end are owned by the cursor
		// (copied at construction, and GetRange copies what it retains), so
		// refills reuse their backing arrays instead of reallocating.
		last := kvs.At(kvs.Len() - 1).Key
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

// Prefetch implements cursor.Cursor: when the buffer is drained and no
// read-ahead future is in flight, it issues the next batch's range read
// without awaiting it, so a composite parent can overlap this cursor's fill
// with its siblings'. Results are unchanged — Next's fill consumes the
// pending future exactly as if it had issued the read itself. A demand
// does not hold it back: the issued batch is one Next is already
// committed to reading, not a speculative extra.
func (c *kvCursor) Prefetch() {
	if c.halted != nil || c.pending != nil || c.bufPos < c.buf.Len() || c.drained() {
		return
	}
	c.pending = c.issueBatch()
}

// drained reports that the range has no read left to issue.
func (c *kvCursor) drained() bool {
	return (c.started && !c.more) || bytes.Compare(c.begin, c.end) >= 0
}

// Ready implements cursor.Cursor: the buffered pairs, or Ended once the scan
// has halted or has nothing left to read.
func (c *kvCursor) Ready() int {
	if c.halted != nil || c.bufPos == c.buf.Len() && c.drained() {
		return cursor.Ended
	}
	return c.buf.Len() - c.bufPos
}

// Next implements cursor.Cursor.
func (c *kvCursor) Next() (cursor.Result[fdb.KeyValue], error) {
	if c.halted != nil {
		return *c.halted, nil
	}
	if c.bufPos >= c.buf.Len() {
		if !c.drained() {
			if err := c.fill(); err != nil {
				return cursor.Result[fdb.KeyValue]{}, err
			}
		}
		if c.bufPos >= c.buf.Len() {
			h := cursor.Result[fdb.KeyValue]{OK: false, Reason: cursor.SourceExhausted}
			c.halted = &h
			return h, nil
		}
	}
	kv := c.buf.At(c.bufPos)
	if reason, ok := c.opts.Limiter.TryRecord(len(kv.Key) + len(kv.Value)); !ok {
		h := cursor.Result[fdb.KeyValue]{OK: false, Reason: reason, Continuation: c.lastKey}
		c.halted = &h
		return h, nil
	}
	c.bufPos++
	// kv.Key is the database's own bytes, which nothing writes again; share
	// it with the continuation rather than copying per pair.
	c.lastKey = kv.Key
	return cursor.Result[fdb.KeyValue]{Value: kv, OK: true, Continuation: c.lastKey}, nil
}

// mappedCursor is NewMapped's: a kvCursor whose values carry their mapped
// pairs.
type mappedCursor struct{ *kvCursor }

// Next implements cursor.Cursor.
func (c mappedCursor) Next() (cursor.Result[Mapped], error) {
	r, err := c.kvCursor.Next()
	out := cursor.Result[Mapped]{OK: r.OK, Continuation: r.Continuation, Reason: r.Reason}
	if r.OK {
		out.Value = Mapped{KeyValue: r.Value, Mapped: c.buf.Mapped(c.bufPos - 1)}
	}
	return out, err
}
