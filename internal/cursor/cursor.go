// Package cursor implements the Record Layer's streaming execution model
// (§3.1, §4): every scan, index read and query plan produces a cursor over a
// stream of values, and every cursor result carries a continuation — an
// opaque value encoding the position of the next element. Returning the
// continuation to the client keeps the layer completely stateless: any
// stateless server can resume the stream, and operations that exceed the
// transaction time limit split across transactions (§8.2).
//
// Whoever resumes from a continuation checks it before reading anything, and
// fails with ErrCorruptContinuation. Scans hand out keys; what is composed over
// them writes a frame: a kind byte that is no tuple type code, then uvarints
// and parts, read back only in the one form they are written in.
//
//	writer                    continuation                      checked by
//	kvcursor (index scans)    the last key read                 kvcursor.New: in [begin, end)
//	core.Store.ScanRecords    the last record's primary key     ScanRecords: a primary key of the store's types, in range
//	FromSlice                 the next position, a uvarint      FromSlice: at most len(items)
//	Union, Intersection       'u', 'i'; a part per child        newMerge: kind, a part (or none: done) per child
//	Concat                    'c'; child index, its part        Concat: kind, index below len(builders)
//	recordlayer.RecordCursor  'q'; Skip left, the plan's part   the façade: kind, Skip left in [0, Skip]
//
// Beside Next, every cursor takes three hints; one that delivers a value per
// source value embeds Forward to pass them on. Ready is a count: n > 0 values
// in hand, which bounds what the cursor delivers before its next I/O; Ended,
// the stream has ended and the next Next halts without I/O; 0, not known to
// hold anything. Who passes what on ("gap": listed under ROADMAP.md item 11):
//
//	cursor                           Prefetch          Demand(n)              Ready
//	kvcursor's kvCursor              issues a batch    sizes its first read   its buffered pairs, or Ended
//	Map                              forwards          forwards               forwards
//	Filter                           forwards          no (a)                 forwards (an upper bound)
//	Limit                            until spent       its own n only (gap)   min(left, source); spent: Ended
//	Union                            no (b)            n + 1 each             the children's sum (d)
//	Intersection                     no (b)            no (a)                 the children's minimum (d)
//	Concat                           the active child  no (e)                 the active child's (e)
//	Func (FromSlice, Fail)           no (c)            no (c)                 0 (c)
//	MapAsync                         forwards          forwards, caps issues  0 (gap)
//	core's recordCursor              forwards          in pairs; no (a)       0 (gap)
//	recordlayer's skipCursor         forwards          n + the rows to skip   forwards (an upper bound)
//	plan's statsCursor, rowInCursor  forwards          forwards               forwards
//
//	(a) When values are dropped, what one delivered costs the source is unknown.
//	(b) A merge prefetches its children itself; one under a merge is not (gap).
//	(c) A Func's I/O is its own.
//	(d) A buffered head counts one; 0 if a child the next step pulls holds
//	    nothing, Ended once every child it needs has ended.
//	(e) How a demand splits over the children is unknown (gap). An ended
//	    child with another after it counts 0; Ended after the last child.
package cursor

import (
	"encoding/binary"
	"errors"
	"math"
	"time"
)

// NoNextReason explains why a cursor stopped producing values (§8.2's limit
// taxonomy). In-band limits (returned enough rows) differ from out-of-band
// limits (resource limits reached mid-scan).
type NoNextReason int

const (
	// SourceExhausted: there is no more data; the continuation is nil.
	SourceExhausted NoNextReason = iota
	// ReturnLimitReached: the requested row limit was delivered.
	ReturnLimitReached
	// ScanLimitReached: the scanned-records resource limit was hit.
	ScanLimitReached
	// ByteLimitReached: the scanned-bytes resource limit was hit.
	ByteLimitReached
	// TimeLimitReached: the per-request time budget was exhausted.
	TimeLimitReached
)

func (r NoNextReason) String() string {
	switch r {
	case SourceExhausted:
		return "source-exhausted"
	case ReturnLimitReached:
		return "return-limit-reached"
	case ScanLimitReached:
		return "scan-limit-reached"
	case ByteLimitReached:
		return "byte-limit-reached"
	case TimeLimitReached:
		return "time-limit-reached"
	}
	return "unknown"
}

// OutOfBand reports whether the stop was due to a resource limit rather than
// the data or the request's own row limit.
func (r NoNextReason) OutOfBand() bool {
	return r == ScanLimitReached || r == ByteLimitReached || r == TimeLimitReached
}

// Result is one cursor step: either a value (OK) with the continuation
// positioned after it, or a halt (with the reason and the continuation from
// which to resume).
type Result[T any] struct {
	Value        T
	OK           bool
	Continuation []byte
	Reason       NoNextReason
}

// Cursor produces a stream of values. Implementations are single-use and not
// safe for concurrent use. Prefetch, Demand and Ready are hints (see the
// package comment): none changes what Next returns.
type Cursor[T any] interface {
	// Next returns the next result. After a result with OK == false, further
	// calls return the same halt result.
	Next() (Result[T], error)
	// Prefetch starts the I/O the next delivery will need, and must not block
	// for it. Union and Intersection prefetch every child whose head is
	// unbuffered before peeking any, so a K-way merge step waits one shared
	// latency window where peeking serially would wait up to K.
	Prefetch()
	// Demand says the consumer will take at most n more values, n > 0, so the
	// cursor can read less; taking more only costs the reads it had saved. A
	// cursor that drops values does not pass it on: it stops where it stops
	// being true.
	Demand(n int)
	// Ready reports how many values the cursor holds in hand: n > 0 bounds
	// what it delivers before its next I/O (a cursor that may drop values
	// counts its source's); Ended, that the stream has ended and the next Next
	// halts without I/O; 0, "not known to hold any". MapAsync reads it to
	// tell issuing for values the source has already read from speculating
	// past them, and to size its ring once.
	Ready() int
}

// Ended is what Ready reports for a stream that has ended.
const Ended = -1

// Forward passes every hint to Inner. A cursor embeds it to override only the
// hints that stop being true.
type Forward[T any] struct{ Inner Cursor[T] }

func (f Forward[T]) Prefetch()    { f.Inner.Prefetch() }
func (f Forward[T]) Demand(n int) { f.Inner.Demand(n) }
func (f Forward[T]) Ready() int   { return f.Inner.Ready() }

// halt builds a non-value result.
func halt[T any](reason NoNextReason, continuation []byte) Result[T] {
	return Result[T]{OK: false, Reason: reason, Continuation: continuation}
}

// Limiter tracks out-of-band resource limits shared by every cursor in one
// execution (§8.2: limits on records and bytes read, plus a time budget).
type Limiter struct {
	recordsLeft int
	bytesLeft   int
	deadline    time.Time
	clock       func() time.Time
}

// NewLimiter builds a limiter; zero limits mean unlimited, a zero deadline
// means no time budget.
func NewLimiter(maxRecords, maxBytes int, deadline time.Time, clock func() time.Time) *Limiter {
	if clock == nil {
		clock = time.Now
	}
	return &Limiter{recordsLeft: maxRecords, bytesLeft: maxBytes, deadline: deadline, clock: clock}
}

// TryRecord consumes one scanned record and nbytes of I/O budget, returning
// the limit hit, if any. The first record is always admitted so progress is
// guaranteed.
func (l *Limiter) TryRecord(nbytes int) (NoNextReason, bool) {
	if l == nil {
		return 0, true
	}
	if !l.deadline.IsZero() && l.clock().After(l.deadline) {
		return TimeLimitReached, false
	}
	if l.recordsLeft < 0 {
		return ScanLimitReached, false
	}
	if l.bytesLeft < 0 {
		return ByteLimitReached, false
	}
	// Admit this record, consuming budget; -1 marks exhaustion for the next.
	if l.recordsLeft > 0 {
		l.recordsLeft--
		if l.recordsLeft == 0 {
			l.recordsLeft = -1
		}
	}
	if l.bytesLeft > 0 {
		l.bytesLeft -= nbytes
		if l.bytesLeft <= 0 {
			l.bytesLeft = -1
		}
	}
	return 0, true
}

// RecordsLeft reports how many more records TryRecord will admit (ok: there is
// a record limit). A scan needs one more, to tell the limit from its source's end.
func (l *Limiter) RecordsLeft() (n int, ok bool) {
	if l == nil || l.recordsLeft == 0 {
		return 0, false
	}
	return max(l.recordsLeft, 0), true
}

// ---------------------------------------------------------------- frames

// ErrCorruptContinuation is what every continuation decoder fails with, bare
// or wrapped: the bytes were not written by the scan or query resuming there.
var ErrCorruptContinuation = errors.New("corrupt continuation")

// Frame kinds; no tuple type code is one (see the package comment).
const (
	kindUnion        byte = 'u'
	kindIntersection byte = 'i'
	kindConcat       byte = 'c'
)

// AppendPart appends p to a frame: len(p) + 1 as a uvarint, then p. A zero
// byte is the absent part.
func AppendPart(frame, p []byte) []byte {
	return append(binary.AppendUvarint(frame, uint64(len(p))+1), p...)
}

// FrameReader reads a frame's fields in the order they were written. After
// the first malformed one every read returns zero and Close fails.
type FrameReader struct {
	rest []byte
	bad  bool
}

// ReadFrame starts reading cont as a frame of the given kind.
func ReadFrame(cont []byte, kind byte) FrameReader {
	return FrameReader{rest: cont[min(len(cont), 1):], bad: len(cont) == 0 || cont[0] != kind}
}

// Uvarint reads a number below bound that binary.AppendUvarint wrote; one
// ending in a zero byte is longer than that, and malformed.
func (r *FrameReader) Uvarint(bound uint64) uint64 {
	v, n := binary.Uvarint(r.rest)
	if r.bad || n <= 0 || v >= bound || (n > 1 && r.rest[n-1] == 0) {
		r.bad = true
		return 0
	}
	r.rest = r.rest[n:]
	return v
}

// Part reads a part AppendPart wrote; ok is false for the absent part.
func (r *FrameReader) Part() (p []byte, ok bool) {
	n := r.Uvarint(math.MaxUint64)
	if n == 0 || n-1 > uint64(len(r.rest)) {
		r.bad = r.bad || n > 0
		return nil, false
	}
	p, r.rest = r.rest[:n-1:n-1], r.rest[n-1:]
	return p, true
}

// Close fails with ErrCorruptContinuation unless every read was well formed and
// nothing is left.
func (r *FrameReader) Close() error {
	if r.bad || len(r.rest) > 0 {
		return ErrCorruptContinuation
	}
	return nil
}

// ---------------------------------------------------------------- sources

// FromSlice streams a fixed slice (mainly for tests); a continuation is the
// index of the next element as a uvarint.
func FromSlice[T any](items []T, continuation []byte) Cursor[T] {
	r, pos := FrameReader{rest: continuation}, 0
	if len(continuation) > 0 {
		if pos = int(r.Uvarint(uint64(len(items)) + 1)); r.Close() != nil {
			return Fail[T](ErrCorruptContinuation)
		}
	}
	return Func[T](func() (Result[T], error) {
		if pos >= len(items) {
			return halt[T](SourceExhausted, nil), nil
		}
		pos++
		return Result[T]{Value: items[pos-1], OK: true, Continuation: binary.AppendUvarint(nil, uint64(pos))}, nil
	})
}

// Func wraps a Next function as a cursor.
type Func[T any] func() (Result[T], error)

// Next implements Cursor.
func (f Func[T]) Next() (Result[T], error) { return f() }

// A Func takes no hint: its I/O, if any, is f's own.
func (Func[T]) Prefetch()  {}
func (Func[T]) Demand(int) {}
func (Func[T]) Ready() int { return 0 }

// Fail is a cursor whose every Next returns err: a scan that cannot start
// reports why through its cursor, having read nothing.
func Fail[T any](err error) Cursor[T] {
	return Func[T](func() (Result[T], error) { return Result[T]{}, err })
}

// ---------------------------------------------------------------- map

type mapCursor[T, U any] struct {
	Forward[T]
	f func(T) (U, error)
}

// Map transforms each value; continuations pass through unchanged.
func Map[T, U any](inner Cursor[T], f func(T) (U, error)) Cursor[U] {
	return &mapCursor[T, U]{Forward: Forward[T]{inner}, f: f}
}

func (c *mapCursor[T, U]) Next() (Result[U], error) {
	r, err := c.Inner.Next()
	if err != nil {
		return Result[U]{}, err
	}
	if !r.OK {
		return halt[U](r.Reason, r.Continuation), nil
	}
	u, err := c.f(r.Value)
	if err != nil {
		return Result[U]{}, err
	}
	return Result[U]{Value: u, OK: true, Continuation: r.Continuation}, nil
}

// ---------------------------------------------------------------- filter

type filterCursor[T any] struct {
	Forward[T]
	pred func(T) (bool, error)
}

// Filter drops values failing pred. A skipped value's continuation becomes
// the resume point, so long filtered stretches still make progress across
// continuations.
func Filter[T any](inner Cursor[T], pred func(T) (bool, error)) Cursor[T] {
	return &filterCursor[T]{Forward: Forward[T]{inner}, pred: pred}
}

// Demand takes no hint: what a value pred drops costs the source is unknown.
func (c *filterCursor[T]) Demand(int) {}

func (c *filterCursor[T]) Next() (Result[T], error) {
	for {
		r, err := c.Inner.Next()
		if err != nil {
			return Result[T]{}, err
		}
		if !r.OK {
			return r, nil
		}
		ok, err := c.pred(r.Value)
		if err != nil {
			return Result[T]{}, err
		}
		if ok {
			return r, nil
		}
	}
}

// ---------------------------------------------------------------- limit

type limitCursor[T any] struct {
	inner Cursor[T]
	left  int
	last  []byte
	// stop is the source's halt, repeated to every later call once done.
	stop Result[T]
	done bool
}

// Limit stops after n values with ReturnLimitReached, carrying the inner
// continuation so the client can request the next page. n <= 0 is unlimited.
func Limit[T any](inner Cursor[T], n int) Cursor[T] {
	if n <= 0 {
		return inner
	}
	inner.Demand(n) // the source may size its reads to it
	return &limitCursor[T]{inner: inner, left: n}
}

// Prefetch implements Cursor; a spent limit never pulls the source again.
func (c *limitCursor[T]) Prefetch() {
	if !c.done && c.left > 0 {
		c.inner.Prefetch()
	}
}

// Demand takes no hint: the source was told n when the limit was built.
func (c *limitCursor[T]) Demand(int) {}

// Ready implements Cursor; a spent limit halts without pulling the source.
func (c *limitCursor[T]) Ready() int {
	if n := c.inner.Ready(); !c.done && c.left > 0 && n != Ended {
		return min(c.left, n)
	}
	return Ended
}

func (c *limitCursor[T]) Next() (Result[T], error) {
	if c.done {
		return c.stop, nil
	}
	if c.left == 0 {
		return halt[T](ReturnLimitReached, c.last), nil
	}
	r, err := c.inner.Next()
	if err != nil {
		return Result[T]{}, err
	}
	if !r.OK {
		c.stop, c.done = r, true
		return r, nil
	}
	c.left--
	c.last = r.Continuation
	return r, nil
}

// Collect drains a cursor into a slice, returning the values, the reason the
// stream stopped, and the continuation for resumption.
func Collect[T any](c Cursor[T]) ([]T, NoNextReason, []byte, error) {
	var out []T
	for {
		r, err := c.Next()
		if err != nil {
			return out, 0, nil, err
		}
		if !r.OK {
			return out, r.Reason, r.Continuation, nil
		}
		out = append(out, r.Value)
	}
}
