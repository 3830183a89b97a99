// Package cursor implements the Record Layer's streaming execution model
// (§3.1, §4): every scan, index read and query plan produces a cursor over a
// stream of values, and every cursor result carries a continuation — an
// opaque value encoding the position of the next element. Returning the
// continuation to the client keeps the layer completely stateless: any
// stateless server can resume the stream, and operations that exceed the
// transaction time limit split across transactions (§8.2).
package cursor

import (
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
// safe for concurrent use.
type Cursor[T any] interface {
	// Next returns the next result. After a result with OK == false, further
	// calls return the same halt result.
	Next() (Result[T], error)
}

// halt builds a non-value result.
func halt[T any](reason NoNextReason, continuation []byte) Result[T] {
	return Result[T]{OK: false, Reason: reason, Continuation: continuation}
}

// Prefetcher is implemented by cursors that can start the I/O their next
// delivery will need without blocking for it. Composite cursors (Union,
// Intersection) prefetch every child whose head is unbuffered before peeking
// any, so a K-way merge step waits one shared latency window where peeking
// serially would wait up to K. Prefetch never changes what Next returns —
// only when its I/O is issued — and must not block. Wrapper cursors forward
// it to their inner cursor.
type Prefetcher interface {
	Prefetch()
}

// Prefetch invokes c's Prefetch when it implements Prefetcher; other cursors
// (in-memory sources, adapters without I/O) are left alone.
func Prefetch[T any](c Cursor[T]) {
	if p, ok := c.(Prefetcher); ok {
		p.Prefetch()
	}
}

// Demander is implemented by cursors that can read less when told how little
// is wanted: Demand(n) says the consumer will take at most n more values. Like
// Prefetch it is a hint and never changes what Next returns; taking more only
// costs the reads it had saved. Limit announces its n, wrappers that deliver
// one value per source value forward it, Union passes n + 1 to every child, and
// cursors that drop values (Filter, Intersection) do not: it stops where it
// stops being true.
type Demander interface {
	Demand(n int)
}

// Demand forwards a positive demand to c when it implements Demander.
func Demand[T any](c Cursor[T], n int) {
	if d, ok := c.(Demander); ok && n > 0 {
		d.Demand(n)
	}
}

// Readier is implemented by cursors that know when their next Next returns
// without waiting for I/O: the value is buffered, or the stream has ended. A
// hint like Prefetch and Demand, it never changes what Next returns; MapAsync
// reads it to tell issuing for values the source has already read from
// speculating past them.
type Readier interface {
	Ready() bool
}

// Ready reports whether c says so; one that is no Readier is not known to be.
func Ready[T any](c Cursor[T]) bool {
	r, ok := c.(Readier)
	return ok && r.Ready()
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

// ---------------------------------------------------------------- sources

// FromSlice streams a fixed slice (mainly for tests); continuations encode
// the index of the next element as a single byte-varint.
func FromSlice[T any](items []T, continuation []byte) Cursor[T] {
	start := 0
	if len(continuation) > 0 {
		start = int(continuation[0]) | int(continuation[1])<<8 | int(continuation[2])<<16
	}
	return &sliceCursor[T]{items: items, pos: start}
}

type sliceCursor[T any] struct {
	items []T
	pos   int
	done  bool
}

func (c *sliceCursor[T]) Next() (Result[T], error) {
	if c.done || c.pos >= len(c.items) {
		c.done = true
		return halt[T](SourceExhausted, nil), nil
	}
	v := c.items[c.pos]
	c.pos++
	cont := []byte{byte(c.pos), byte(c.pos >> 8), byte(c.pos >> 16)}
	if c.pos >= len(c.items) {
		// Position continuations past the end still allow resumption; the
		// resumed cursor immediately exhausts.
	}
	return Result[T]{Value: v, OK: true, Continuation: cont}, nil
}

// Func wraps a Next function as a cursor.
type Func[T any] func() (Result[T], error)

// Next implements Cursor.
func (f Func[T]) Next() (Result[T], error) { return f() }

// Fail is a cursor whose every Next returns err: a scan that cannot start
// reports why through its cursor, having read nothing.
func Fail[T any](err error) Cursor[T] {
	return Func[T](func() (Result[T], error) { return Result[T]{}, err })
}

// ---------------------------------------------------------------- map

type mapCursor[T, U any] struct {
	inner Cursor[T]
	f     func(T) (U, error)
}

// Map transforms each value; continuations pass through unchanged.
func Map[T, U any](inner Cursor[T], f func(T) (U, error)) Cursor[U] {
	return &mapCursor[T, U]{inner: inner, f: f}
}

// Prefetch implements Prefetcher by forwarding to the source.
func (c *mapCursor[T, U]) Prefetch() { Prefetch(c.inner) }

// Demand implements Demander: one value out per value in.
func (c *mapCursor[T, U]) Demand(n int) { Demand(c.inner, n) }

// Ready implements Readier: f does not wait.
func (c *mapCursor[T, U]) Ready() bool { return Ready(c.inner) }

func (c *mapCursor[T, U]) Next() (Result[U], error) {
	r, err := c.inner.Next()
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
	inner Cursor[T]
	pred  func(T) (bool, error)
}

// Filter drops values failing pred. A skipped value's continuation becomes
// the resume point, so long filtered stretches still make progress across
// continuations.
func Filter[T any](inner Cursor[T], pred func(T) (bool, error)) Cursor[T] {
	return &filterCursor[T]{inner: inner, pred: pred}
}

// Prefetch implements Prefetcher by forwarding to the source.
func (c *filterCursor[T]) Prefetch() { Prefetch(c.inner) }

// Ready implements Readier for the source's next value, which pred may drop.
func (c *filterCursor[T]) Ready() bool { return Ready(c.inner) }

func (c *filterCursor[T]) Next() (Result[T], error) {
	for {
		r, err := c.inner.Next()
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
	done  bool
}

// Limit stops after n values with ReturnLimitReached, carrying the inner
// continuation so the client can request the next page. n <= 0 is unlimited.
func Limit[T any](inner Cursor[T], n int) Cursor[T] {
	if n <= 0 {
		return inner
	}
	Demand(inner, n) // the source may size its reads to it
	return &limitCursor[T]{inner: inner, left: n}
}

// Prefetch implements Prefetcher; a spent limit will never pull the source
// again, so it stops forwarding.
func (c *limitCursor[T]) Prefetch() {
	if c.done || c.left == 0 {
		return
	}
	Prefetch(c.inner)
}

// Ready implements Readier; a spent limit halts without pulling the source.
func (c *limitCursor[T]) Ready() bool { return c.done || c.left == 0 || Ready(c.inner) }

func (c *limitCursor[T]) Next() (Result[T], error) {
	if c.done {
		return halt[T](ReturnLimitReached, c.last), nil
	}
	if c.left == 0 {
		c.done = true
		return halt[T](ReturnLimitReached, c.last), nil
	}
	r, err := c.inner.Next()
	if err != nil {
		return Result[T]{}, err
	}
	if !r.OK {
		c.done = true
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
