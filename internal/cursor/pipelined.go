package cursor

// MapAsync pipelines an issue/await pair over a cursor in a single goroutine:
// the paper's asynchronous futures (§8). For each source element, issue
// starts the work (returning a handle, typically an *fdb.Future*) and await
// resolves it; handles are issued and awaited in source order. Against a
// latency-modeled store, the outstanding reads overlap — k in-flight fetches
// cost ~1 window, not k — with no goroutine or channel bookkeeping, so at zero
// latency the depth-8 path costs the same as depth 1.
//
// Semantics are identical to Map(inner, func(v) { return await(v, issue(v)) })
// — source order, halts, continuations, and error positions are preserved.
// The only observable difference is eagerness: how far the source is pulled,
// and work issued, ahead of consumption, so source-side limits and issued reads
// (conflict ranges, accounting) may run ahead of the consumer. How far:
//
//   - depth <= 1 issues and awaits strictly element by element, always.
//   - depth bounds speculation past what has been read: while pulling the
//     source would wait, at most depth handles are outstanding.
//   - While the source is Ready — its next element is in hand, as after a range
//     read delivered a batch — issuing for it is no guess about what the source
//     holds, and the window follows the source up to maxInFlight: a 130-entry
//     batch is fetched in two windows, not seventeen. A consumer that stops
//     early has then issued up to maxInFlight-1 past its last element, not
//     depth-1.
//   - Under a Demand(n) — a Limit above — nothing past the n-th element is
//     issued unless the consumer does ask for it, and since every issue is
//     then a wanted one the window is min(n, maxInFlight).
func MapAsync[T, F, U any](inner Cursor[T], depth int, issue func(T) F, await func(T, F) (U, error)) Cursor[U] {
	if depth < 1 {
		depth = 1
	}
	return &asyncCursor[T, F, U]{inner: inner, depth: depth, issue: issue, await: await}
}

// maxInFlight caps the handles MapAsync keeps outstanding at depth > 1.
const maxInFlight = 128

// asyncSlot is one issued-but-unawaited element.
type asyncSlot[T, F any] struct {
	src    T
	handle F
	cont   []byte
}

type asyncCursor[T, F, U any] struct {
	inner   Cursor[T]
	depth   int
	issue   func(T) F
	await   func(T, F) (U, error)
	queue   []asyncSlot[T, F] // ring of issued elements, source order, from head
	head    int
	queued  int        // live elements in queue
	srcHalt *Result[U] // halt from the source, delivered after the queue drains
	srcErr  error      // error from the source, surfaced after the queue drains
	err     error      // sticky: an error already returned to the consumer
	issued  int        // elements issued so far
	want    int        // announced demand, as a bound on issued; 0 = none
}

// Demand implements Demander: one value out per source value in.
func (c *asyncCursor[T, F, U]) Demand(n int) {
	c.want = c.issued + n
	if c.depth > 1 {
		c.depth = min(n, maxInFlight)
	}
	Demand(c.inner, n)
}

// Prefetch implements Prefetcher by forwarding to the source: the issued
// handles in the queue are already in flight, so the only I/O worth starting
// early is the source's next batch.
func (c *asyncCursor[T, F, U]) Prefetch() {
	if c.srcHalt != nil || c.srcErr != nil {
		return
	}
	Prefetch(c.inner)
}

func (c *asyncCursor[T, F, U]) Next() (Result[U], error) {
	if c.err != nil {
		return Result[U]{}, c.err
	}
	// Keep the issue window full until the source stops, and follow a Ready
	// source past it; past a met demand issue only what the consumer waits for.
	for c.srcHalt == nil && c.srcErr == nil {
		inFlight := c.queued
		if inFlight > 0 && c.want > 0 && c.issued >= c.want {
			break
		}
		if inFlight >= c.depth && (c.depth == 1 || inFlight >= maxInFlight || !Ready(c.inner)) {
			break
		}
		r, err := c.inner.Next()
		if err != nil {
			c.srcErr = err
			break
		}
		if !r.OK {
			h := halt[U](r.Reason, r.Continuation)
			c.srcHalt = &h
			break
		}
		c.push(asyncSlot[T, F]{src: r.Value, handle: c.issue(r.Value), cont: r.Continuation})
		c.issued++
	}
	if c.queued == 0 {
		if c.srcErr != nil {
			c.err = c.srcErr
			return Result[U]{}, c.err
		}
		return *c.srcHalt, nil
	}
	s := c.queue[c.head]
	c.queue[c.head] = asyncSlot[T, F]{} // release references
	c.head = (c.head + 1) % len(c.queue)
	c.queued--
	v, err := c.await(s.src, s.handle)
	if err != nil {
		c.err = err
		return Result[U]{}, c.err
	}
	return Result[U]{Value: v, OK: true, Continuation: s.cont}, nil
}

// push queues an issued element. The ring is allocated at depth, the window
// the consumer can reach, and doubles only when a Ready source pushes the
// window past it.
func (c *asyncCursor[T, F, U]) push(s asyncSlot[T, F]) {
	if c.queued == len(c.queue) {
		grown := make([]asyncSlot[T, F], max(c.depth, 2*len(c.queue)))
		n := copy(grown, c.queue[c.head:])
		copy(grown[n:], c.queue[:c.head])
		c.queue, c.head = grown, 0
	}
	c.queue[(c.head+c.queued)%len(c.queue)] = s
	c.queued++
}
