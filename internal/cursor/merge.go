package cursor

import (
	"bytes"
	"encoding/binary"
)

// childState tracks one child stream within a composite cursor.
type childState[T any] struct {
	cur      Cursor[T]
	head     Result[T] // peeked but not yet consumed, while buffered
	buffered bool
	consumed []byte // continuation after the last consumed value
	done     bool
	reason   NoNextReason
}

// peek returns the child's head, pulling it if none is buffered; nil once the
// child has halted. The head lives in the child's state, so a peek allocates
// nothing.
func (s *childState[T]) peek() (*Result[T], error) {
	if s.buffered {
		return &s.head, nil
	}
	if s.done {
		return nil, nil
	}
	r, err := s.cur.Next()
	if err != nil {
		return nil, err
	}
	if !r.OK {
		s.done, s.reason = true, r.Reason
		if r.Reason != SourceExhausted {
			s.consumed = r.Continuation // resuming must re-read from here
		}
		return nil, nil
	}
	s.head, s.buffered = r, true
	return &s.head, nil
}

func (s *childState[T]) consume() {
	if s.buffered {
		s.consumed = s.head.Continuation
		s.head, s.buffered = Result[T]{}, false
	}
}

// prefetchChildren starts the next I/O of every child whose head will need a
// pull, before any child is peeked (and therefore awaited): one merge step
// waits a single shared latency window instead of one per child (§8).
func prefetchChildren[T any](children []*childState[T]) {
	for _, s := range children {
		if !s.buffered && !s.done {
			s.cur.Prefetch()
		}
	}
}

// merge is Union and Intersection, the only joins the streaming model permits
// (§3.1): its children are ordered by the same key (typically the primary key
// or an index key prefix), and its kind picks the step and frames the position.
type merge[T any] struct {
	children []*childState[T]
	keyOf    func(T) []byte
	kind     byte
	halted   *Result[T]
}

// newMerge builds the children from the parts of a continuation framed as
// kind: one per child, the child's own continuation, or none for a child that
// is done. The whole frame is checked before any child is built.
func newMerge[T any](continuation []byte, kind byte, keyOf func(T) []byte,
	builders []func(continuation []byte) Cursor[T]) (Cursor[T], error) {

	m := &merge[T]{keyOf: keyOf, kind: kind, children: make([]*childState[T], len(builders))}
	r := ReadFrame(continuation, kind)
	for i := range m.children {
		st := &childState[T]{}
		if len(continuation) > 0 {
			var at bool
			if st.consumed, at = r.Part(); !at {
				st.done, st.reason = true, SourceExhausted
			}
		}
		m.children[i] = st
	}
	if len(continuation) > 0 && r.Close() != nil {
		return nil, ErrCorruptContinuation
	}
	for i, st := range m.children {
		if !st.done {
			st.cur = builders[i](st.consumed)
		}
	}
	return m, nil
}

// composite frames the children's positions, each one's last consumed
// continuation or, once it is exhausted, none.
func (c *merge[T]) composite() []byte {
	size := 1
	for _, s := range c.children {
		size += len(s.consumed) + 2
	}
	buf := append(make([]byte, 0, size), c.kind)
	for _, s := range c.children {
		if s.done && s.reason == SourceExhausted {
			buf = append(buf, 0)
		} else {
			buf = AppendPart(buf, s.consumed)
		}
	}
	return buf
}

// stop halts for good: out of band with every child's position, else exhausted.
func (c *merge[T]) stop(reason NoNextReason) (Result[T], error) {
	h := halt[T](SourceExhausted, nil)
	if reason.OutOfBand() {
		h = halt[T](reason, c.composite())
	}
	c.halted = &h
	return h, nil
}

// Prefetch takes no hint: a merge prefetches its children itself, per step.
func (c *merge[T]) Prefetch() {}

// Ready implements Cursor: a union's children's counts summed, an
// intersection's least, a buffered head counting one; 0 while a child a step
// would pull holds nothing (an intersection step that finds the heads unequal
// pulls again, and that pull may wait), and Ended once none is left.
func (c *merge[T]) Ready() int {
	total := -1 // no child counted yet
	for _, s := range c.children {
		n := 0
		if s.buffered {
			n = 1
		}
		if !s.done && c.halted == nil {
			k := s.cur.Ready()
			if k == 0 && n == 0 {
				return 0
			}
			n += max(k, 0)
		}
		if total < 0 || c.kind != kindUnion && n < total {
			total = n
		} else if c.kind == kindUnion {
			total += n
		}
	}
	if c.halted != nil || total <= 0 {
		return Ended
	}
	return total
}

// Union merges ordered child streams, emitting each distinct key once
// (children positioned on equal keys advance together). Children are built
// by the supplied constructors from the parts of the continuation.
func Union[T any](continuation []byte, keyOf func(T) []byte,
	builders ...func(continuation []byte) Cursor[T]) (Cursor[T], error) {
	return newMerge(continuation, kindUnion, keyOf, builders)
}

// Intersection merges ordered child streams, emitting keys present in every
// child.
func Intersection[T any](continuation []byte, keyOf func(T) []byte,
	builders ...func(continuation []byte) Cursor[T]) (Cursor[T], error) {
	return newMerge(continuation, kindIntersection, keyOf, builders)
}

// Demand implements Cursor for a union. A union pulled k times pulls no
// child more than k times: n for the values, and one so that a consumer's look
// past the last of them still finds every head in the child's first batch. An
// intersection drops values, so the demand stops there.
func (c *merge[T]) Demand(n int) {
	if c.kind != kindUnion {
		return
	}
	for _, s := range c.children {
		if s.cur != nil { // a child done in the continuation has no cursor
			s.cur.Demand(n + 1)
		}
	}
}

func (c *merge[T]) Next() (Result[T], error) {
	if c.halted != nil {
		return *c.halted, nil
	}
	if c.kind == kindUnion {
		return c.union()
	}
	return c.intersection()
}

func (c *merge[T]) union() (Result[T], error) {
	prefetchChildren(c.children)
	// Find the smallest key among buffered heads.
	var best *childState[T]
	var bestKey []byte
	outOfBand := NoNextReason(-1)
	for _, s := range c.children {
		r, err := s.peek()
		if err != nil {
			return Result[T]{}, err
		}
		if r == nil {
			if s.done && s.reason.OutOfBand() {
				outOfBand = s.reason
			}
			continue
		}
		k := c.keyOf(r.Value)
		if best == nil || bytes.Compare(k, bestKey) < 0 {
			best, bestKey = s, k
		}
	}
	if outOfBand >= 0 || best == nil {
		// A child that hit a resource limit stops the whole union, so the
		// continuation stays consistent.
		return c.stop(outOfBand)
	}
	val := best.head.Value
	// Consume every child positioned at the same key (dedup).
	for _, s := range c.children {
		if s.buffered && bytes.Equal(c.keyOf(s.head.Value), bestKey) {
			s.consume()
		}
	}
	return Result[T]{Value: val, OK: true, Continuation: c.composite()}, nil
}

func (c *merge[T]) intersection() (Result[T], error) {
	for {
		prefetchChildren(c.children)
		var maxKey []byte
		allEqual := true
		for _, s := range c.children {
			r, err := s.peek()
			if err != nil {
				return Result[T]{}, err
			}
			if r == nil {
				// Any exhausted child ends the intersection; an out-of-band
				// halt propagates its reason.
				return c.stop(s.reason)
			}
			if k := c.keyOf(r.Value); maxKey == nil {
				maxKey = k
			} else if cmp := bytes.Compare(k, maxKey); cmp != 0 {
				allEqual = false
				if cmp > 0 {
					maxKey = k
				}
			}
		}
		if allEqual {
			val := c.children[0].head.Value
			for _, s := range c.children {
				s.consume()
			}
			return Result[T]{Value: val, OK: true, Continuation: c.composite()}, nil
		}
		// Advance every child strictly below the maximum key.
		for _, s := range c.children {
			if s.buffered && bytes.Compare(c.keyOf(s.head.Value), maxKey) < 0 {
				s.consume()
			}
		}
	}
}

// Concat chains child streams sequentially. Its continuation is framed as
// kindConcat: the active child's index, then that child's continuation. It
// passes Prefetch and Ready to the active child; Ended only once the last
// child has ended.
func Concat[T any](continuation []byte, builders ...func(continuation []byte) Cursor[T]) (Cursor[T], error) {
	c := &concatCursor[T]{builders: builders}
	var cont []byte
	if len(continuation) > 0 {
		r := ReadFrame(continuation, kindConcat)
		i, at := r.Uvarint(uint64(len(builders))), false
		if cont, at = r.Part(); !at || r.Close() != nil {
			return nil, ErrCorruptContinuation
		}
		c.idx = int(i)
	}
	if c.idx < len(builders) {
		c.cur = builders[c.idx](cont)
	}
	return c, nil
}

type concatCursor[T any] struct {
	builders []func(continuation []byte) Cursor[T]
	idx      int // the active child's
	cur      Cursor[T]
}

// Prefetch implements Cursor.
func (c *concatCursor[T]) Prefetch() {
	if c.idx < len(c.builders) {
		c.cur.Prefetch()
	}
}

// Demand takes no hint: how the n values split over the children is unknown.
func (c *concatCursor[T]) Demand(int) {}

// Ready implements Cursor: the active child's count, except that a child
// which has ended is followed by the next one, not known to hold anything.
func (c *concatCursor[T]) Ready() int {
	if c.idx >= len(c.builders) {
		return Ended
	}
	if n := c.cur.Ready(); n != Ended || c.idx == len(c.builders)-1 {
		return n
	}
	return 0
}

func (c *concatCursor[T]) Next() (Result[T], error) {
	for c.idx < len(c.builders) {
		r, err := c.cur.Next()
		if err != nil {
			return Result[T]{}, err
		}
		if r.OK || r.Reason != SourceExhausted {
			frame := binary.AppendUvarint(append(make([]byte, 0, len(r.Continuation)+4), kindConcat), uint64(c.idx))
			r.Continuation = AppendPart(frame, r.Continuation)
			return r, nil
		}
		if c.idx++; c.idx < len(c.builders) {
			c.cur = c.builders[c.idx](nil)
		}
	}
	return halt[T](SourceExhausted, nil), nil
}
