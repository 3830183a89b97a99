package cursor

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Merge cursors combine ordered child streams — the only joins the streaming
// model permits (§3.1): children must be ordered by the same comparison key
// (typically the primary key or an index key prefix).

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
		s.done = true
		s.reason = r.Reason
		if r.Reason != SourceExhausted {
			// Out-of-band halt: resuming must re-read from here.
			s.consumed = r.Continuation
		} else {
			s.consumed = nil
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
			Prefetch(s.cur)
		}
	}
}

// childCont is the serialized per-child slot of a composite continuation.
type childCont struct {
	Done bool   `json:"d,omitempty"`
	Cont []byte `json:"c,omitempty"`
}

func encodeComposite(states []childCont) []byte {
	b, _ := json.Marshal(states)
	return b
}

// DecodeComposite splits a composite continuation into n child slots; a nil
// continuation yields n fresh (nil) slots.
func DecodeComposite(continuation []byte, n int) ([]childCont, error) {
	out := make([]childCont, n)
	if len(continuation) == 0 {
		return out, nil
	}
	if err := json.Unmarshal(continuation, &out); err != nil {
		return nil, fmt.Errorf("cursor: corrupt composite continuation: %v", err)
	}
	if len(out) != n {
		return nil, fmt.Errorf("cursor: continuation has %d children, expected %d", len(out), n)
	}
	return out, nil
}

func (s *childState[T]) slot() childCont {
	if s.done && s.reason == SourceExhausted {
		return childCont{Done: true}
	}
	return childCont{Cont: s.consumed}
}

// merge is what Union and Intersection share: the child streams, the key they
// are ordered by, and the halt once reached.
type merge[T any] struct {
	children []*childState[T]
	keyOf    func(T) []byte
	halted   *Result[T]
}

// newMerge builds the children from the slots of the composite continuation.
func newMerge[T any](continuation []byte, keyOf func(T) []byte,
	builders []func(continuation []byte) Cursor[T]) (merge[T], error) {

	slots, err := DecodeComposite(continuation, len(builders))
	if err != nil {
		return merge[T]{}, err
	}
	m := merge[T]{keyOf: keyOf}
	for i, build := range builders {
		st := &childState[T]{consumed: slots[i].Cont}
		if slots[i].Done {
			st.done = true
			st.reason = SourceExhausted
		} else {
			st.cur = build(slots[i].Cont)
		}
		m.children = append(m.children, st)
	}
	return m, nil
}

func (c *merge[T]) composite() []byte {
	slots := make([]childCont, len(c.children))
	for i, s := range c.children {
		slots[i] = s.slot()
	}
	return encodeComposite(slots)
}

// Ready implements Readier: every child a step would pull has its head
// buffered or is ready itself. (An intersection step that finds the heads
// unequal pulls again, and that pull may wait.)
func (c *merge[T]) Ready() bool {
	if c.halted != nil {
		return true
	}
	for _, s := range c.children {
		if !s.buffered && !s.done && !Ready(s.cur) {
			return false
		}
	}
	return true
}

type unionCursor[T any] struct{ merge[T] }

// Union merges ordered child streams, emitting each distinct key once
// (children positioned on equal keys advance together). Children are built
// by the supplied constructors from the slots of the composite continuation.
func Union[T any](continuation []byte, keyOf func(T) []byte,
	builders ...func(continuation []byte) Cursor[T]) (Cursor[T], error) {

	m, err := newMerge(continuation, keyOf, builders)
	if err != nil {
		return nil, err
	}
	return &unionCursor[T]{m}, nil
}

// Demand implements Demander. A union pulled k times pulls no child more than
// k times: n for the values, and one so that a consumer's look past the last of
// them still finds every head in the child's first batch.
func (c *unionCursor[T]) Demand(n int) {
	for _, s := range c.children {
		Demand(s.cur, n+1) // a child done in the continuation has no cursor
	}
}

func (c *unionCursor[T]) Next() (Result[T], error) {
	if c.halted != nil {
		return *c.halted, nil
	}
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
	if best == nil {
		reason := SourceExhausted
		var cont []byte
		if outOfBand >= 0 {
			reason = outOfBand
			cont = c.composite()
		}
		h := halt[T](reason, cont)
		c.halted = &h
		return h, nil
	}
	if outOfBand >= 0 {
		// One child hit a resource limit: stop the whole union so the
		// continuation stays consistent.
		h := halt[T](outOfBand, c.composite())
		c.halted = &h
		return h, nil
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

type intersectionCursor[T any] struct{ merge[T] }

// Intersection merges ordered child streams, emitting keys present in every
// child.
func Intersection[T any](continuation []byte, keyOf func(T) []byte,
	builders ...func(continuation []byte) Cursor[T]) (Cursor[T], error) {

	m, err := newMerge(continuation, keyOf, builders)
	if err != nil {
		return nil, err
	}
	return &intersectionCursor[T]{m}, nil
}

func (c *intersectionCursor[T]) Next() (Result[T], error) {
	if c.halted != nil {
		return *c.halted, nil
	}
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
				reason := SourceExhausted
				var cont []byte
				if s.reason.OutOfBand() {
					reason = s.reason
					cont = c.composite()
				}
				h := halt[T](reason, cont)
				c.halted = &h
				return h, nil
			}
			k := c.keyOf(r.Value)
			if maxKey == nil {
				maxKey = k
				continue
			}
			if !bytes.Equal(k, maxKey) {
				allEqual = false
				if bytes.Compare(k, maxKey) > 0 {
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

// Concat chains child streams sequentially. The continuation records the
// active child index and its continuation.
func Concat[T any](continuation []byte, builders ...func(continuation []byte) Cursor[T]) (Cursor[T], error) {
	type concatCont struct {
		Index int    `json:"i"`
		Cont  []byte `json:"c,omitempty"`
	}
	var state concatCont
	if len(continuation) > 0 {
		if err := json.Unmarshal(continuation, &state); err != nil {
			return nil, fmt.Errorf("cursor: corrupt concat continuation: %v", err)
		}
		if state.Index < 0 || state.Index > len(builders) {
			return nil, fmt.Errorf("cursor: concat continuation index %d out of range", state.Index)
		}
	}
	idx := state.Index
	var cur Cursor[T]
	if idx < len(builders) {
		cur = builders[idx](state.Cont)
	}
	return Func[T](func() (Result[T], error) {
		for {
			if idx >= len(builders) {
				return halt[T](SourceExhausted, nil), nil
			}
			r, err := cur.Next()
			if err != nil {
				return Result[T]{}, err
			}
			if r.OK {
				cont, _ := json.Marshal(concatCont{Index: idx, Cont: r.Continuation})
				return Result[T]{Value: r.Value, OK: true, Continuation: cont}, nil
			}
			if r.Reason != SourceExhausted {
				cont, _ := json.Marshal(concatCont{Index: idx, Cont: r.Continuation})
				return halt[T](r.Reason, cont), nil
			}
			idx++
			if idx < len(builders) {
				cur = builders[idx](nil)
			}
		}
	}), nil
}
