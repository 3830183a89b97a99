package cursor

import (
	"errors"
	"fmt"
	"testing"
)

// haltingSource yields n values then halts with the given reason and
// continuation; an optional error fires instead of the value at errAt.
type haltingSource struct {
	n      int
	reason NoNextReason
	cont   []byte
	errAt  int // -1 disables
	pos    int
}

func (s *haltingSource) Next() (Result[int], error) {
	if s.errAt >= 0 && s.pos == s.errAt {
		return Result[int]{}, fmt.Errorf("source error at %d", s.pos)
	}
	if s.pos >= s.n {
		return halt[int](s.reason, s.cont), nil
	}
	v := s.pos
	s.pos++
	return Result[int]{Value: v, OK: true, Continuation: []byte{byte(v)}}, nil
}

func (s *haltingSource) Prefetch()  {}
func (s *haltingSource) Demand(int) {}
func (s *haltingSource) Ready() int { return 0 }

// drainAll collects values, continuations, and the terminal state of a cursor.
func drainAll[T any](t *testing.T, c Cursor[T]) (vals []T, conts [][]byte, reason NoNextReason, cont []byte, err error) {
	t.Helper()
	for {
		r, e := c.Next()
		if e != nil {
			return vals, conts, 0, nil, e
		}
		if !r.OK {
			return vals, conts, r.Reason, r.Continuation, nil
		}
		vals = append(vals, r.Value)
		conts = append(conts, r.Continuation)
	}
}

// intIssue/intAwait model a future-style issue/await pair over ints, with an
// issue counter so tests can observe the eagerness window.
func squareAsync(issued *[]int) (func(int) int, func(int, int) (int, error)) {
	issue := func(v int) int {
		*issued = append(*issued, v)
		return v * v
	}
	await := func(_ int, h int) (int, error) { return h, nil }
	return issue, await
}

// TestMapAsyncMatchesMap: for every depth, values, order, per-result
// continuations, and the halt are identical to sequential Map.
func TestMapAsyncMatchesMap(t *testing.T) {
	wantVals, wantConts, wantReason, wantCont, err := drainAll(t,
		Map[int, int](&haltingSource{n: 20, reason: ScanLimitReached, cont: []byte("resume"), errAt: -1},
			func(v int) (int, error) { return v * v, nil }))
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{0, 1, 2, 3, 8, 32} {
		var issued []int
		issue, await := squareAsync(&issued)
		vals, conts, reason, cont, err := drainAll(t,
			MapAsync[int, int, int](&haltingSource{n: 20, reason: ScanLimitReached, cont: []byte("resume"), errAt: -1}, depth, issue, await))
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if len(vals) != len(wantVals) {
			t.Fatalf("depth %d: %d values, want %d", depth, len(vals), len(wantVals))
		}
		for i := range vals {
			if vals[i] != wantVals[i] || string(conts[i]) != string(wantConts[i]) {
				t.Fatalf("depth %d: result %d = (%d, %x), want (%d, %x)",
					depth, i, vals[i], conts[i], wantVals[i], wantConts[i])
			}
		}
		if reason != wantReason || string(cont) != string(wantCont) {
			t.Fatalf("depth %d: halt (%v, %x), want (%v, %x)", depth, reason, cont, wantReason, wantCont)
		}
		// Issues happen in source order regardless of depth.
		for i, v := range issued {
			if v != i {
				t.Fatalf("depth %d: issue order %v", depth, issued)
			}
		}
	}
}

// TestMapAsyncEagerness: exactly depth elements are issued before the first
// await, and depth 1 never runs ahead of consumption.
func TestMapAsyncEagerness(t *testing.T) {
	for _, depth := range []int{1, 4} {
		var issued []int
		issue, await := squareAsync(&issued)
		c := MapAsync[int, int, int](&haltingSource{n: 10, reason: SourceExhausted, errAt: -1}, depth, issue, await)
		r, err := c.Next()
		if err != nil || !r.OK || r.Value != 0 {
			t.Fatalf("depth %d first: %+v %v", depth, r, err)
		}
		if len(issued) != depth {
			t.Fatalf("depth %d: %d issued after one Next, want exactly depth", depth, len(issued))
		}
	}
}

// TestMapAsyncAwaitError: an error from await surfaces at its exact position
// and is sticky.
func TestMapAsyncAwaitError(t *testing.T) {
	boom := errors.New("fetch failed")
	for _, depth := range []int{1, 2, 8} {
		c := MapAsync[int, int, int](&haltingSource{n: 20, reason: SourceExhausted, errAt: -1}, depth,
			func(v int) int { return v },
			func(_ int, h int) (int, error) {
				if h == 5 {
					return 0, boom
				}
				return h, nil
			})
		var got []int
		var err error
		for {
			r, e := c.Next()
			if e != nil {
				err = e
				break
			}
			if !r.OK {
				t.Fatalf("depth %d: halted (%v) instead of erroring", depth, r.Reason)
			}
			got = append(got, r.Value)
		}
		if !errors.Is(err, boom) || len(got) != 5 {
			t.Fatalf("depth %d: %v before err %v, want exactly 0..4 then boom", depth, got, err)
		}
		if _, e := c.Next(); !errors.Is(e, boom) {
			t.Fatalf("depth %d: error not sticky: %v", depth, e)
		}
	}
}

// TestMapAsyncSourceError: a source error surfaces after every result already
// issued, matching sequential order.
func TestMapAsyncSourceError(t *testing.T) {
	for _, depth := range []int{1, 2, 8} {
		c := MapAsync[int, int, int](&haltingSource{n: 20, reason: SourceExhausted, errAt: 7}, depth,
			func(v int) int { return v },
			func(_ int, h int) (int, error) { return h, nil })
		var got []int
		var err error
		for {
			r, e := c.Next()
			if e != nil {
				err = e
				break
			}
			if !r.OK {
				t.Fatalf("depth %d: halted instead of erroring", depth)
			}
			got = append(got, r.Value)
		}
		if err == nil || len(got) != 7 {
			t.Fatalf("depth %d: got %v err %v, want 0..6 then the source error", depth, got, err)
		}
	}
}

// TestMapAsyncHaltPersists: the halt keeps being returned after delivery.
func TestMapAsyncHaltPersists(t *testing.T) {
	c := MapAsync[int, int, int](&haltingSource{n: 3, reason: ByteLimitReached, cont: []byte("x"), errAt: -1}, 4,
		func(v int) int { return v },
		func(_ int, h int) (int, error) { return h, nil })
	for i := 0; i < 3; i++ {
		if r, err := c.Next(); err != nil || !r.OK {
			t.Fatalf("value %d: %+v %v", i, r, err)
		}
	}
	for i := 0; i < 3; i++ {
		r, err := c.Next()
		if err != nil || r.OK || r.Reason != ByteLimitReached || string(r.Continuation) != "x" {
			t.Fatalf("halt call %d: %+v %v", i, r, err)
		}
	}
}
