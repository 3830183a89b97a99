package cursor

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// demandSpy is a source that records the demand announced to it.
type demandSpy struct {
	haltingSource
	got int
}

func (s *demandSpy) Demand(n int) { s.got = n }

// TestDemandFlowsAndStops: Limit announces its n; Map and MapAsync hand it to
// the source unchanged; Union hands every child n + 1 (the n it can consume
// and the head it looks ahead at); Filter and Intersection hand on nothing,
// because a value they deliver may cost the source any number of its own.
func TestDemandFlowsAndStops(t *testing.T) {
	id := func(v int) (int, error) { return v, nil }
	keep := func(int) (bool, error) { return true, nil }
	key := func(v int) []byte { return []byte{byte(v)} }
	child := func(c Cursor[int]) func([]byte) Cursor[int] {
		return func([]byte) Cursor[int] { return c }
	}
	wraps := []struct {
		name string
		wrap func(Cursor[int]) Cursor[int]
		want int
	}{
		{"bare", func(c Cursor[int]) Cursor[int] { return c }, 7},
		{"map", func(c Cursor[int]) Cursor[int] { return Map(c, id) }, 7},
		{"mapasync", func(c Cursor[int]) Cursor[int] {
			return MapAsync(c, 4, func(v int) int { return v }, func(_ int, h int) (int, error) { return h, nil })
		}, 7},
		{"filter", func(c Cursor[int]) Cursor[int] { return Filter(c, keep) }, 0},
		{"union", func(c Cursor[int]) Cursor[int] {
			u, _ := Union(nil, key, child(c), child(FromSlice([]int{1}, nil)))
			return u
		}, 8},
		{"intersection", func(c Cursor[int]) Cursor[int] {
			u, _ := Intersection(nil, key, child(c), child(FromSlice([]int{1}, nil)))
			return u
		}, 0},
	}
	for _, w := range wraps {
		spy := &demandSpy{haltingSource: haltingSource{n: 20, errAt: -1}}
		Limit(w.wrap(spy), 7)
		if spy.got != w.want {
			t.Errorf("%s: source was told %d, want %d", w.name, spy.got, w.want)
		}
	}
	spy := &demandSpy{haltingSource: haltingSource{n: 20, errAt: -1}}
	if Limit[int](spy, 0); spy.got != 0 {
		t.Errorf("an unlimited Limit announced %d", spy.got)
	}
}

// TestMapAsyncDemandProperty: over random sources (length, halt, source and
// await error positions), depths, and a demand drawn from {1, k-1, k, k+1,
// huge} for a consumer that calls Next k times — so sometimes more often than
// it announced — every result and error is the one the same cursor gives
// with no demand. With demand k the cursor issues exactly the k fetches the
// consumer takes (fewer if the source ends first), all of them before the
// first await when depth > 1 and k fits the window, one at a time at depth 1.
func TestMapAsyncDemandProperty(t *testing.T) {
	boom := errors.New("await failed")
	for seed := int64(1); seed <= 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40)
		if rng.Intn(5) == 0 {
			n = rng.Intn(400) // past 128
		}
		src := haltingSource{n: n, reason: NoNextReason(rng.Intn(5)), cont: []byte("resume"), errAt: -1}
		if src.reason == SourceExhausted {
			src.cont = nil
		}
		if rng.Intn(4) == 0 {
			src.errAt = rng.Intn(n + 1)
		}
		awaitErrAt := -1
		if rng.Intn(4) == 0 {
			awaitErrAt = rng.Intn(n + 1)
		}
		depth := []int{0, 1, 2, 8, 200}[rng.Intn(5)]
		k := 1 + rng.Intn(n+3)

		// take calls Next k times under the given demand and returns one line
		// per call, the order of issues, and how many were out before the first
		// await.
		take := func(demand int) (steps []string, issued []int, firstWindow int) {
			s := src
			firstWindow = -1
			c := MapAsync[int, int, int](&s, depth,
				func(v int) int { issued = append(issued, v); return v * v },
				func(v int, h int) (int, error) {
					if firstWindow < 0 {
						firstWindow = len(issued)
					}
					if v == awaitErrAt {
						return 0, boom
					}
					return h, nil
				})
			Demand(c, demand)
			for i := 0; i < k; i++ {
				r, err := c.Next()
				steps = append(steps, fmt.Sprintf("%v %d %x %v %v", r.OK, r.Value, r.Continuation, r.Reason, err))
			}
			return steps, issued, firstWindow
		}

		ref, _, _ := take(0)
		for _, d := range []int{1, k - 1, k, k + 1, 1 << 40} {
			if d <= 0 {
				continue
			}
			got, issued, first := take(d)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("seed %d (n=%d depth=%d k=%d demand=%d): call %d = %q, want %q",
						seed, n, depth, k, d, i, got[i], ref[i])
				}
			}
			for i, v := range issued {
				if v != i {
					t.Fatalf("seed %d demand %d: issue order %v", seed, d, issued)
				}
			}
			if d != k {
				continue
			}
			// Exactly what the consumer took was fetched: k, or the whole
			// source when it ends (or fails) first.
			avail := n
			if src.errAt >= 0 {
				avail = src.errAt
			}
			if awaitErrAt >= 0 && awaitErrAt < avail {
				continue // the sticky error stops consumption early; the window decides
			}
			if want := min(k, avail); len(issued) != want {
				t.Fatalf("seed %d (n=%d depth=%d k=%d): demand k issued %d fetches, want %d",
					seed, n, depth, k, len(issued), want)
			}
			window := 1
			if depth > 1 {
				window = min(k, 128)
			}
			if want := min(window, avail); avail > 0 && first != want {
				t.Fatalf("seed %d (n=%d depth=%d k=%d): %d fetches out at the first await, want %d",
					seed, n, depth, k, first, want)
			}
		}
	}
}

// batchedSource is a haltingSource whose values arrive in batches, as a range
// scan's do: it is Ready until the batch it is in has been handed out.
type batchedSource struct {
	haltingSource
	batch int
}

func (s *batchedSource) Ready() bool { return s.pos%s.batch != 0 || s.pos >= s.n }

// TestMapAsyncFollowsReadySource: depth bounds what is issued past what the
// source has read; for values the source already holds the window follows the
// source, up to maxInFlight. A source of 300 in batches, an await that records
// how many issues were outstanding: 128 at depth 8 with batches of 130 where a
// source that is never Ready gets 8; depth 1 stays at 1, and a demand stays
// exact, whatever the source says. Results never differ.
func TestMapAsyncFollowsReadySource(t *testing.T) {
	run := func(src Cursor[int], depth, demand int) (peak, issued int, steps []string) {
		awaited := 0
		c := MapAsync[int, int, int](src, depth,
			func(v int) int { issued++; return v * v },
			func(_ int, h int) (int, error) {
				peak = max(peak, issued-awaited)
				awaited++
				return h, nil
			})
		Demand(c, demand)
		for call := 0; demand == 0 || call < demand; call++ {
			r, err := c.Next()
			steps = append(steps, fmt.Sprintf("%v %d %x %v %v", r.OK, r.Value, r.Continuation, r.Reason, err))
			if !r.OK {
				break
			}
		}
		return peak, issued, steps
	}
	plain := func() Cursor[int] { return &haltingSource{n: 300, errAt: -1} }
	batched := func(batch int) Cursor[int] {
		return &batchedSource{haltingSource{n: 300, errAt: -1}, batch}
	}
	_, _, ref := run(plain(), 1, 0)
	for _, tc := range []struct {
		name                     string
		src                      Cursor[int]
		depth, demand, peak, all int
	}{
		{"never ready, depth 8", plain(), 8, 0, 8, 300},
		{"batches of 130, depth 8", batched(130), 8, 0, 128, 300},
		// A batch is pulled once fewer than depth are in flight, then followed.
		{"batches of 100, depth 8", batched(100), 8, 0, 7 + 100, 300},
		{"batches of 4, depth 8", batched(4), 8, 0, 7 + 4, 300},
		{"batches of 130, depth 1", batched(130), 1, 0, 1, 300},
		{"batches of 130, depth 200", batched(130), 200, 0, 200, 300},
		{"batches of 130, depth 8, demand 20", batched(130), 8, 20, 20, 20},
		{"batches of 130, depth 1, demand 20", batched(130), 1, 20, 1, 20},
	} {
		peak, issued, steps := run(tc.src, tc.depth, tc.demand)
		if peak != tc.peak || issued != tc.all {
			t.Errorf("%s: at most %d in flight of %d issued, want %d of %d", tc.name, peak, issued, tc.peak, tc.all)
		}
		if fmt.Sprint(steps) != fmt.Sprint(ref[:len(steps)]) {
			t.Errorf("%s: results differ from depth 1's", tc.name)
		}
	}
}

// TestMergeReadyAndUnionDemand: a merge is Ready when every child it would
// pull has a buffered head or is Ready itself, and a union under Limit n pulls
// no child more than the n + 1 times it announced.
func TestMergeReadyAndUnionDemand(t *testing.T) {
	key := func(v int) []byte { return []byte{byte(v)} }
	child := func(c Cursor[int]) func([]byte) Cursor[int] {
		return func([]byte) Cursor[int] { return c }
	}
	plain := func() Cursor[int] { return &haltingSource{n: 50, errAt: -1} }
	ready := func() Cursor[int] { // Ready once its first value is out
		return &batchedSource{haltingSource{n: 50, errAt: -1}, 1000}
	}
	for _, merge := range []func([]byte, func(int) []byte, ...func([]byte) Cursor[int]) (Cursor[int], error){Union[int], Intersection[int]} {
		m, _ := merge(nil, key, child(ready()), child(ready()))
		if Ready(m) {
			t.Error("a merge of two unread children is Ready")
		}
		if _, err := m.Next(); err != nil {
			t.Fatal(err)
		}
		if !Ready(m) {
			t.Error("a merge whose children are both Ready is not")
		}
		m, _ = merge(nil, key, child(ready()), child(plain()))
		if m.Next(); Ready(m) {
			t.Error("a merge with a child that is not Ready, and no buffered head, is Ready")
		}
	}
	// Equal streams: every emitted value consumes both heads.
	spies := []*demandSpy{
		{haltingSource: haltingSource{n: 50, errAt: -1}},
		{haltingSource: haltingSource{n: 50, errAt: -1}},
	}
	u, _ := Union(nil, key, child(spies[0]), child(spies[1]))
	if vals, _, _, _ := Collect(Limit(u, 7)); len(vals) != 7 {
		t.Fatalf("union under Limit 7 returned %d values", len(vals))
	}
	for i, spy := range spies {
		if spy.got != 8 || spy.pos > 8 {
			t.Errorf("child %d: told %d and pulled %d times, want 8 and at most 8", i, spy.got, spy.pos)
		}
	}
}

// TestMapAsyncQueueAllocs: MapAsync allocates its issue queue once, at the
// window the consumer can reach (depth, or min(n, maxInFlight) under a demand
// of n), and grows it only while a Ready source pushes the window past depth.
// Per execution, beyond what the source allocates: the cursor, the halt it
// keeps once the source ends, and the queue, which a batched source at depth 8
// grows four times (16, 32, 64, 128). None of it depends on how long the
// stream runs.
func TestMapAsyncQueueAllocs(t *testing.T) {
	const n = 300
	issue := func(v int) int { return v }
	await := func(_ int, h int) (int, error) { return h, nil }
	for _, tc := range []struct {
		name          string
		src           func() Cursor[int]
		depth, demand int
		want          float64
	}{
		{"depth 8", func() Cursor[int] { return &haltingSource{n: n, errAt: -1} }, 8, 0, 3},
		{"depth 8, demand 20", func() Cursor[int] { return &batchedSource{haltingSource{n: n, errAt: -1}, 130} }, 8, 20, 2},
		{"depth 8, batches of 130", func() Cursor[int] { return &batchedSource{haltingSource{n: n, errAt: -1}, 130} }, 8, 0, 7},
	} {
		pulls := n + 1
		if tc.demand > 0 {
			pulls = tc.demand
		}
		source := testing.AllocsPerRun(20, func() {
			src := tc.src()
			for i := 0; i < pulls; i++ {
				src.Next()
			}
		})
		got := testing.AllocsPerRun(20, func() {
			c := MapAsync(tc.src(), tc.depth, issue, await)
			Demand(c, tc.demand)
			for i := 0; tc.demand == 0 || i < tc.demand; i++ {
				if r, _ := c.Next(); !r.OK {
					break
				}
			}
		}) - source
		if got != tc.want {
			t.Errorf("%s: %v allocations beyond the source's, want %v", tc.name, got, tc.want)
		}
	}
}
