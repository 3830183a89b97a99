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
// the source unchanged; Filter, Union and Intersection do not, because a value
// they deliver may cost the source any number of its own.
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
		}, 0},
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
