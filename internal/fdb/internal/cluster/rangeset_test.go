package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// rangeSetUniverse is every key of up to maxLen bytes over a three-letter
// alphabet that includes 0x00, sorted: small enough to enumerate, rich enough
// that AddKey's [k, k+0x00) ends land on other keys of the universe.
func rangeSetUniverse(maxLen int) [][]byte {
	keys := [][]byte{{}}
	for lo := 0; len(keys[lo]) < maxLen; lo++ {
		for _, b := range []byte{0x00, 'a', 'b'} {
			keys = append(keys, append(append([]byte(nil), keys[lo]...), b))
		}
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	return keys
}

// coveredRuns turns one covered bit per universe key into the maximal covered
// ranges. The largest key must not be covered: a run ends on the key after it.
func coveredRuns(universe [][]byte, covered []bool) []KeyRange {
	var out []KeyRange
	for i := 0; i < len(universe); i++ {
		if !covered[i] {
			continue
		}
		j := i
		for covered[j] {
			j++
		}
		out = append(out, KeyRange{Begin: universe[i], End: universe[j]})
		i = j
	}
	return out
}

// TestRangeSetMatchesBruteForceModel drives Add/AddKey against a model that
// is one covered bit per key of a small universe, and checks ContainsKey,
// Overlaps and All (sorted, disjoint, non-adjacent, and exactly the model's
// maximal runs) after every step. Range ends are drawn from keys of up to
// three bytes, so every end — AddKey's included — is a key of the four-byte
// universe and a run's end is the first uncovered key after it. A failure
// prints the seed.
func TestRangeSetMatchesBruteForceModel(t *testing.T) {
	universe := rangeSetUniverse(4)
	var ends [][]byte // what Add and AddKey are called with
	for _, k := range universe {
		if len(k) <= 3 {
			ends = append(ends, k)
		}
	}
	pos := func(k []byte) int {
		return sort.Search(len(universe), func(i int) bool { return bytes.Compare(universe[i], k) >= 0 })
	}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s RangeSet
		covered := make([]bool, len(universe))
		var held []KeyRange // All() as copied out earlier: its bytes must never change
		var heldWant []string
		for step := 0; step < 60; step++ {
			what := fmt.Sprintf("seed %d step %d", seed, step)
			// Callers reuse their key buffers, so hand over scratch copies and
			// scribble on them afterwards.
			b := append([]byte(nil), ends[rng.Intn(len(ends))]...)
			e := append([]byte(nil), ends[rng.Intn(len(ends))]...)
			if rng.Intn(3) == 0 {
				s.AddKey(b)
				covered[pos(b)] = true
			} else {
				s.Add(b, e)
				for i := pos(b); i < pos(e); i++ {
					covered[i] = true
				}
			}
			for i := range b {
				b[i] = 0xff
			}
			for i := range e {
				e[i] = 0xff
			}

			want := coveredRuns(universe, covered)
			got := s.All()
			if s.Len() != len(want) || len(got) != len(want) {
				t.Fatalf("%s: %d ranges (Len %d), want %d: %q vs %q", what, len(got), s.Len(), len(want), got, want)
			}
			for i := range want {
				if !bytes.Equal(got[i].Begin, want[i].Begin) || !bytes.Equal(got[i].End, want[i].End) {
					t.Fatalf("%s: range %d is [%q, %q), want [%q, %q)", what, i, got[i].Begin, got[i].End, want[i].Begin, want[i].End)
				}
				if i > 0 && bytes.Compare(got[i-1].End, got[i].Begin) >= 0 {
					t.Fatalf("%s: ranges %d and %d overlap or touch", what, i-1, i)
				}
			}
			for i, k := range universe {
				if s.ContainsKey(k) != covered[i] {
					t.Fatalf("%s: ContainsKey(%q) = %v, want %v", what, k, !covered[i], covered[i])
				}
			}
			for probe := 0; probe < 20; probe++ {
				pb, pe := ends[rng.Intn(len(ends))], ends[rng.Intn(len(ends))]
				overlap := false
				for i := pos(pb); i < pos(pe); i++ {
					overlap = overlap || covered[i]
				}
				if s.Overlaps(pb, pe) != overlap {
					t.Fatalf("%s: Overlaps(%q, %q) = %v, want %v", what, pb, pe, !overlap, overlap)
				}
			}

			// A commit copies KeyRange values out of All() into the resolver's
			// window; later Adds may move ranges but not rewrite their bytes.
			for i, r := range held {
				if string(r.Begin)+"|"+string(r.End) != heldWant[i] {
					t.Fatalf("%s: a range copied out earlier changed to [%q, %q), was %q", what, r.Begin, r.End, heldWant[i])
				}
			}
			if step%10 == 0 {
				held, heldWant = held[:0], heldWant[:0]
				for _, r := range got {
					held = append(held, r)
					heldWant = append(heldWant, string(r.Begin)+"|"+string(r.End))
				}
			}
		}
	}
}

func TestRangeSet(t *testing.T) {
	var s RangeSet
	s.Add([]byte("b"), []byte("d"))
	s.Add([]byte("f"), []byte("h"))
	s.Add([]byte("c"), []byte("g")) // merges both
	if s.Len() != 1 {
		t.Fatalf("merge failed: %d ranges", s.Len())
	}
	if !s.ContainsKey([]byte("e")) || s.ContainsKey([]byte("a")) || s.ContainsKey([]byte("h")) {
		t.Fatal("containment wrong")
	}
	if !s.Overlaps([]byte("a"), []byte("c")) || s.Overlaps([]byte("h"), []byte("z")) {
		t.Fatal("overlap wrong")
	}
}
