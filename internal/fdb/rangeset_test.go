package fdb

import (
	"bytes"
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

// TestResolverMatchesBruteForceOverlap: two transactions start together,
// each issues random point and range reads (some snapshot), sets, clears,
// range clears and manual write-conflict keys over a small universe whose
// keys are prefixes of each other and end in 0x00; the first commits, and the
// second's verdict must be a brute-force check: does a range it read overlap
// a key or range the first wrote? A point read is [k, k+0x00), and records
// nothing when the reader's own buffer answers it. The second also writes a
// key outside the universe, so it always reaches the resolver. A failure
// prints the seed.
func TestResolverMatchesBruteForceOverlap(t *testing.T) {
	universe := rangeSetUniverse(3)
	in := func(k, b, e []byte) bool { return bytes.Compare(b, k) <= 0 && bytes.Compare(k, e) < 0 }
	for seed := int64(1); seed <= 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		key := func() []byte { return universe[rng.Intn(len(universe))] }
		db := Open(nil)
		init := db.CreateTransaction()
		for _, k := range universe {
			if rng.Intn(2) == 0 {
				if err := init.Set(k, []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
		}
		mustCommit(t, init)

		type op struct {
			kind string
			b, e []byte
		}
		var ops [2][]op
		txns := [2]*Transaction{db.CreateTransaction(), db.CreateTransaction()}
		var reads []KeyRange  // the second transaction's conflicting reads
		var writes []KeyRange // the first's writes; End nil is one key
		for step := 0; step < 16; step++ {
			i := rng.Intn(2)
			tr := txns[i]
			b, e := key(), key()
			var err error
			o := op{b: b, e: e}
			switch rng.Intn(7) {
			case 0:
				o.kind = "get"
				// The buffer answers a key this transaction wrote or cleared.
				own := false
				for _, w := range ops[i] {
					own = own || (w.kind == "set" || w.kind == "clear") && bytes.Equal(w.b, b) || w.kind == "clearrange" && in(b, w.b, w.e)
				}
				_, err = tr.Get(b)
				if i == 1 && !own {
					reads = append(reads, KeyRange{Begin: b, End: keyAfter(b)})
				}
			case 1:
				o.kind = "getrange"
				_, _, err = tr.GetRange(b, e, RangeOptions{})
				if i == 1 && bytes.Compare(b, e) < 0 {
					reads = append(reads, KeyRange{Begin: b, End: e})
				}
			case 2:
				o.kind = "snapshot"
				if rng.Intn(2) == 0 {
					_, err = tr.Snapshot().Get(b)
				} else {
					_, _, err = tr.Snapshot().GetRange(b, e, RangeOptions{})
				}
			case 3:
				o.kind = "set"
				err = tr.Set(b, []byte("w"))
				if i == 0 {
					writes = append(writes, KeyRange{Begin: b})
				}
			case 4:
				o.kind = "clear"
				err = tr.Clear(b)
				if i == 0 {
					writes = append(writes, KeyRange{Begin: b})
				}
			case 5:
				o.kind = "clearrange"
				err = tr.ClearRange(b, e)
				if i == 0 && bytes.Compare(b, e) < 0 {
					writes = append(writes, KeyRange{Begin: b, End: e})
				}
			case 6:
				o.kind = "writeconflict"
				tr.AddWriteConflictKey(b)
				if i == 0 {
					writes = append(writes, KeyRange{Begin: b})
				}
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %s: %v", seed, step, o.kind, err)
			}
			ops[i] = append(ops[i], o)
		}
		want := false
		for _, r := range reads {
			for _, w := range writes {
				if w.End == nil {
					want = want || in(w.Begin, r.Begin, r.End)
				} else {
					want = want || bytes.Compare(r.Begin, w.End) < 0 && bytes.Compare(w.Begin, r.End) < 0
				}
			}
		}
		if err := txns[0].Commit(); err != nil {
			t.Fatalf("seed %d: the first commit: %v", seed, err)
		}
		// A read-only commit never reaches the resolver: write a key past
		// the universe, which no read covers.
		mustSet(t, txns[1], "c", "w")
		err := txns[1].Commit()
		if got := IsConflict(err); got != want || err != nil && !got {
			t.Fatalf("seed %d: second commit: %v, want conflict %v\nfirst: %q\nsecond: %q", seed, err, want, ops[0], ops[1])
		}
	}
}
