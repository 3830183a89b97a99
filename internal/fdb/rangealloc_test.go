package fdb

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// TestRangeReadAllocsIgnoreCollections: what a range read allocates depends
// on the read alone, not on when the collector last ran. One seeded sequence
// of range reads, with batches below and above the stack array a read
// collects into, runs twice over the same buffered writes; the second run
// collects garbage before every read. Both must allocate the same objects and
// bytes read by read. Scratch memory kept across calls, which the runtime
// frees at a collection, makes the second run allocate more.
func TestRangeReadAllocsIgnoreCollections(t *testing.T) {
	const keys, reads = 700, 60
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%05d", i)) }
	db := Open(nil)
	tr := db.CreateTransaction()
	for i := 0; i < keys; i += 2 {
		if err := tr.Set(key(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}

	run := func(collect bool) (allocs, bytes []uint64) {
		rng := rand.New(rand.NewSource(1))
		tr := db.CreateTransaction()
		// Buffered writes the reads merge with the snapshot: sets between the
		// committed keys, overwrites, pending adds and a clear.
		one := binary.LittleEndian.AppendUint64(nil, 1)
		for i := 0; i < 200; i++ {
			k := rng.Intn(keys)
			switch rng.Intn(3) {
			case 0:
				tr.Set(key(k), []byte("buffered"))
			case 1:
				tr.Atomic(MutationAdd, key(k), one)
			default:
				tr.ClearRange(key(k), key(k+3))
			}
		}
		var before, after runtime.MemStats
		for i := 0; i < reads; i++ {
			b := rng.Intn(keys)
			begin, end := key(b), key(b+1+rng.Intn(keys-b))
			o := RangeOptions{Reverse: rng.Intn(4) == 0}
			switch rng.Intn(3) {
			case 0:
				o.Limit = 1 + rng.Intn(rangeStackLen) // fits the stack array
			case 1:
				o.Limit = rangeStackLen + 1 + rng.Intn(3*rangeStackLen) // spills
			} // else unlimited
			rt := tr
			if rng.Intn(2) == 0 {
				rt = db.CreateTransaction() // no buffered writes
			}
			if collect {
				// Two collections: the first keeps what it frees for one
				// more cycle in places (sync.Pool's victim cache).
				runtime.GC()
				runtime.GC()
			}
			runtime.ReadMemStats(&before)
			_, _, err := rt.GetRange(begin, end, o)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			allocs = append(allocs, after.Mallocs-before.Mallocs)
			bytes = append(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return allocs, bytes
	}
	// A runtime goroutine can allocate inside one read's window, so each
	// read's count is the least of three runs.
	least := func(collect bool) (allocs, bytes []uint64) {
		allocs, bytes = run(collect)
		for range 2 {
			a, b := run(collect)
			for i := range a {
				allocs[i], bytes[i] = min(allocs[i], a[i]), min(bytes[i], b[i])
			}
		}
		return allocs, bytes
	}
	run(false) // warm every lazily built structure the reads touch
	allocs, bytes := least(false)
	gcAllocs, gcBytes := least(true)
	for i := range allocs {
		if allocs[i] != gcAllocs[i] || bytes[i] != gcBytes[i] {
			t.Errorf("read %d: %d objects, %d B; with a collection before it %d objects, %d B",
				i, allocs[i], bytes[i], gcAllocs[i], gcBytes[i])
		}
	}
}
