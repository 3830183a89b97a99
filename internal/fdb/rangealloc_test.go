package fdb

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"recordlayer/internal/fdb/internal/cluster"
	"runtime"
	"testing"
)

// TestRangeReadAllocsIgnoreCollections: what a range read allocates depends
// on the read alone, not on when the collector last ran. One seeded sequence
// of range reads — GetRange, and GetRangeAsync both serializable and snapshot
// — with batches below and above the stack array a read collects into, runs
// twice over the same buffered writes; the second run collects garbage before
// every read. Both must allocate the same objects and bytes read by read.
// Scratch memory kept across calls, which the runtime frees at a collection,
// makes the second run allocate more.
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
		// committed keys, overwrites, pending adds, a clear, and versionstamped
		// values with an add folded over them, which a read hands out as a
		// fresh entry.
		one := binary.LittleEndian.AppendUint64(nil, 1)
		stamped := make([]byte, 14) // a 10-byte placeholder at offset 0
		for i := 0; i < 200; i++ {
			k := rng.Intn(keys)
			switch rng.Intn(4) {
			case 0:
				tr.Set(key(k), []byte("buffered"))
			case 1:
				tr.Atomic(MutationAdd, key(k), one)
			case 2:
				tr.Atomic(MutationSetVersionstampedValue, key(k), stamped)
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
			read := rng.Intn(3)
			runtime.ReadMemStats(&before)
			var err error
			switch read {
			case 0:
				_, _, err = rt.GetRange(begin, end, o)
			case 1:
				_, _, err = rt.GetRangeAsync(begin, end, o).Get()
			default:
				_, _, err = rt.Snapshot().GetRangeAsync(begin, end, o).Get()
			}
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

// TestRangeFutureAllocs: a future over n pairs allocates the future and one
// n-pointer slice — exactly what allocating those two directly costs — and
// nothing per pair, up to the stack array a read collects into. The reads are
// snapshot reads, which record no read conflict range.
func TestRangeFutureAllocs(t *testing.T) {
	const keys = rangeStackLen
	db := Open(nil)
	tr := db.CreateTransaction()
	for i := 0; i < keys; i++ {
		if err := tr.Set([]byte(fmt.Sprintf("k%05d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	measure := func(f func()) (allocs, bytes uint64) {
		const runs = 50
		f()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	rt := db.CreateTransaction()
	begin, end := []byte("k"), []byte("l")
	var sink *FutureRange
	var sinkPairs []*cluster.Entry
	for _, n := range []int{1, 2, 7, 34, keys} {
		var got Pairs
		allocs, bytes := measure(func() {
			sink = rt.Snapshot().GetRangeAsync(begin, end, RangeOptions{Limit: n})
			got, _, _ = sink.Get()
		})
		if got.Len() != n {
			t.Fatalf("limit %d: %d pairs", n, got.Len())
		}
		wantAllocs, wantBytes := measure(func() {
			sink = &FutureRange{}
			sinkPairs = make([]*cluster.Entry, n)
		})
		if allocs != wantAllocs || bytes != wantBytes {
			t.Errorf("future over %d pairs: %d allocs, %d B; want the future and a %d-pointer slice, %d allocs, %d B",
				n, allocs, bytes, n, wantAllocs, wantBytes)
		}
	}
	_, _ = sink, sinkPairs
}

// TestSyncRangeAllocs: a synchronous GetRange of n pairs under a limit of n
// allocates its result alone, one exact n-pair slice, in one pass past the
// stack array as below it. The reads are snapshot reads, which record no read
// conflict range.
func TestSyncRangeAllocs(t *testing.T) {
	const keys = 1000
	db := Open(nil)
	tr := db.CreateTransaction()
	for i := 0; i < keys; i++ {
		if err := tr.Set([]byte(fmt.Sprintf("k%05d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rt := db.CreateTransaction()
	begin, end := []byte("k"), []byte("l")
	var sink []KeyValue
	for _, n := range []int{1, 34, rangeStackLen, rangeStackLen + 1, keys} {
		read := func() {
			var err error
			if sink, _, err = rt.Snapshot().GetRange(begin, end, RangeOptions{Limit: n}); err != nil {
				t.Fatal(err)
			}
		}
		read()
		if len(sink) != n || cap(sink) != n {
			t.Fatalf("limit %d: %d pairs, capacity %d", n, len(sink), cap(sink))
		}
		allocs := testing.AllocsPerRun(20, read)
		bytes := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			read()
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		want := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sink = make([]KeyValue, n)
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		if got, want := bytes(), want(); allocs != 1 || got != want {
			t.Errorf("GetRange of %d pairs: %v allocs, %d B; want one %d-pair slice, %d B", n, allocs, got, n, want)
		}
	}
}
