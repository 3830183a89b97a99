package fdb

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// The mapped-read fixture: index keys "i/NNN" whose record is the range of
// "r/NNN/" keys. Record n has n%4 pairs, so some entries point at nothing.
const mappedEntries = 40

func mappedIndexKey(n int) []byte     { return []byte(fmt.Sprintf("i/%03d", n)) }
func mappedRecordKey(n, j int) []byte { return []byte(fmt.Sprintf("r/%03d/%d", n, j)) }

// mappedRecords maps an index key to its record's range, building the bounds
// in one buffer it rebuilds on every call, as a caller of GetMappedRangeAsync
// may.
func mappedRecords() Mapper {
	var buf []byte
	return func(key []byte) (begin, end []byte) {
		buf = append(append(append(buf[:0], 'r'), key[1:]...), '/')
		n := len(buf)
		buf = append(buf, buf...)
		buf[2*n-1] = '0'
		return buf[:n:n], buf[n:]
	}
}

func mappedDB(t *testing.T, opts *Options) *Database {
	t.Helper()
	db := Open(opts)
	tr := db.CreateTransaction()
	for n := 0; n < mappedEntries; n++ {
		if err := tr.Set(mappedIndexKey(n), nil); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n%4; j++ {
			if err := tr.Set(mappedRecordKey(n, j), []byte(fmt.Sprintf("v%d.%d", n, j))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

// mappedWrites buffers one seeded mix of sets, clears, range clears and
// pending adds over both the index and the record keys.
func mappedWrites(t *testing.T, tr *Transaction, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	one := []byte{1, 0, 0, 0, 0, 0, 0, 0}
	for i := 0; i < 60; i++ {
		n, j := rng.Intn(mappedEntries+5), rng.Intn(4)
		var err error
		switch rng.Intn(6) {
		case 0:
			err = tr.Set(mappedIndexKey(n), nil)
		case 1:
			err = tr.Clear(mappedIndexKey(n))
		case 2:
			err = tr.Set(mappedRecordKey(n, j), []byte("buffered"))
		case 3:
			err = tr.ClearRange(mappedRecordKey(n, j), mappedRecordKey(n, j+2))
		case 4:
			err = tr.Atomic(MutationAdd, mappedRecordKey(n, j), one)
		default:
			err = tr.Atomic(MutationAdd, mappedIndexKey(n), one)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// mappedMeter logs every bill.
type mappedMeter struct{ reads [][2]int }

func (m *mappedMeter) RecordRead(rows, bytes int) { m.reads = append(m.reads, [2]int{rows, bytes}) }
func (m *mappedMeter) RecordWrite(int, int)       {}

// mappedSide is everything one way of reading left behind.
type mappedSide struct {
	pairs     [][]KeyValue // the index pair, then its record's pairs, per entry
	conflicts []KeyRange
	stats     TxnStats
	bills     [][2]int
	accesses  []Access
	committed []KeyValue // the database after the transaction committed
}

// TestMappedReadEqualsSeparateReads: a mapped read returns, conflicts on,
// counts, bills and taps exactly what the index read and one read per record
// range do, serializable or snapshot, forward or reverse, limited or not, over
// buffered sets, clears and pending atomics in both the index range and the
// record ranges; what its transaction commits is the same too. It waits one
// window, priced on the bytes of both; the separate reads wait two.
func TestMappedReadEqualsSeparateReads(t *testing.T) {
	const perRead, perKB = time.Millisecond, time.Millisecond
	begin, end := []byte("i/"), []byte("i0")
	for _, snapshot := range []bool{false, true} {
		for _, o := range []RangeOptions{{}, {Limit: 7}, {Reverse: true, Limit: 9}} {
			for _, seed := range []int64{0, 1, 2, 3} { // 0: no buffered writes
				what := fmt.Sprintf("snapshot=%v %+v writes=%d", snapshot, o, seed)
				read := func(mapped bool) mappedSide {
					db := mappedDB(t, &Options{Latency: LatencyModel{PerRead: perRead, PerKB: perKB, Virtual: true}})
					var side mappedSide
					tr := db.CreateTransaction()
					db.SetTap(func(at *Transaction, a Access) {
						if at == tr && a.Kind == AccessRead {
							side.accesses = append(side.accesses, a)
						}
					})
					meter := &mappedMeter{}
					tr.BindMeter(meter)
					if seed > 0 {
						mappedWrites(t, tr, seed)
					}
					if _, err := tr.GetReadVersion(); err != nil {
						t.Fatal(err)
					}
					wait0 := tr.Stats().SimWaitNanos
					if mapped {
						get := tr.GetMappedRangeAsync
						if snapshot {
							get = tr.Snapshot().GetMappedRangeAsync
						}
						f := get(begin, end, o, mappedRecords())
						p, _, err := f.Get()
						if err != nil {
							t.Fatal(err)
						}
						for i := range p.Len() {
							side.pairs = append(side.pairs, append([]KeyValue{p.At(i)}, kvsOf(p.Mapped(i))...))
						}
					} else {
						get := tr.GetRangeAsync
						if snapshot {
							get = tr.Snapshot().GetRangeAsync
						}
						p, _, err := get(begin, end, o).Get()
						if err != nil {
							t.Fatal(err)
						}
						mapper := mappedRecords()
						var fs []*FutureRange
						for i := range p.Len() {
							b, e := mapper(p.At(i).Key)
							fs = append(fs, get(b, e, RangeOptions{}))
						}
						for i, f := range fs {
							rec, _, err := f.Get()
							if err != nil {
								t.Fatal(err)
							}
							side.pairs = append(side.pairs, append([]KeyValue{p.At(i)}, kvsOf(rec)...))
						}
					}
					side.stats = tr.Stats()
					side.stats.SimWaitNanos -= wait0
					side.conflicts = append([]KeyRange(nil), tr.req.ReadConflicts.All()...)
					side.bills = meter.reads
					db.SetTap(nil)
					if err := tr.Set([]byte("z"), nil); err != nil { // so that the commit is sent
						t.Fatal(err)
					}
					if err := tr.Commit(); err != nil {
						t.Fatal(err)
					}
					all, _, err := db.CreateTransaction().GetRange(nil, []byte{0xff}, RangeOptions{})
					if err != nil {
						t.Fatal(err)
					}
					side.committed = all
					return side
				}
				got, want := read(true), read(false)
				if len(got.pairs) == 0 {
					t.Fatalf("%s: the mapped read found nothing", what)
				}
				if !reflect.DeepEqual(got.pairs, want.pairs) {
					t.Errorf("%s: mapped pairs\n%q\nseparate reads\n%q", what, got.pairs, want.pairs)
				}
				if !reflect.DeepEqual(got.conflicts, want.conflicts) || snapshot && len(got.conflicts) > 0 {
					t.Errorf("%s: mapped read conflicts %q, separate reads %q", what, got.conflicts, want.conflicts)
				}
				if !reflect.DeepEqual(got.bills, want.bills) {
					t.Errorf("%s: mapped bills %v, separate reads %v", what, got.bills, want.bills)
				}
				if !reflect.DeepEqual(got.accesses, want.accesses) {
					t.Errorf("%s: mapped taps %+v, separate reads %+v", what, got.accesses, want.accesses)
				}
				if !reflect.DeepEqual(got.committed, want.committed) {
					t.Errorf("%s: the mapped read's transaction committed\n%q\nthe separate reads'\n%q", what, got.committed, want.committed)
				}
				wantStats := want.stats
				wantStats.SimWaitNanos, wantStats.InFlightHighWater = got.stats.SimWaitNanos, got.stats.InFlightHighWater
				if got.stats != wantStats {
					t.Errorf("%s: mapped stats %+v, separate reads %+v", what, got.stats, want.stats)
				}
				if seed == 0 {
					// With nothing buffered, every byte delivered was read.
					window := int64(perRead + time.Duration(got.stats.BytesRead)*perKB/1024)
					if got.stats.SimWaitNanos != window || want.stats.SimWaitNanos <= window {
						t.Errorf("%s: mapped read waited %v, separate reads %v; want one window of %v",
							what, time.Duration(got.stats.SimWaitNanos), time.Duration(want.stats.SimWaitNanos), time.Duration(window))
					}
				}
			}
		}
	}
}

// TestMappedReadConflictsOnItsRecords: a serializable mapped read conflicts
// with a write another transaction commits to a record it mapped, and with
// none to a record outside its ranges; a snapshot one conflicts with neither.
func TestMappedReadConflictsOnItsRecords(t *testing.T) {
	for _, tc := range []struct {
		what     string
		snapshot bool
		written  []byte
		conflict bool
	}{
		{"a mapped record", false, mappedRecordKey(5, 0), true},
		{"a record key no entry maps to", false, []byte("r/999/0"), false},
		{"a mapped record, snapshot", true, mappedRecordKey(5, 0), false},
	} {
		db := mappedDB(t, nil)
		tr := db.CreateTransaction()
		get := tr.GetMappedRangeAsync
		if tc.snapshot {
			get = tr.Snapshot().GetMappedRangeAsync
		}
		if _, _, err := get([]byte("i/"), []byte("i/010"), RangeOptions{}, mappedRecords()).Get(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Set([]byte("z"), nil); err != nil {
			t.Fatal(err)
		}
		other := db.CreateTransaction()
		if err := other.Set(tc.written, []byte("theirs")); err != nil {
			t.Fatal(err)
		}
		if err := other.Commit(); err != nil {
			t.Fatal(err)
		}
		err := tr.Commit()
		var fe *Error
		if conflicted := errors.As(err, &fe) && fe.Code == CodeNotCommitted; conflicted != tc.conflict || (err != nil && !conflicted) {
			t.Errorf("%s: commit after another's write: %v, want a conflict: %v", tc.what, err, tc.conflict)
		}
	}
}

// TestMappedReadRollsOneFault: a mapped read is one request, so it rolls the
// read fault once, and a fault fails it whole: no record range is tapped,
// counted or conflict-ranged.
func TestMappedReadRollsOneFault(t *testing.T) {
	faults := NewFaultInjector(FaultConfig{Seed: 1, PReadTooOld: 1})
	faults.Disable()
	db := mappedDB(t, &Options{Faults: faults})
	faults.Enable()
	tr := db.CreateTransaction()
	var taps int
	db.SetTap(func(at *Transaction, a Access) {
		if at == tr {
			taps++
		}
	})
	p, _, err := tr.GetMappedRangeAsync([]byte("i/"), []byte("i0"), RangeOptions{}, mappedRecords()).Get()
	var fe *Error
	if !errors.As(err, &fe) || fe.Code != CodeTransactionTooOld || p.Len() != 0 {
		t.Fatalf("mapped read under a certain fault: %d pairs, %v; want transaction_too_old", p.Len(), err)
	}
	if c := faults.Counts(); c.ReadsTooOld != 1 {
		t.Errorf("one mapped read dealt %d read faults, want 1", c.ReadsTooOld)
	}
	if s := tr.Stats(); taps != 1 || s.KeysRead != 0 || tr.req.ReadConflicts.Len() != 0 {
		t.Errorf("a failed mapped read tapped %d ranges, read %d keys and kept %d conflict ranges; want 1, 0, 0",
			taps, s.KeysRead, tr.req.ReadConflicts.Len())
	}
}

// TestEmptyMappedReadAllocs: a mapped read that finds no pairs, such as the
// batch that ends a scan, allocates its future and nothing else: no mapping
// and no offsets.
func TestEmptyMappedReadAllocs(t *testing.T) {
	db := mappedDB(t, nil)
	tr := db.CreateTransaction()
	mapper := mappedRecords()
	begin, end := []byte("i0"), []byte("i1") // past every index entry
	var p Pairs
	allocs := testing.AllocsPerRun(50, func() {
		var err error
		if p, _, err = tr.Snapshot().GetMappedRangeAsync(begin, end, RangeOptions{}, mapper).Get(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("an empty mapped read allocated %.0f times, want 1: its future", allocs)
	}
	if p.Len() != 0 || p.m != nil {
		t.Errorf("an empty mapped read: %d pairs, mapping %v; want none and nil", p.Len(), p.m)
	}
}
