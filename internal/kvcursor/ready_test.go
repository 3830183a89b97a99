package kvcursor

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
)

// TestReadyProperty: Ready is a promise about waiting, checked on the virtual
// clock. Over random key sets, batch shapes, directions, limiters, and a chain
// of the range cursor under an optional Map and an optional Limit, whenever
// the chain says Ready the next Next leaves the transaction's SimWaitNanos
// where it was — a buffered pair, a spent limit and a finished scan all answer
// at once — and Ready is not vacuous: a scan whose first batch holds two pairs
// is ready for the second, and every chain is ready once halted.
func TestReadyProperty(t *testing.T) {
	const window = time.Millisecond
	id := func(kv fdb.KeyValue) (fdb.KeyValue, error) { return kv, nil }
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{PerRead: window, Virtual: true}})
		n := 0
		_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
			for i := 0; i < 60; i++ {
				if rng.Intn(3) == 0 {
					n++
					if err := tr.Set([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
						return nil, err
					}
				}
			}
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Reverse: rng.Intn(2) == 0, Snapshot: rng.Intn(2) == 0}
		if rng.Intn(3) > 0 {
			opts.BatchSize = 1 + rng.Intn(8)
			opts.MaxBatchSize = opts.BatchSize << rng.Intn(3)
		}
		records := 0
		if rng.Intn(3) == 0 {
			records = 1 + rng.Intn(n+2)
		}
		mapped, limit := rng.Intn(2) == 0, 0
		if rng.Intn(2) == 0 {
			limit = 1 + rng.Intn(n+2)
		}
		desc := fmt.Sprintf("seed %d (%d keys, opts %+v, record limit %d, map %v, limit %d)", seed, n, opts, records, mapped, limit)

		_, err = db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
			if records > 0 {
				opts.Limiter = cursor.NewLimiter(records, 0, time.Time{}, nil)
			}
			c := New(tr, []byte("k"), []byte("l"), opts)
			if mapped {
				c = cursor.Map(c, id)
			}
			c = cursor.Limit(c, limit)
			if c.Ready() != 0 && n > 0 {
				t.Errorf("%s: ready before anything was read", desc)
			}
			for call := 1; ; call++ {
				ready, before := c.Ready() != 0, tr.Stats().SimWaitNanos
				r, err := c.Next()
				if err != nil {
					return nil, err
				}
				if waited := tr.Stats().SimWaitNanos - before; ready && waited != 0 {
					t.Errorf("%s: call %d was Ready and waited %v", desc, call, time.Duration(waited))
				}
				// With no demand to size it, the first read is BatchSize pairs.
				if call == 2 && !ready && limit+records == 0 && n >= 2 && opts.BatchSize != 1 {
					t.Errorf("%s: the second pair of the first batch was not Ready", desc)
				}
				if !r.OK {
					if c.Ready() == 0 {
						t.Errorf("%s: not Ready after halting", desc)
					}
					return nil, nil
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadyCountBoundsDelivery: a cursor's Ready count bounds what it
// delivers before its next I/O, and Ended means the next Next halts without
// any. Over random key sets, batch shapes, directions and record limits, a
// range scan alone, under Map, Filter or Limit, or two under a Union or an
// Intersection: after every Ready of k > 0, no run of more than k values
// comes out of calls in which no scan issued, awaited or took a batch.
func TestReadyCountBoundsDelivery(t *testing.T) {
	const window = time.Millisecond
	shapes := []string{"scan", "map", "filter", "limit", "union", "intersection"}
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{PerRead: window, Virtual: true}})
		_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
			for _, prefix := range []string{"a", "b"} {
				for i := 0; i < 40; i++ {
					if rng.Intn(2) == 0 {
						if err := tr.Set([]byte(fmt.Sprintf("%s%03d", prefix, i)), []byte("v")); err != nil {
							return nil, err
						}
					}
				}
			}
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		shape := shapes[rng.Intn(len(shapes))]
		reverse := rng.Intn(2) == 0 && shape != "union" && shape != "intersection"
		desc := fmt.Sprintf("seed %d (%s, reverse %v)", seed, shape, reverse)
		_, err = db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
			var scans []*kvCursor
			scan := func(prefix string) cursor.Cursor[fdb.KeyValue] {
				opts := Options{Reverse: reverse}
				if rng.Intn(3) > 0 {
					opts.BatchSize = 1 + rng.Intn(8)
					opts.MaxBatchSize = opts.BatchSize << rng.Intn(3)
				}
				if rng.Intn(4) == 0 {
					opts.Limiter = cursor.NewLimiter(1+rng.Intn(30), 0, time.Time{}, nil)
				}
				c := New(tr, []byte(prefix), []byte(prefix+"\xff"), opts)
				scans = append(scans, c.(*kvCursor))
				return c
			}
			child := func(prefix string) func([]byte) cursor.Cursor[fdb.KeyValue] {
				return func([]byte) cursor.Cursor[fdb.KeyValue] { return scan(prefix) }
			}
			keyOf := func(kv fdb.KeyValue) []byte { return kv.Key[1:] }
			var c cursor.Cursor[fdb.KeyValue]
			switch shape {
			case "scan":
				c = scan("a")
			case "map":
				c = cursor.Map(scan("a"), func(kv fdb.KeyValue) (fdb.KeyValue, error) { return kv, nil })
			case "filter":
				c = cursor.Filter(scan("a"), func(kv fdb.KeyValue) (bool, error) { return kv.Key[len(kv.Key)-1]%3 != 0, nil })
			case "limit":
				c = cursor.Limit(scan("a"), 1+rng.Intn(30))
			case "union":
				c, err = cursor.Union(nil, keyOf, child("a"), child("b"))
			case "intersection":
				c, err = cursor.Intersection(nil, keyOf, child("a"), child("b"))
			}
			if err != nil {
				return nil, err
			}
			type state struct {
				fetched int
				pending *fdb.FutureRange
			}
			io := func() (s []state) {
				for _, sc := range scans {
					s = append(s, state{sc.fetched, sc.pending})
				}
				return s
			}
			var counts []int
			var quiet []bool // the call delivered a value and no scan did I/O
			for call := 0; ; call++ {
				k, before := c.Ready(), io()
				r, err := c.Next()
				if err != nil {
					return nil, err
				}
				did := fmt.Sprint(io()) != fmt.Sprint(before)
				if k == cursor.Ended && (r.OK || did) {
					t.Errorf("%s: call %d was Ended and returned %v, doing I/O %v", desc, call, r.OK, did)
				}
				counts, quiet = append(counts, k), append(quiet, r.OK && !did)
				if !r.OK {
					break
				}
			}
			for i, k := range counts {
				n := 0
				for n < len(quiet)-i && quiet[i+n] {
					n++
				}
				if k > 0 && n > k {
					t.Errorf("%s: call %d counted %d and %d values came before the next I/O", desc, i, k, n)
				}
			}
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
