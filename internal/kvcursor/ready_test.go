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
			if c.Ready() && n > 0 {
				t.Errorf("%s: ready before anything was read", desc)
			}
			for call := 1; ; call++ {
				ready, before := c.Ready(), tr.Stats().SimWaitNanos
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
					if !c.Ready() {
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
