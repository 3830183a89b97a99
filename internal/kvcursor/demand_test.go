package kvcursor

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
)

// TestDemandProperty: a demand is a hint. Over random key sets, batch shapes,
// directions, continuations, isolation levels and limiters that halt
// mid-scan, a consumer that calls Next k times sees byte-identical results
// (pairs, per-pair continuations, halt reason, halt continuation) whether it
// announced nothing, 1, k-1, k, k+1 or far too much — including when it
// takes more than it announced. What the hint buys: with demand k, k pairs
// in the range and a batch cap that admits k, the scan reads exactly k keys in
// one read window; a record-limited scan reads its budget plus the one pair
// that shows the limit was reached.
func TestDemandProperty(t *testing.T) {
	const window = time.Millisecond
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{PerRead: window, Virtual: true}})
		var keys []string
		for i := 0; i < 120; i++ {
			if rng.Intn(3) == 0 {
				keys = append(keys, fmt.Sprintf("k%03d", i))
			}
		}
		_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
			for _, k := range keys {
				if err := tr.Set([]byte(k), []byte("v"+k)); err != nil {
					return nil, err
				}
			}
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}

		opts := Options{Reverse: rng.Intn(2) == 0, Snapshot: rng.Intn(2) == 0}
		maxBatch := DefaultMaxBatchSize
		if rng.Intn(3) > 0 {
			opts.BatchSize = 1 + rng.Intn(8)
			opts.MaxBatchSize = opts.BatchSize << rng.Intn(4)
			maxBatch = opts.MaxBatchSize
		}
		if rng.Intn(3) == 0 {
			opts.Continuation = []byte(fmt.Sprintf("k%03d", rng.Intn(120)))
		}
		records, nbytes := 0, 0
		switch rng.Intn(4) {
		case 0:
			records = 1 + rng.Intn(len(keys)+2)
		case 1:
			nbytes = 1 + rng.Intn(10*(len(keys)+1))
		}
		k := 1 + rng.Intn(len(keys)+3)
		desc := fmt.Sprintf("seed %d (%d keys, opts %+v, limits %d/%d, k=%d)", seed, len(keys), opts, records, nbytes, k)

		// take calls Next k times under the given demand; it returns one line
		// per call and the transaction's read footprint.
		take := func(demand, calls int) (steps []string, stats fdb.TxnStats) {
			_, err := db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
				o := opts
				if records+nbytes > 0 {
					o.Limiter = cursor.NewLimiter(records, nbytes, time.Time{}, nil)
				}
				c := New(tr, []byte("k"), []byte("l"), o)
				c.Demand(demand)
				steps = nil
				for i := 0; i < calls; i++ {
					r, err := c.Next()
					if err != nil {
						return nil, err
					}
					steps = append(steps, fmt.Sprintf("%v %s=%s %q %v", r.OK, r.Value.Key, r.Value.Value, r.Continuation, r.Reason))
				}
				stats = tr.Stats()
				return nil, nil
			})
			if err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			return steps, stats
		}

		// pairsIn counts the calls that delivered a pair.
		pairsIn := func(steps []string) (n int) {
			for _, s := range steps {
				if strings.HasPrefix(s, "true") {
					n++
				}
			}
			return n
		}

		ref, _ := take(0, k)
		delivered := pairsIn(ref)
		for _, d := range []int{1, k - 1, k, k + 1, 1 << 40} {
			if d <= 0 {
				continue
			}
			got, stats := take(d, k)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%s demand %d: call %d = %q, want %q", desc, d, i, got[i], ref[i])
				}
			}
			if d == k && delivered == k && k <= maxBatch {
				if stats.KeysRead != k || stats.SimWaitNanos != int64(window) {
					t.Fatalf("%s demand k: read %d keys in %v, want %d in one %v window",
						desc, stats.KeysRead, time.Duration(stats.SimWaitNanos), k, window)
				}
			}
		}

		// The limiter's record budget is itself a demand: draining a
		// record-limited scan reads the admitted pairs and, when the limit is
		// what stopped it, the one pair after them.
		if records > 0 && records+1 <= maxBatch {
			all, stats := take(0, len(keys)+2)
			want := pairsIn(all)
			if strings.HasSuffix(all[len(all)-1], cursor.ScanLimitReached.String()) {
				want++
			}
			if stats.KeysRead != want || stats.SimWaitNanos > int64(window) {
				t.Fatalf("%s: record-limited drain read %d keys in %v, want %d in one window (halt %q)",
					desc, stats.KeysRead, time.Duration(stats.SimWaitNanos), want, all[len(all)-1])
			}
		}
	}
}
