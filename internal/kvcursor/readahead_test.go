package kvcursor

import (
	"fmt"
	"testing"
	"time"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
)

// wholeRange is a demand no test range reaches: the cursor never reads ahead
// of its consumer, the sequential footprint the read-ahead one is compared to.
const wholeRange = 1 << 30

// drainPairs drains a cursor inside one transaction, returning key=value
// strings, per-result continuations, the halt reason and halt continuation.
// A positive demand is announced before the first Next.
func drainPairs(t *testing.T, tr *fdb.Transaction, opts Options, demand int, begin, end string) (pairs []string, conts []string, reason cursor.NoNextReason, cont []byte) {
	t.Helper()
	c := New(tr, []byte(begin), []byte(end), opts)
	c.Demand(demand)
	for {
		r, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !r.OK {
			return pairs, conts, r.Reason, r.Continuation
		}
		pairs = append(pairs, fmt.Sprintf("%s=%s", r.Value.Key, r.Value.Value))
		conts = append(conts, string(r.Continuation))
	}
}

// TestReadAheadEquivalence: with and without read-ahead, a scan delivers
// byte-identical pairs, per-result continuations, halt reasons and halt
// continuations — across batch boundaries, in both directions, at snapshot
// and serializable isolation, and under mid-scan limiter halts.
func TestReadAheadEquivalence(t *testing.T) {
	db := seeded(t, 50)
	cases := []struct {
		name string
		opts Options
		lim  func() *cursor.Limiter
	}{
		{"forward-multibatch", Options{BatchSize: 4}, nil},
		{"reverse-multibatch", Options{BatchSize: 4, Reverse: true}, nil},
		{"snapshot", Options{BatchSize: 8, Snapshot: true}, nil},
		{"limit-mid-batch", Options{BatchSize: 4}, func() *cursor.Limiter {
			return cursor.NewLimiter(10, 0, time.Time{}, nil)
		}},
		{"byte-limit", Options{BatchSize: 4}, func() *cursor.Limiter {
			return cursor.NewLimiter(0, 60, time.Time{}, nil)
		}},
		{"single-batch", Options{}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(demand int) (pairs, conts []string, reason cursor.NoNextReason, cont []byte) {
				opts := tc.opts
				if tc.lim != nil {
					opts.Limiter = tc.lim()
				}
				_, err := db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
					pairs, conts, reason, cont = drainPairs(t, tr, opts, demand, "k", "l")
					return nil, nil
				})
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			p1, c1, r1, h1 := run(0)
			p2, c2, r2, h2 := run(wholeRange)
			if len(p1) != len(p2) || r1 != r2 || string(h1) != string(h2) {
				t.Fatalf("read-ahead: %d pairs, %v, cont %q; sequential: %d pairs, %v, cont %q",
					len(p1), r1, h1, len(p2), r2, h2)
			}
			for i := range p1 {
				if p1[i] != p2[i] || c1[i] != c2[i] {
					t.Fatalf("result %d: read-ahead (%s, cont %q) vs sequential (%s, cont %q)",
						i, p1[i], c1[i], p2[i], c2[i])
				}
			}
		})
	}
}

// TestReadAheadContinuationRoundTrip: halting a read-ahead scan and resuming
// from its continuation (here without read-ahead) covers exactly the rest.
func TestReadAheadContinuationRoundTrip(t *testing.T) {
	db := seeded(t, 30)
	lim := cursor.NewLimiter(11, 0, time.Time{}, nil)
	keys, reason, cont := collect(t, db, Options{BatchSize: 4, Limiter: lim}, "k", "l")
	if len(keys) != 11 || reason != cursor.ScanLimitReached {
		t.Fatalf("first page: %d keys, %v", len(keys), reason)
	}
	_, err := db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		rest, _, reason2, _ := drainPairs(t, tr, Options{BatchSize: 4, Continuation: cont}, wholeRange, "k", "l")
		if len(rest) != 19 || reason2 != cursor.SourceExhausted {
			t.Fatalf("resume: %d keys, %v", len(rest), reason2)
		}
		if rest[0] != "k011=v11" {
			t.Fatalf("resume started at %s", rest[0])
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReadAheadOverlapsLatency: under a virtual latency model, a consumer
// that does I/O per delivered pair (the query path's record fetches) hides
// every batch boundary behind that work with read-ahead on: only the first
// batch's window is ever waited for. Sequential scans wait one window per
// batch on top of the per-pair work.
func TestReadAheadOverlapsLatency(t *testing.T) {
	const window = time.Millisecond
	const n, batch = 64, 4
	db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{PerRead: window, Virtual: true}})
	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		for i := 0; i < n; i++ {
			if err := tr.Set([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wait := func(demand int) int64 {
		var w int64
		_, err := db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
			c := New(tr, []byte("k"), []byte("l"), Options{BatchSize: batch, MaxBatchSize: batch})
			c.Demand(demand)
			for {
				r, err := c.Next()
				if err != nil {
					return nil, err
				}
				if !r.OK {
					break
				}
				// Per-pair work: one point read, one window.
				if _, err := tr.Get(r.Value.Key); err != nil {
					return nil, err
				}
			}
			w = tr.Stats().SimWaitNanos
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	sequential := wait(wholeRange)
	overlapped := wait(0)
	// n/batch batch windows + n per-pair windows, vs 1 batch window + n.
	if want := int64((n/batch + n) * window); sequential != want {
		t.Fatalf("sequential waited %v, want %v", time.Duration(sequential), time.Duration(want))
	}
	if want := int64((1 + n) * window); overlapped != want {
		t.Fatalf("read-ahead waited %v, want %v (only the first batch window)", time.Duration(overlapped), time.Duration(want))
	}
}
