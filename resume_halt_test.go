package recordlayer

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/query"
)

// TestResumedHaltKeepsItsContinuation: a page resumed from a continuation that
// halts before its first row has made no progress, and must hand back the
// position it was resumed from. Resumed with an expired time budget, an index
// scan and a full scan used to halt with no continuation at all, and a client
// resuming from that restarted the query at its first row; a union or an
// intersection child halting so wrote a nil slot, and that child restarted.
func TestResumedHaltKeepsItsContinuation(t *testing.T) {
	r, p := fuzzStore(t)
	// page runs one page of q and returns its ids, why it stopped and where.
	page := func(q Query, props ExecuteProperties) (ids []int64, reason cursor.NoNextReason, cont []byte) {
		t.Helper()
		_, err := r.ReadRun(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			s, err := p.Open(ctx, tr, int64(1))
			if err != nil {
				return nil, err
			}
			cur, err := s.ExecuteQuery(ctx, q, props)
			if err != nil {
				return nil, err
			}
			recs, err := cur.ToList()
			ids = nil
			for _, rec := range recs {
				ids = append(ids, rec.PrimaryKey[0].(int64))
			}
			reason, cont = cur.NoNextReason(), cur.Continuation()
			return nil, err
		})
		if err != nil {
			t.Fatal(err)
		}
		return ids, reason, cont
	}
	// expired is a time budget that has run out before the first row: the
	// clock advances a millisecond on every reading.
	expired := func(props ExecuteProperties) ExecuteProperties {
		base, calls := time.Now(), 0
		props.TimeBudget = time.Nanosecond
		props.Clock = func() time.Time {
			calls++
			return base.Add(time.Duration(calls) * time.Millisecond)
		}
		return props
	}
	for _, tc := range []struct {
		name string
		q    Query
	}{
		{"index scan", tagged("a")},
		{"full scan", Query{RecordTypes: []string{"Doc"}}},
		{"filtered full scan", Query{RecordTypes: []string{"Doc"}, Filter: query.Field("tag").NotEquals("b")}},
		{"union", Query{RecordTypes: []string{"Doc"}, Filter: query.Or(
			query.Field("tag").Equals("a"), query.Field("tag").Equals("c"))}},
		{"intersection", Query{RecordTypes: []string{"Doc"}, Filter: query.And(
			query.Field("tag").Equals("a"), query.Field("color").Equals("red"))}},
	} {
		for _, skip := range []int{0, 1} {
			what := fmt.Sprintf("%s with Skip %d", tc.name, skip)
			all, _, _ := page(tc.q, ExecuteProperties{Skip: skip})
			if len(all) == 0 {
				t.Fatalf("%s: no rows", what)
			}
			first, _, cont := page(tc.q, ExecuteProperties{Skip: skip, RowLimit: 1})
			if fmt.Sprint(first) != fmt.Sprint(all[:1]) || cont == nil {
				t.Fatalf("%s: first page %v at %x; want %v and a continuation", what, first, cont, all[:1])
			}
			ids, reason, halted := page(tc.q, expired(ExecuteProperties{Skip: skip}.WithContinuation(cont)))
			if len(ids) != 0 || reason != cursor.TimeLimitReached || !bytes.Equal(halted, cont) {
				t.Errorf("%s: resumed under an expired budget to %v, %v at %x; want no rows, %v at %x",
					what, ids, reason, halted, cursor.TimeLimitReached, cont)
				continue
			}
			rest, _, _ := page(tc.q, ExecuteProperties{Skip: skip}.WithContinuation(halted))
			if fmt.Sprint(rest) != fmt.Sprint(all[1:]) {
				t.Errorf("%s: resumed after the halt to %v, want %v", what, rest, all[1:])
			}
		}
	}
}
