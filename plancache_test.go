package recordlayer

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"recordlayer/internal/fdb"
	"recordlayer/internal/message"
	"recordlayer/internal/plan"
	"recordlayer/internal/query"
)

// TestPlanCacheConcurrent hammers one small PlanCache from many goroutines —
// concurrent Get/Put with constant eviction — so the race detector can prove
// the LRU's locking. Invariants: the size never exceeds the bound and every
// Get returns either a miss or the plan that was put under that key.
func TestPlanCacheConcurrent(t *testing.T) {
	_, md := testSchema(t)
	c := NewPlanCache(4)
	p := testProvider(t, md)

	// A pool of distinct plans keyed by their rendering: the queries share a
	// shape, so their literals tell them apart.
	const distinct = 16
	plans := make([]struct {
		key string
		pl  plan.Plan
	}, distinct)
	for i := range plans {
		q := Query{RecordTypes: []string{"Doc"}, Filter: query.Field("tag").Equals(fmt.Sprintf("t%d", i))}
		pl, err := p.planner.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		plans[i].key = pl.String()
		plans[i].pl = pl
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				e := plans[(i*7+g)%distinct]
				if got, ok := c.Get(e.key); ok {
					if got.String() != e.pl.String() {
						t.Errorf("cache returned a different plan for %q", e.key)
						return
					}
				} else {
					c.Put(e.key, e.pl)
				}
				if s := c.Stats(); s.Size > 4 {
					t.Errorf("cache size %d exceeds bound 4", s.Size)
					return
				}
			}
		}()
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses == 0 {
		t.Fatal("no cache traffic recorded")
	}
}

// TestExecuteQueryConcurrent runs parallel ExecuteQuery calls through one
// provider with a tiny plan cache, so planning, LRU insertion, and eviction
// race under real query execution. Every goroutine must still get correct
// results.
func TestExecuteQueryConcurrent(t *testing.T) {
	_, md := testSchema(t)
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{})
	p := testProvider(t, md)
	p.plans = NewPlanCache(2) // force constant eviction across goroutines
	saveDocs(t, r, p, 1, 20)

	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// Rotate over distinct fingerprints (literals differ).
				tag := "even"
				if (i+g)%2 == 1 {
					tag = "odd"
				}
				id := int64((i + g) % 5)
				q := Query{RecordTypes: []string{"Doc"}, Filter: query.And(
					query.Field("tag").Equals(tag),
					query.Field("id").GreaterOrEqual(id),
				)}
				want := 10 - (int(id)+1)/2
				if tag == "odd" {
					want = 10 - int(id)/2
				}
				_, err := r.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
					store, err := p.Open(ctx, tr, int64(1))
					if err != nil {
						return nil, err
					}
					cur, err := store.ExecuteQuery(ctx, q, ExecuteProperties{Snapshot: true})
					if err != nil {
						return nil, err
					}
					recs, err := cur.ToList()
					if err != nil {
						return nil, err
					}
					if len(recs) != want {
						return nil, fmt.Errorf("tag=%s id>=%d returned %d records, want %d", tag, id, len(recs), want)
					}
					return nil, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := p.PlanCacheStats(); st.Size > 2 {
		t.Errorf("plan cache size %d exceeds bound 2", st.Size)
	}
}

// TestPlanCacheAnswersDependOnlyOnTheQuery: queries whose literals render
// alike — tag = 7 as an integer and as a string, and a OneOf of one string
// with a space against a OneOf of two — must each get the answer a fresh
// provider gives, whichever of the pair the provider planned first. A cache
// keyed by the rendered literals would serve one query the other's plan.
func TestPlanCacheAnswersDependOnlyOnTheQuery(t *testing.T) {
	doc, md := testSchema(t)
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{})
	_, err := r.Run(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := testProvider(t, md).Open(ctx, tr, int64(1))
		if err != nil {
			return nil, err
		}
		for id, tag := range []string{"7", "7", "7", "7", "a", "b", "a b"} {
			if _, err := store.SaveRecord(message.New(doc).MustSet("id", int64(id)).MustSet("tag", tag)); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	answer := func(p *StoreProvider, q Query) []int64 {
		t.Helper()
		var ids []int64
		_, err := r.ReadRun(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			store, err := p.Open(ctx, tr, int64(1))
			if err != nil {
				return nil, err
			}
			cur, err := store.ExecuteQuery(ctx, q, ExecuteProperties{})
			if err != nil {
				return nil, err
			}
			ids = nil
			return nil, cur.ForEach(func(rec *Record) error {
				ids = append(ids, rec.PrimaryKey[0].(int64))
				return nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}
	doc1 := func(c query.Component) Query { return Query{RecordTypes: []string{"Doc"}, Filter: c} }
	for _, pair := range [][2]Query{
		{doc1(query.Field("tag").Equals(int64(7))), doc1(query.Field("tag").Equals("7"))},
		{doc1(query.Field("tag").OneOf("a b")), doc1(query.Field("tag").OneOf("a", "b"))},
	} {
		a, b := answer(testProvider(t, md), pair[0]), answer(testProvider(t, md), pair[1])
		if fmt.Sprint(a) == fmt.Sprint(b) {
			t.Fatalf("%s and %s both answer %v: the pair cannot tell a shared plan apart", pair[0], pair[1], a)
		}
		for _, order := range [][2]int{{0, 1}, {1, 0}} {
			p := testProvider(t, md)
			for _, i := range order {
				q := pair[i]
				if got, want := answer(p, q), answer(testProvider(t, md), q); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s after %s: %v, a fresh provider answers %v", q, pair[order[0]], got, want)
				}
			}
		}
	}
}
