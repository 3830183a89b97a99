package recordlayer

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/keyspace"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/query"
	"recordlayer/internal/tuple"
)

func testSchema(t testing.TB) (*message.Descriptor, *metadata.MetaData) {
	t.Helper()
	doc := message.MustDescriptor("Doc",
		message.Field("id", 1, message.TypeInt64),
		message.Field("tag", 2, message.TypeString),
	)
	md := metadata.NewBuilder(1).
		AddRecordType(doc, keyexpr.Field("id")).
		AddIndex(&metadata.Index{Name: "by_tag", Type: metadata.IndexValue,
			Expression: keyexpr.Then(keyexpr.Field("tag"), keyexpr.Field("id"))}, "Doc").
		MustBuild()
	return doc, md
}

func testProvider(t testing.TB, md *metadata.MetaData) *StoreProvider {
	t.Helper()
	ks, err := keyspace.New(nil,
		keyspace.NewConstant("app", "facade-test").Add(
			keyspace.NewDirectory("user", keyspace.TypeInt64)))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewStoreProvider(md, ks, []string{"app", "user"}, ProviderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func saveDocs(t testing.TB, r *Runner, p *StoreProvider, user int64, n int) {
	t.Helper()
	_, err := r.Run(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := p.Open(ctx, tr, user)
		if err != nil {
			return nil, err
		}
		doc, _ := testSchema(t)
		for i := 0; i < n; i++ {
			tag := "even"
			if i%2 == 1 {
				tag = "odd"
			}
			rec := message.New(doc).MustSet("id", int64(i)).MustSet("tag", tag)
			if _, err := store.SaveRecord(rec); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestProviderTenantIsolation checks the multi-tenant routing: two tenants
// opened through one provider land in disjoint subspaces.
func TestProviderTenantIsolation(t *testing.T) {
	_, md := testSchema(t)
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{})
	p := testProvider(t, md)
	saveDocs(t, r, p, 1, 6)
	saveDocs(t, r, p, 2, 3)

	ctx := context.Background()
	counts := map[int64]int{}
	for _, user := range []int64{1, 2} {
		user := user
		_, err := r.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			store, err := p.Open(ctx, tr, user)
			if err != nil {
				return nil, err
			}
			cur, err := store.ExecuteQuery(ctx, Query{RecordTypes: []string{"Doc"}}, ExecuteProperties{})
			if err != nil {
				return nil, err
			}
			recs, err := cur.ToList()
			if err != nil {
				return nil, err
			}
			counts[user] = len(recs)
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if counts[1] != 6 || counts[2] != 3 {
		t.Fatalf("counts = %v, want 6 and 3", counts)
	}
}

// TestContinuationResumeAcrossRuns pages a query with RowLimit across
// separate Runner.Run transactions via continuations (the acceptance
// criterion: each page is its own transaction, the continuation is the only
// state carried between them).
func TestContinuationResumeAcrossRuns(t *testing.T) {
	_, md := testSchema(t)
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{})
	p := testProvider(t, md)
	saveDocs(t, r, p, 7, 10)

	ctx := context.Background()
	q := Query{RecordTypes: []string{"Doc"}, Filter: query.Field("tag").Equals("even")}
	props := ExecuteProperties{RowLimit: 2}
	var ids []int64
	pages := 0
	for {
		res, err := r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			store, err := p.Open(ctx, tr, int64(7))
			if err != nil {
				return nil, err
			}
			cur, err := store.ExecuteQuery(ctx, q, props)
			if err != nil {
				return nil, err
			}
			err = cur.ForEach(func(rec *Record) error {
				id, _ := rec.Message.Get("id")
				ids = append(ids, id.(int64))
				return nil
			})
			return cur, err
		})
		if err != nil {
			t.Fatal(err)
		}
		cur := res.(*RecordCursor)
		pages++
		if cur.Exhausted() {
			break
		}
		if cur.NoNextReason() != cursor.ReturnLimitReached {
			t.Fatalf("page %d stopped for %v", pages, cur.NoNextReason())
		}
		props = props.WithContinuation(cur.Continuation())
		if pages > 10 {
			t.Fatal("paging did not terminate")
		}
	}
	want := []int64{0, 2, 4, 6, 8}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
	for i, w := range want {
		if ids[i] != w {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
	if pages < 3 {
		t.Fatalf("expected >= 3 pages of 2, got %d", pages)
	}
	// Paging the same query shape hits the plan cache after the first page.
	if st := p.PlanCacheStats(); st.Hits < int64(pages-1) || st.Misses != 1 {
		t.Fatalf("plan cache stats = %+v", st)
	}
}

// TestCtxDeadlineSurfacesAsTimeLimit checks that a context deadline becomes
// the execution time budget: the scan halts in-band with TimeLimitReached
// and a continuation that resumes in a later, unconstrained transaction.
func TestCtxDeadlineSurfacesAsTimeLimit(t *testing.T) {
	_, md := testSchema(t)
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{})
	p := testProvider(t, md)
	saveDocs(t, r, p, 3, 8)

	// A manual clock that advances 40ms per observation against a 100ms
	// deadline: the limiter trips after a few records.
	base := time.Now()
	step := 0
	clock := func() time.Time {
		step++
		return base.Add(time.Duration(step) * 30 * time.Millisecond)
	}
	ctx, cancel := context.WithDeadline(context.Background(), base.Add(100*time.Millisecond))
	defer cancel()

	var first []int64
	var cont []byte
	res, err := r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		first = nil
		store, err := p.Open(ctx, tr, int64(3))
		if err != nil {
			return nil, err
		}
		cur, err := store.ExecuteQuery(ctx, Query{RecordTypes: []string{"Doc"}},
			ExecuteProperties{Clock: clock})
		if err != nil {
			return nil, err
		}
		err = cur.ForEach(func(rec *Record) error {
			id, _ := rec.Message.Get("id")
			first = append(first, id.(int64))
			return nil
		})
		return cur, err
	})
	if err != nil {
		t.Fatal(err)
	}
	cur := res.(*RecordCursor)
	if cur.NoNextReason() != cursor.TimeLimitReached {
		t.Fatalf("reason = %v, want TimeLimitReached", cur.NoNextReason())
	}
	if len(first) == 0 || len(first) >= 8 {
		t.Fatalf("first page = %v, want partial progress", first)
	}
	cont = cur.Continuation()
	if cont == nil {
		t.Fatal("expected a resumable continuation")
	}

	// Resume in a fresh transaction without a deadline.
	var rest []int64
	_, err = r.Run(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		rest = nil
		store, err := p.Open(ctx, tr, int64(3))
		if err != nil {
			return nil, err
		}
		cur, err := store.ExecuteQuery(ctx, Query{RecordTypes: []string{"Doc"}},
			ExecuteProperties{Continuation: cont})
		if err != nil {
			return nil, err
		}
		return nil, cur.ForEach(func(rec *Record) error {
			id, _ := rec.Message.Get("id")
			rest = append(rest, id.(int64))
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	got := append(append([]int64{}, first...), rest...)
	if len(got) != 8 {
		t.Fatalf("resumed stream covered %v, want all 8 records", got)
	}
	for i, id := range got {
		if id != int64(i) {
			t.Fatalf("resumed stream out of order: %v", got)
		}
	}
}

// TestSnapshotExecutionAvoidsConflict checks ExecuteProperties.Snapshot end
// to end: a long query at snapshot isolation does not conflict with a
// concurrent writer, while the same query with serializable reads does.
func TestSnapshotExecutionAvoidsConflict(t *testing.T) {
	_, md := testSchema(t)
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{})
	p := testProvider(t, md)
	saveDocs(t, r, p, 5, 6)
	doc, _ := testSchema(t)

	// Cover both executions: the full scan (record scan path) and the
	// indexed query (index entry scan + record fetch path).
	queries := map[string]Query{
		"fullscan": {RecordTypes: []string{"Doc"}},
		"indexed":  {RecordTypes: []string{"Doc"}, Filter: query.Field("tag").Equals("even")},
	}
	rewrite := 0
	for qname, q := range queries {
		for _, snapshot := range []bool{true, false} {
			conflicts := db.Metrics().Conflicts.Load()
			tr := db.CreateTransaction()
			ctx := context.Background()
			store, err := p.Open(ctx, tr, int64(5))
			if err != nil {
				t.Fatal(err)
			}
			cur, err := store.ExecuteQuery(ctx, q, ExecuteProperties{Snapshot: snapshot})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cur.ToList(); err != nil {
				t.Fatal(err)
			}
			// A concurrent writer updates a record the query scanned and
			// fetched (id 2 has tag "even").
			rewrite++
			_, err = r.Run(ctx, func(ctx context.Context, wtr *fdb.Transaction) (interface{}, error) {
				ws, err := p.Open(ctx, wtr, int64(5))
				if err != nil {
					return nil, err
				}
				rec := message.New(doc).MustSet("id", int64(2)).MustSet("tag", "even")
				_, err = ws.SaveRecord(rec)
				return nil, err
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Set([]byte(fmt.Sprintf("marker-%d", rewrite)), []byte("x")); err != nil {
				t.Fatal(err)
			}
			commitErr := tr.Commit()
			if snapshot {
				if commitErr != nil {
					t.Fatalf("%s: snapshot query transaction should commit, got %v", qname, commitErr)
				}
			} else {
				if !fdb.IsConflict(commitErr) {
					t.Fatalf("%s: serializable query transaction should conflict, got %v", qname, commitErr)
				}
				if db.Metrics().Conflicts.Load() != conflicts+1 {
					t.Fatalf("%s: expected a recorded conflict", qname)
				}
			}
		}
	}
}

// TestPlanCacheLRU checks eviction order and stats accounting.
func TestPlanCacheLRU(t *testing.T) {
	_, md := testSchema(t)
	c := NewPlanCache(2)
	mk := func(filter query.Component) string {
		key, _ := appendShapeKey(nil, md, Query{RecordTypes: []string{"Doc"}, Filter: filter}, nil)
		return string(key)
	}
	ka := mk(query.Field("tag").Equals("a"))
	kb := mk(query.Field("tag").LessThan("b"))
	kc := mk(query.Field("id").Equals(int64(3)))
	c.Put(ka, nil)
	c.Put(kb, nil)
	if _, ok := c.Get(ka); !ok { // a is now most recently used
		t.Fatal("a should be cached")
	}
	c.Put(kc, nil) // evicts b
	if _, ok := c.Get(kb); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get(ka); !ok {
		t.Fatal("a should survive")
	}
	if _, ok := c.Get(kc); !ok {
		t.Fatal("c should be cached")
	}
	st := c.Stats()
	if st.Size != 2 || st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestProviderDelete is Delete's first test. Deleting under a container that
// was never interned is a no-op that allocates nothing; deleting a live store
// through a warm provider removes it, and the next open — in the deleting
// transaction or a later one — recreates the header instead of being served
// the dead store's cached state.
func TestProviderDelete(t *testing.T) {
	doc, md := testSchema(t)
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{})
	p := openCostServer(t, md)
	ctx := context.Background()

	_, err := r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		if err := p.Delete(ctx, tr, "never-created", int64(1)); err != nil {
			return nil, err
		}
		if tr.HasMutations() {
			t.Error("Delete under an unknown container buffered writes")
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.Size() != 0 {
		t.Fatalf("Delete under an unknown container left %d keys behind", db.Size())
	}

	run := func(fn func(ctx context.Context, tr *fdb.Transaction, s *Store) error) {
		t.Helper()
		_, err := r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			s, err := p.Open(ctx, tr, "c", int64(1))
			if err != nil {
				return nil, err
			}
			return nil, fn(ctx, tr, s)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	fresh := func(when string, s *Store) {
		t.Helper()
		if h := s.Header(); h.UserVersion != 0 {
			t.Fatalf("%s: open was served the dead store's header %+v", when, h)
		}
		if rec, err := s.LoadRecordByKey(tuple.Tuple{int64(1)}); err != nil || rec != nil {
			t.Fatalf("%s: record survived the delete: %v %v", when, rec, err)
		}
	}
	populate := func() {
		t.Helper()
		run(func(_ context.Context, _ *fdb.Transaction, s *Store) error {
			if _, err := s.SaveRecord(message.New(doc).MustSet("id", int64(1)).MustSet("tag", "x")); err != nil {
				return err
			}
			return s.SetUserVersion(5)
		})
		for i := 0; i < 2; i++ { // the second open is served from cache
			run(func(_ context.Context, _ *fdb.Transaction, s *Store) error {
				if s.Header().UserVersion != 5 {
					t.Fatalf("header before delete: %+v", s.Header())
				}
				return nil
			})
		}
	}

	populate()
	run(func(ctx context.Context, tr *fdb.Transaction, _ *Store) error {
		return p.Delete(ctx, tr, "c", int64(1))
	})
	// Only the interned container's two mapping keys and the allocator's
	// bookkeeping outlive the store.
	_, err = db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		kvs, _, err := tr.GetRange([]byte{}, []byte{0xFE}, fdb.RangeOptions{})
		if err == nil && len(kvs) != 0 {
			t.Errorf("%d keys outside the directory layer survive the delete", len(kvs))
		}
		return nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
	run(func(_ context.Context, _ *fdb.Transaction, s *Store) error { fresh("open after delete", s); return nil })

	populate()
	run(func(ctx context.Context, tr *fdb.Transaction, _ *Store) error {
		if err := p.Delete(ctx, tr, "c", int64(1)); err != nil {
			return err
		}
		s, err := p.Open(ctx, tr, "c", int64(1))
		if err != nil {
			return err
		}
		fresh("open inside the deleting transaction", s)
		return nil
	})
	run(func(_ context.Context, _ *fdb.Transaction, s *Store) error {
		fresh("open after delete + recreate", s)
		return nil
	})
}

// TestOpenCachesConcurrent shares one provider — its state cache and its
// keyspace's directory cache — between goroutines that open, save and now and
// then bump; run under -race. Every acknowledged save must be there at the end.
func TestOpenCachesConcurrent(t *testing.T) {
	doc, md := testSchema(t)
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{MaxAttempts: 50,
		Sleep: func(ctx context.Context, _ time.Duration) error { return ctx.Err() }})
	p := openCostServer(t, md)
	const workers, txns, tenants = 8, 40, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				id := int64(w*txns + i)
				_, err := r.Run(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
					s, err := p.Open(ctx, tr, "shared", id%tenants)
					if err != nil {
						return nil, err
					}
					if i%10 == 9 {
						if err := s.SetUserVersion(w); err != nil {
							return nil, err
						}
					}
					_, err = s.SaveRecord(message.New(doc).MustSet("id", id).MustSet("tag", "t"))
					return nil, err
				})
				if err != nil {
					t.Errorf("worker %d txn %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for tenant := int64(0); tenant < tenants; tenant++ {
		_, err := r.ReadRun(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			s, err := p.Open(ctx, tr, "shared", tenant)
			if err != nil {
				return nil, err
			}
			cur, err := s.ExecuteQuery(ctx, Query{RecordTypes: []string{"Doc"}}, ExecuteProperties{})
			if err != nil {
				return nil, err
			}
			recs, err := cur.ToList()
			total += len(recs)
			return nil, err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if total != workers*txns {
		t.Fatalf("%d records after %d acknowledged saves", total, workers*txns)
	}
	if s := p.StateCacheStats(); s.Hits == 0 || s.Invalidations == 0 {
		t.Fatalf("caches not in play: %+v", s)
	}
}

// TestLimitBoundsConflictAndBillingFootprint: a row limit bounds what the
// page reads, so it bounds what the page conflicts with and what the tenant
// is billed for — the rows delivered, not the batch a scan would have filled.
func TestLimitBoundsConflictAndBillingFootprint(t *testing.T) {
	doc, md := testSchema(t)
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{})
	acct := NewAccountant()
	p := testProvider(t, md)
	p.opts.Accountant = acct
	saveDocs(t, r, p, 1, 200) // 100 entries tagged "even": ids 0, 2, … 198
	ctx := context.Background()
	even := Query{RecordTypes: []string{"Doc"}, Filter: query.Field("tag").Equals("even")}
	save := func(s *Store, id int64, tag string) error {
		_, err := s.SaveRecord(message.New(doc).MustSet("id", id).MustSet("tag", tag))
		return err
	}

	// A read-modify-write takes the first 5 rows (ids 0–8), another writer
	// inserts into the same index range, then the first one saves and commits.
	rmw := func(insertID int64) error {
		tr := db.CreateTransaction()
		s, err := p.Open(ctx, tr, int64(1))
		if err != nil {
			t.Fatal(err)
		}
		cur, err := s.ExecuteQuery(ctx, even, ExecuteProperties{RowLimit: 5})
		if err != nil {
			t.Fatal(err)
		}
		if rows, err := cur.ToList(); err != nil || len(rows) != 5 {
			t.Fatalf("first page: %d rows, %v", len(rows), err)
		}
		_, err = r.Run(ctx, func(ctx context.Context, wtr *fdb.Transaction) (interface{}, error) {
			ws, err := p.Open(ctx, wtr, int64(1))
			if err != nil {
				return nil, err
			}
			return nil, save(ws, insertID, "even")
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := save(s, 1001, "odd"); err != nil {
			t.Fatal(err)
		}
		return tr.Commit()
	}
	if err := rmw(99); err != nil { // lands at entry 50, past the page
		t.Errorf("insert at entry 50 of 100 aborted a transaction that read the first 5: %v", err)
	}
	if err := rmw(3); !fdb.IsConflict(err) { // lands among the 5 rows read
		t.Errorf("insert among the 5 rows read: commit returned %v, want a conflict", err)
	}

	// A 25-row page bills 25 index entries and the two pairs of each of the
	// 25 records, however many entries the range holds.
	_, err := r.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := p.Open(ctx, tr, int64(1))
		if err != nil {
			return nil, err
		}
		before := acct.Tenant("1").Snapshot().ReadRecords
		cur, err := s.ExecuteQuery(ctx, even, ExecuteProperties{RowLimit: 25})
		if err != nil {
			return nil, err
		}
		if rows, err := cur.ToList(); err != nil || len(rows) != 25 {
			t.Fatalf("page: %d rows, %v", len(rows), err)
		}
		if got := acct.Tenant("1").Snapshot().ReadRecords - before; got != 25+25*2 {
			t.Errorf("a 25-row page was billed %d read rows, want %d", got, 25+25*2)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
