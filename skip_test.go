package recordlayer

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"recordlayer/internal/core"
	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/keyspace"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/plan"
	"recordlayer/internal/query"
	"recordlayer/internal/tuple"
)

// collectPages pages a query to exhaustion across one Runner.Run transaction
// per page, returning every record id in order.
func collectPages(t *testing.T, r *Runner, p *StoreProvider, props ExecuteProperties, maxPages int) []int64 {
	t.Helper()
	var ids []int64
	q := Query{RecordTypes: []string{"Doc"}}
	for page := 0; ; page++ {
		if page >= maxPages {
			t.Fatalf("paging did not terminate after %d pages (ids so far: %v)", maxPages, ids)
		}
		res, err := r.ReadRun(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			store, err := p.Open(ctx, tr, int64(1))
			if err != nil {
				return nil, err
			}
			cur, err := store.ExecuteQuery(ctx, q, props)
			if err != nil {
				return nil, err
			}
			recs, err := cur.ToList()
			if err != nil {
				return nil, err
			}
			for _, rec := range recs {
				id, _ := rec.Message.Get("id")
				ids = append(ids, id.(int64))
			}
			return cur, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		cur := res.(*RecordCursor)
		if cur.Exhausted() {
			return ids
		}
		props = props.WithContinuation(cur.Continuation())
	}
}

// TestSkipContinuationPaging is the regression for Skip being re-applied on
// every resumed page: paging Skip=3 RowLimit=2 across separate transactions
// must return records 3..9 exactly once.
func TestSkipContinuationPaging(t *testing.T) {
	_, md := testSchema(t)
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{})
	p := testProvider(t, md)
	saveDocs(t, r, p, 1, 10)

	ids := collectPages(t, r, p, ExecuteProperties{Skip: 3, RowLimit: 2}, 10)
	want := []int64{3, 4, 5, 6, 7, 8, 9}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
}

// TestSkipContinuationAcrossScanLimit halts the query mid-skip with a scan
// limit: the continuation must remember the outstanding skip so the resumed
// pages neither re-deliver nor silently drop records.
func TestSkipContinuationAcrossScanLimit(t *testing.T) {
	_, md := testSchema(t)
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{})
	p := testProvider(t, md)
	saveDocs(t, r, p, 1, 12)

	// Each transaction delivers roughly one record under this scan limit (a
	// record spans ~2 scanned pairs), so the Skip=5 phase alone spans
	// several transactions before any record is returned — the halts land
	// mid-skip and the continuation must carry the outstanding count.
	ids := collectPages(t, r, p, ExecuteProperties{Skip: 5, ScanRecordLimit: 3}, 25)
	want := []int64{5, 6, 7, 8, 9, 10, 11}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
}

// TestSkipPastEnd checks a Skip larger than the result set yields nothing
// and terminates.
func TestSkipPastEnd(t *testing.T) {
	_, md := testSchema(t)
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{})
	p := testProvider(t, md)
	saveDocs(t, r, p, 1, 4)

	ids := collectPages(t, r, p, ExecuteProperties{Skip: 10, RowLimit: 3}, 10)
	if len(ids) != 0 {
		t.Fatalf("ids = %v, want none", ids)
	}
}

// TestSkipSingleTransactionUnchanged checks the non-paged path still skips
// exactly once (no envelope in play on the first execution).
func TestSkipSingleTransactionUnchanged(t *testing.T) {
	_, md := testSchema(t)
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{})
	p := testProvider(t, md)
	saveDocs(t, r, p, 1, 6)

	ids := collectPages(t, r, p, ExecuteProperties{Skip: 2}, 2)
	want := []int64{2, 3, 4, 5}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
}

// TestSkipNoProgressHaltKeepsNilContinuation: a halt before any record makes
// progress carries a nil inner continuation; the skip envelope must preserve
// that nil rather than manufacture a non-nil continuation that would restart
// from scratch forever. Scan and byte limits always admit the first record
// now (the sub-record progress guarantee), so the only no-progress halt left
// is an already-expired time budget.
func TestSkipNoProgressHaltKeepsNilContinuation(t *testing.T) {
	_, md := testSchema(t)
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{})
	p := testProvider(t, md)
	saveDocs(t, r, p, 1, 6)

	// A manual clock that advances on every reading: the 1ns budget expires
	// before the first record can be admitted.
	base := time.Now()
	calls := 0
	clock := func() time.Time {
		calls++
		return base.Add(time.Duration(calls) * time.Millisecond)
	}
	_, err := r.ReadRun(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := p.Open(ctx, tr, int64(1))
		if err != nil {
			return nil, err
		}
		cur, err := store.ExecuteQuery(ctx, Query{RecordTypes: []string{"Doc"}},
			ExecuteProperties{Skip: 2, TimeBudget: time.Nanosecond, Clock: clock})
		if err != nil {
			return nil, err
		}
		recs, err := cur.ToList()
		if err != nil {
			return nil, err
		}
		if len(recs) != 0 {
			t.Errorf("recs = %d, want 0", len(recs))
		}
		if cont := cur.Continuation(); cont != nil {
			t.Errorf("no-progress halt produced continuation %x, want nil", cont)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSkipContinuationEncoding unit-tests the envelope round trip.
func TestSkipContinuationEncoding(t *testing.T) {
	for _, tc := range []struct {
		remaining int
		inner     []byte
	}{
		{0, []byte("plan-cont")},
		{7, []byte("plan-cont")},
		{300, nil},
	} {
		enc := encodeSkipContinuation(tc.remaining, tc.inner)
		rem, inner, err := decodeSkipContinuation(enc, 300)
		if err != nil {
			t.Fatalf("decode(%v): %v", tc, err)
		}
		if rem != tc.remaining || string(inner) != string(tc.inner) {
			t.Errorf("round trip %v -> rem=%d inner=%q", tc, rem, inner)
		}
	}
	if enc := encodeSkipContinuation(0, nil); enc != nil {
		t.Errorf("encode(0, nil) = %v, want nil", enc)
	}
	// A continuation without the envelope (legacy or skip-free) passes
	// through with nothing left to skip.
	rem, inner, err := decodeSkipContinuation([]byte("raw"), 3)
	if err != nil || rem != 0 || string(inner) != "raw" {
		t.Errorf("raw passthrough: %d %q %v", rem, inner, err)
	}
}

// TestSkipContinuationRejectsOutOfRange: a skip envelope whose count lies
// outside [0, Skip] cannot have come from the query resuming it, and the
// query fails instead of silently returning other rows — a count of 2^64-1
// used to decode as -1, and the page came back unskipped.
func TestSkipContinuationRejectsOutOfRange(t *testing.T) {
	_, md := testSchema(t)
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{})
	p := testProvider(t, md)
	saveDocs(t, r, p, 1, 6)

	for _, count := range []uint64{math.MaxUint64, 1 << 63, 4} {
		cont := binary.AppendUvarint([]byte{skipContMarker}, count)
		props := ExecuteProperties{Skip: 3, RowLimit: 2}.WithContinuation(cont)
		v, err := r.ReadRun(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			store, err := p.Open(ctx, tr, int64(1))
			if err != nil {
				return nil, err
			}
			cur, err := store.ExecuteQuery(ctx, Query{RecordTypes: []string{"Doc"}}, props)
			if err != nil {
				return nil, err
			}
			return cur.ToList()
		})
		if err == nil || !strings.Contains(err.Error(), "corrupt skip continuation") {
			t.Errorf("count %d: resumed to (%v, %v), want a corrupt-continuation error", count, v, err)
		}
	}
}

// FuzzSkipContinuation: the skip envelope's decoder never panics on any
// bytes, accepts only counts in [0, skip], and inverts the encoder.
func FuzzSkipContinuation(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, count uint64, skip uint16, inner []byte) {
		if rem, _, err := decodeSkipContinuation(raw, int(skip)); err == nil && (rem < 0 || rem > int(skip)) {
			t.Fatalf("decode(%x, %d) accepted count %d", raw, skip, rem)
		}
		env := append(binary.AppendUvarint([]byte{skipContMarker}, count), inner...)
		rem, got, err := decodeSkipContinuation(env, int(skip))
		if count > uint64(skip) {
			if err == nil {
				t.Fatalf("count %d > skip %d decoded as %d", count, skip, rem)
			}
			return
		}
		if err != nil || uint64(rem) != count || !bytes.Equal(got, inner) || (len(inner) == 0) != (got == nil) {
			t.Fatalf("decode(%x, %d) = (%d, %q, %v), want (%d, %q, nil)", env, skip, rem, got, err, count, inner)
		}
		// Nothing left to skip and no inner continuation is the exhausted
		// contract, encoded as nil; every other pair encodes back to env.
		want := env
		if rem == 0 && got == nil {
			want = nil
		}
		if enc := encodeSkipContinuation(rem, got); !bytes.Equal(enc, want) {
			t.Fatalf("encode(%d, %q) = %x, want %x", rem, got, enc, want)
		}
	})
}

// continuationShapes are the query shapes FuzzQueryContinuation resumes, over
// fuzzStore's records, with the rows each may return by record number (id %
// 100). A nil query is a rank scan of n_rank from rank 0.
var continuationShapes = []struct {
	q    Query
	keep func(i int64) bool
}{
	{tagged("a"), func(i int64) bool { return fuzzTag(i) == "a" }},
	{tagged("b").Select("tag"), func(i int64) bool { return fuzzTag(i) == "b" }},
	{Query{RecordTypes: []string{"Doc"}, Filter: query.Or(
		query.Field("tag").Equals("a"), query.Field("tag").Equals("c"))},
		func(i int64) bool { return fuzzTag(i) != "b" }},
	{Query{RecordTypes: []string{"Doc"}, Filter: query.And(
		query.Field("tag").Equals("a"), query.Field("color").Equals("red"))},
		func(i int64) bool { return fuzzTag(i) == "a" && fuzzColor(i) == "red" }},
	{Query{RecordTypes: []string{"Doc"}, Filter: query.Field("tag").NotEquals("b")},
		func(i int64) bool { return fuzzTag(i) != "b" }},
	{Query{}, func(int64) bool { return true }},
}

func tagged(tag string) Query {
	return Query{RecordTypes: []string{"Doc"}, Filter: query.Field("tag").Equals(tag)}
}

// Record i of tenant u has id 100u+i and these fields.
func fuzzTag(i int64) string   { return []string{"a", "b", "c"}[i%3] }
func fuzzColor(i int64) string { return []string{"red", "blue"}[i%2] }
func fuzzN(i int64) int64      { return i * 7 % 10 }

// fuzzStore saves ten records for each of tenants 1 and 2 under a schema with
// VALUE indexes on tag and color and a RANK index on n, and returns a Runner
// and a provider that plans AND across indexes as an intersection.
func fuzzStore(t testing.TB) (*Runner, *StoreProvider) {
	doc := message.MustDescriptor("Doc",
		message.Field("id", 1, message.TypeInt64),
		message.Field("tag", 2, message.TypeString),
		message.Field("color", 3, message.TypeString),
		message.Field("n", 4, message.TypeInt64))
	md := metadata.NewBuilder(1).
		AddRecordType(doc, keyexpr.Field("id")).
		AddIndex(&metadata.Index{Name: "by_tag", Type: metadata.IndexValue, Expression: keyexpr.Field("tag")}, "Doc").
		AddIndex(&metadata.Index{Name: "by_color", Type: metadata.IndexValue, Expression: keyexpr.Field("color")}, "Doc").
		AddIndex(&metadata.Index{Name: "n_rank", Type: metadata.IndexRank, Expression: keyexpr.Field("n")}, "Doc").
		MustBuild()
	ks, err := keyspace.New(nil, keyspace.NewConstant("app", "fuzz").Add(
		keyspace.NewDirectory("user", keyspace.TypeInt64)))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewStoreProvider(md, ks, []string{"app", "user"},
		ProviderOptions{Planner: plan.Config{PreferIndexIntersection: true}})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(fdb.Open(nil), RunnerOptions{})
	for _, u := range []int64{1, 2} {
		recs := make([]*message.Message, 10)
		for i := range recs {
			n := int64(i)
			recs[i] = message.New(doc).MustSet("id", 100*u+n).MustSet("tag", fuzzTag(n)).
				MustSet("color", fuzzColor(n)).MustSet("n", fuzzN(n))
		}
		if _, err := r.Run(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			s, err := p.Open(ctx, tr, u)
			if err != nil {
				return nil, err
			}
			_, err = s.SaveRecords(recs)
			return nil, err
		}); err != nil {
			t.Fatal(err)
		}
	}
	return r, p
}

// resume runs one page of shape on user's store, resumed from cont, and
// returns the primary keys and, for a rank scan, the ranked values it read.
func resume(r *Runner, p *StoreProvider, user int64, shape int, cont []byte, props ExecuteProperties) (pks []int64, ranked []int64, next []byte, err error) {
	_, err = r.ReadRun(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		pks, ranked, next = nil, nil, nil
		s, err := p.Open(ctx, tr, user)
		if err != nil {
			return nil, err
		}
		if q := continuationShapes[shape].q; q.RecordTypes != nil {
			cur, err := s.ExecuteQuery(ctx, q, props.WithContinuation(cont))
			if err != nil {
				return nil, err
			}
			recs, err := cur.ToList()
			for _, rec := range recs {
				pks = append(pks, rec.PrimaryKey[0].(int64))
			}
			next = cur.Continuation()
			return nil, err
		}
		c, err := s.ScanByRank("n_rank", 0, index.ScanOptions{Continuation: cont})
		if err != nil {
			return nil, err
		}
		if props.RowLimit > 0 {
			c = cursor.Limit(c, props.RowLimit)
		}
		entries, _, cont, err := cursor.Collect(c)
		for _, e := range entries {
			pks = append(pks, e.PrimaryKey[0].(int64))
			ranked = append(ranked, e.Key[0].(int64))
		}
		next = cont
		return nil, err
	})
	return pks, ranked, next, err
}

// FuzzQueryContinuation: any bytes handed back as the continuation of an
// index scan, a covering scan, a union, an intersection, a filtered full scan
// or a rank scan either fail the page or resume it to rows of the resuming
// tenant that the query selects — never a panic, another tenant's row, or a
// row outside the filter.
func FuzzQueryContinuation(f *testing.F) {
	r, p := fuzzStore(f)
	for shape := range continuationShapes {
		if _, _, cont, err := resume(r, p, 1, shape, nil, ExecuteProperties{RowLimit: 2}); err == nil {
			f.Add(cont, uint8(shape), false, uint8(2), uint8(0))
		}
	}
	f.Fuzz(func(t *testing.T, cont []byte, shape uint8, second bool, limit, skip uint8) {
		user := int64(1)
		if second {
			user = 2
		}
		s := int(shape) % len(continuationShapes)
		props := ExecuteProperties{RowLimit: int(limit % 8), Skip: int(skip % 4)}
		pks, ranked, _, err := resume(r, p, user, s, cont, props)
		if err != nil {
			return
		}
		for j, pk := range pks {
			i := pk - 100*user
			if i < 0 || i >= 10 || !continuationShapes[s].keep(i) || (ranked != nil && ranked[j] != fuzzN(i)) {
				t.Fatalf("shape %d, tenant %d, continuation %x: resumed to %v (ranked %v)", s, user, cont, pks, ranked)
			}
		}
	})
}

// TestForgedContinuationStaysInRange: a continuation is a key the client
// hands back — an index scan's last key, or a record scan's last primary key —
// so one taken from another query or another tenant must not move a scan out
// of its range. Resumed from a two-row "tag == even" page, "tag == odd" used to
// return ids [4 6 8 1 3 5 7 9], and tenant 2 read 34 of tenant 1's index keys
// before failing. Each now fails as corrupt before reading a key.
func TestForgedContinuationStaysInRange(t *testing.T) {
	_, md := testSchema(t)
	r := NewRunner(fdb.Open(nil), RunnerOptions{})
	p := testProvider(t, md)
	saveDocs(t, r, p, 1, 10)
	saveDocs(t, r, p, 2, 10)
	// scan runs one page in a transaction of user's store and returns the
	// page's ids, its continuation and the keys the page read.
	type page struct {
		ids      []int64
		cont     []byte
		keysRead int
	}
	scan := func(user int64, run func(s *Store) ([]*Record, []byte, error)) (pg page, err error) {
		_, err = r.ReadRun(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			s, err := p.Open(ctx, tr, user)
			if err != nil {
				return nil, err
			}
			before := tr.Stats().KeysRead
			recs, cont, err := run(s)
			pg = page{cont: cont, keysRead: tr.Stats().KeysRead - before}
			for _, rec := range recs {
				id, _ := rec.Message.Get("id")
				pg.ids = append(pg.ids, id.(int64))
			}
			return nil, err
		})
		return pg, err
	}
	execute := func(q Query, props ExecuteProperties) func(s *Store) ([]*Record, []byte, error) {
		return func(s *Store) ([]*Record, []byte, error) {
			cur, err := s.ExecuteQuery(context.Background(), q, props)
			if err != nil {
				return nil, nil, err
			}
			recs, err := cur.ToList()
			return recs, cur.Continuation(), err
		}
	}
	first, err := scan(1, execute(tagged("even"), ExecuteProperties{RowLimit: 2}))
	if err != nil || len(first.ids) != 2 || first.cont == nil {
		t.Fatalf("first page: %+v, %v", first, err)
	}
	// A record scan over ids [5, 8) resumed before its range or past it.
	idRange := index.TupleRange{Low: tuple.Tuple{int64(5)}, LowInclusive: true, High: tuple.Tuple{int64(8)}}
	records := func(reverse bool, pk int64) func(s *Store) ([]*Record, []byte, error) {
		return func(s *Store) ([]*Record, []byte, error) {
			recs, _, cont, err := cursor.Collect(s.ScanRecords(core.ScanOptions{
				Range: idRange, Reverse: reverse, Continuation: tuple.Tuple{pk}.Pack()}))
			return recs, cont, err
		}
	}
	for _, tc := range []struct {
		name string
		user int64
		run  func(s *Store) ([]*Record, []byte, error)
	}{
		{"index scan, another predicate", 1, execute(tagged("odd"), ExecuteProperties{}.WithContinuation(first.cont))},
		{"index scan, another tenant", 2, execute(tagged("even"), ExecuteProperties{}.WithContinuation(first.cont))},
		{"record scan, before its range", 1, records(false, 2)},
		{"record scan, past its range", 1, records(true, 9)},
	} {
		got, err := scan(tc.user, tc.run)
		if err == nil || !strings.Contains(err.Error(), "corrupt continuation") || got.keysRead != 0 {
			t.Errorf("%s: resumed to %+v, %v; want a corrupt-continuation error and no key read", tc.name, got, err)
		}
	}
	// A continuation from inside the range still resumes.
	if got, err := scan(1, records(false, 5)); err != nil || fmt.Sprint(got.ids) != "[6 7]" {
		t.Errorf("record scan resumed after 5: %+v, %v; want ids [6 7]", got, err)
	}
}

// TestTxnTimeIncludesQueueWait is the regression for the latency clock
// starting after admission: a transaction that waits for a concurrency slot
// must show that wait in Usage.TxnTime.
func TestTxnTimeIncludesQueueWait(t *testing.T) {
	db := fdb.Open(nil)
	gov := NewGovernor(nil, GovernorOptions{})
	gov.SetLimits("queued", TenantLimits{MaxConcurrent: 1})
	r := NewRunner(db, RunnerOptions{Governor: gov})
	ctx := WithTenant(context.Background(), "queued")

	hold, err := gov.Admit(ctx, "queued")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			return nil, tr.Set([]byte("k"), []byte("v"))
		})
		done <- err
	}()
	const wait = 60 * time.Millisecond
	time.Sleep(wait)
	hold()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	u := gov.Accountant().Tenant("queued").Snapshot()
	if u.Transactions != 1 {
		t.Fatalf("Transactions = %d", u.Transactions)
	}
	if u.TxnTime < wait/2 {
		t.Errorf("TxnTime = %v hides the ~%v queue wait", u.TxnTime, wait)
	}
	if u.Throttled != 1 {
		t.Errorf("Throttled = %d, want 1", u.Throttled)
	}
}

// TestRunnerByteQuotaEndToEnd drives the full loop: runner-bound tenant,
// byte quota from the governor, bytes billed by the tenant's transactions
// feeding ChargeBytes, and the typed byte-rate rejection surfacing from Run.
func TestRunnerByteQuotaEndToEnd(t *testing.T) {
	_, md := testSchema(t)
	db := fdb.Open(nil)
	gov := NewGovernor(nil, GovernorOptions{})
	gov.SetLimits("hog", TenantLimits{BytesPerSecond: 1, ByteBurst: 256})
	r := NewRunner(db, RunnerOptions{Governor: gov})
	p := testProvider(t, md)
	ctx := WithTenant(context.Background(), "hog")

	doc, _ := testSchema(t)
	var lastErr error
	for i := 0; i < 50 && lastErr == nil; i++ {
		rec := message.New(doc).MustSet("id", int64(i)).MustSet("tag", "x")
		_, lastErr = r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			store, err := p.Open(ctx, tr, int64(3))
			if err != nil {
				return nil, err
			}
			_, err = store.SaveRecord(rec)
			return nil, err
		})
	}
	var qe *QuotaExceededError
	if !errors.As(lastErr, &qe) || qe.Resource != "byte-rate" {
		t.Fatalf("want byte-rate quota error, got %v", lastErr)
	}
	// The transactions billed real bytes into the governor's bucket.
	if u := gov.Accountant().Tenant("hog").Snapshot(); u.WriteBytes == 0 {
		t.Errorf("no bytes metered: %+v", u)
	}
}
