package plan

import (
	"strings"
	"testing"
	"time"

	"recordlayer/internal/core"
	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/obs"
	"recordlayer/internal/query"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

func personDesc() *message.Descriptor {
	return message.MustDescriptor("Person",
		message.Field("id", 1, message.TypeInt64),
		message.Field("name", 2, message.TypeString),
		message.Field("age", 3, message.TypeInt64),
		message.Field("city", 4, message.TypeString),
		message.RepeatedField("tags", 5, message.TypeString),
	)
}

func planSchema(t testing.TB) *metadata.MetaData {
	t.Helper()
	return metadata.NewBuilder(1).
		AddRecordType(personDesc(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		AddIndex(&metadata.Index{Name: "by_name", Type: metadata.IndexValue,
			Expression: keyexpr.Field("name")}, "Person").
		AddIndex(&metadata.Index{Name: "by_city_age", Type: metadata.IndexValue,
			Expression: keyexpr.Then(keyexpr.Field("city"), keyexpr.Field("age"))}, "Person").
		AddIndex(&metadata.Index{Name: "by_tag", Type: metadata.IndexValue,
			Expression: keyexpr.FieldFan("tags", keyexpr.FanOut)}, "Person").
		MustBuild()
}

type planEnv struct {
	db *fdb.Database
	md *metadata.MetaData
	sp subspace.Subspace
}

func newPlanEnv(t testing.TB) *planEnv {
	t.Helper()
	return newPlanEnvOn(t, fdb.Open(nil))
}

// newPlanEnvOn seeds the standard six-person data set on a caller-supplied
// database, so tests can run the same plans against a latency-modeled store.
func newPlanEnvOn(t testing.TB, db *fdb.Database) *planEnv {
	t.Helper()
	env := &planEnv{db: db, md: planSchema(t), sp: subspace.FromTuple(tuple.Tuple{"t"})}
	people := []struct {
		id   int64
		name string
		age  int64
		city string
		tags []string
	}{
		{1, "alice", 34, "paris", []string{"eng", "chess"}},
		{2, "bob", 28, "paris", []string{"art"}},
		{3, "carol", 41, "tokyo", []string{"eng"}},
		{4, "dave", 23, "tokyo", nil},
		{5, "erin", 34, "paris", []string{"chess", "go"}},
		{6, "frank", 52, "berlin", []string{"art", "eng"}},
	}
	_, err := env.db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		s, err := core.Open(tr, env.md, env.sp, core.OpenOptions{CreateIfMissing: true})
		if err != nil {
			return nil, err
		}
		for _, p := range people {
			m := message.New(personDesc()).
				MustSet("id", p.id).MustSet("name", p.name).
				MustSet("age", p.age).MustSet("city", p.city)
			for _, tag := range p.tags {
				m.MustAdd("tags", tag)
			}
			if _, err := s.SaveRecord(m); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func (env *planEnv) run(t testing.TB, p Plan, opts ExecuteOptions) ([]int64, cursor.NoNextReason, []byte) {
	t.Helper()
	var ids []int64
	var reason cursor.NoNextReason
	var cont []byte
	_, err := env.db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		s, err := core.Open(tr, env.md, env.sp, core.OpenOptions{})
		if err != nil {
			return nil, err
		}
		c, err := p.Execute(s, opts)
		if err != nil {
			return nil, err
		}
		recs, r, cc, err := cursor.Collect(c)
		if err != nil {
			return nil, err
		}
		ids = nil
		for _, rec := range recs {
			v, _ := rec.Message.Get("id")
			ids = append(ids, v.(int64))
		}
		reason, cont = r, cc
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ids, reason, cont
}

func idsEqual(a []int64, b ...int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// plannerUnderTest is the planner the shape tests below run against, with
// the name their failure messages print.
func plannerUnderTest(t testing.TB, md *metadata.MetaData) (string, func(query.RecordQuery) (Plan, error)) {
	t.Helper()
	return "heuristic", New(md, Config{PreferIndexIntersection: true}).Plan
}

func TestEqualityUsesIndex(t *testing.T) {
	env := newPlanEnv(t)
	q := query.RecordQuery{RecordTypes: []string{"Person"},
		Filter: query.Field("name").Equals("carol")}
	name, plan := plannerUnderTest(t, env.md)
	p, err := plan(q)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !strings.Contains(p.String(), "Index(by_name") {
		t.Fatalf("%s: expected index plan, got %s", name, p)
	}
	ids, reason, _ := env.run(t, p, ExecuteOptions{})
	if !idsEqual(ids, 3) || reason != cursor.SourceExhausted {
		t.Fatalf("%s: ids %v", name, ids)
	}
}

func TestCompoundIndexPrefixPlusRange(t *testing.T) {
	env := newPlanEnv(t)
	q := query.RecordQuery{RecordTypes: []string{"Person"},
		Filter: query.And(
			query.Field("city").Equals("paris"),
			query.Field("age").GreaterThan(30),
		)}
	name, plan := plannerUnderTest(t, env.md)
	p, err := plan(q)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !strings.Contains(p.String(), "Index(by_city_age") {
		t.Fatalf("%s: expected compound index, got %s", name, p)
	}
	if strings.Contains(p.String(), "Filter") {
		t.Fatalf("%s: both conjuncts should be absorbed: %s", name, p)
	}
	ids, _, _ := env.run(t, p, ExecuteOptions{})
	// paris + age>30: alice(34), erin(34); index orders by (city, age, pk).
	if !idsEqual(ids, 1, 5) {
		t.Fatalf("%s: ids %v", name, ids)
	}
}

func TestBothRangeBoundsAbsorbed(t *testing.T) {
	env := newPlanEnv(t)
	// Equality prefix plus a two-sided range on the next column: both bounds
	// ride the index range; no residual filter and no over-scan.
	q := query.RecordQuery{RecordTypes: []string{"Person"},
		Filter: query.And(
			query.Field("city").Equals("paris"),
			query.Field("age").GreaterThan(28),
			query.Field("age").LessOrEqual(34),
		)}
	h := New(env.md, Config{})
	p, err := h.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.String(), "Index(by_city_age") {
		t.Fatalf("expected compound index, got %s", p)
	}
	if strings.Contains(p.String(), "Filter") {
		t.Fatalf("all three conjuncts should be absorbed into the range: %s", p)
	}
	ids, _, _ := env.run(t, p, ExecuteOptions{})
	// paris, 28 < age <= 34: alice(34), erin(34).
	if !idsEqual(ids, 1, 5) {
		t.Fatalf("ids %v", ids)
	}
	// The scan must touch only the matching entries, not the whole index.
	lim := cursor.NewLimiter(2, 0, time.Time{}, timeZero)
	ids, reason, _ := env.run(t, p, ExecuteOptions{Limiter: lim})
	if !idsEqual(ids, 1, 5) || reason != cursor.SourceExhausted {
		t.Fatalf("bounded scan read extra entries: ids %v reason %v", ids, reason)
	}
}

func TestFanOutBoundsNotIntersected(t *testing.T) {
	env := newPlanEnv(t)
	// One-of-them conjuncts can be satisfied by *different* elements of the
	// repeated field, so the planner must not fold both bounds into a single
	// (here inverted, hence empty) entry range.
	q := query.RecordQuery{RecordTypes: []string{"Person"},
		Filter: query.And(
			query.Field("tags").OneOfThem().GreaterThan("e"),
			query.Field("tags").OneOfThem().LessThan("d"),
		)}
	h := New(env.md, Config{})
	p, err := h.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.String(), "Filter") {
		t.Fatalf("second fan-out bound must stay residual: %s", p)
	}
	ids, _, _ := env.run(t, p, ExecuteOptions{})
	// alice(1): eng > e, chess < d. frank(6): eng > e, art < d.
	// erin(5): go > e, chess < d. (carol's only tag eng fails < d.)
	if !idsEqual(ids, 1, 6, 5) {
		t.Fatalf("ids %v, want [1 6 5]", ids)
	}
}

func TestResidualFilter(t *testing.T) {
	env := newPlanEnv(t)
	q := query.RecordQuery{RecordTypes: []string{"Person"},
		Filter: query.And(
			query.Field("city").Equals("paris"),
			query.Field("name").BeginsWith("a"),
		)}
	h := New(env.md, Config{})
	p, err := h.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	// city bound by by_city_age; name prefix is residual (or name index is
	// chosen with city residual — either way a Filter must appear).
	if !strings.Contains(p.String(), "Filter") {
		t.Fatalf("expected residual filter: %s", p)
	}
	ids, _, _ := env.run(t, p, ExecuteOptions{})
	if !idsEqual(ids, 1) {
		t.Fatalf("ids %v", ids)
	}
}

func TestSortRequiresIndex(t *testing.T) {
	env := newPlanEnv(t)
	// Sort by name: satisfied by by_name.
	q := query.RecordQuery{RecordTypes: []string{"Person"}, Sort: keyexpr.Field("name")}
	name, plan := plannerUnderTest(t, env.md)
	p, err := plan(q)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ids, _, _ := env.run(t, p, ExecuteOptions{})
	if !idsEqual(ids, 1, 2, 3, 4, 5, 6) {
		t.Fatalf("%s: sorted ids %v", name, ids)
	}
	// Sort by age alone: no index provides it.
	q2 := query.RecordQuery{RecordTypes: []string{"Person"}, Sort: keyexpr.Field("age")}
	h := New(env.md, Config{})
	if _, err := h.Plan(q2); err == nil {
		t.Fatal("unsatisfiable sort accepted")
	}
	// Sort by age *within* a city equality: by_city_age provides it.
	q3 := query.RecordQuery{RecordTypes: []string{"Person"},
		Filter: query.Field("city").Equals("paris"), Sort: keyexpr.Field("age")}
	p3, err := h.Plan(q3)
	if err != nil {
		t.Fatal(err)
	}
	ids, _, _ = env.run(t, p3, ExecuteOptions{})
	if !idsEqual(ids, 2, 1, 5) { // bob 28, alice 34, erin 34 (pk breaks tie)
		t.Fatalf("city+age sort: %v", ids)
	}
	// Reverse sort.
	q4 := query.RecordQuery{RecordTypes: []string{"Person"},
		Filter: query.Field("city").Equals("paris"), Sort: keyexpr.Field("age"), SortReverse: true}
	p4, err := h.Plan(q4)
	if err != nil {
		t.Fatal(err)
	}
	ids, _, _ = env.run(t, p4, ExecuteOptions{})
	if !idsEqual(ids, 5, 1, 2) {
		t.Fatalf("reverse sort: %v", ids)
	}
}

func TestOrBecomesUnion(t *testing.T) {
	env := newPlanEnv(t)
	q := query.RecordQuery{RecordTypes: []string{"Person"},
		Filter: query.Or(
			query.Field("name").Equals("alice"),
			query.Field("name").Equals("frank"),
			query.Field("city").Equals("tokyo"),
		)}
	name, plan := plannerUnderTest(t, env.md)
	p, err := plan(q)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !strings.Contains(p.String(), "Union") {
		t.Fatalf("%s: expected union plan: %s", name, p)
	}
	ids, _, _ := env.run(t, p, ExecuteOptions{})
	// alice(1), frank(6), tokyo: carol(3), dave(4). Union dedups.
	if len(ids) != 4 {
		t.Fatalf("%s: union ids %v", name, ids)
	}
	seen := map[int64]bool{}
	for _, id := range ids {
		seen[id] = true
	}
	for _, want := range []int64{1, 3, 4, 6} {
		if !seen[want] {
			t.Fatalf("%s: missing id %d in %v", name, want, ids)
		}
	}
}

func TestUnionDedupsOverlappingBranches(t *testing.T) {
	env := newPlanEnv(t)
	q := query.RecordQuery{RecordTypes: []string{"Person"},
		Filter: query.Or(
			query.Field("city").Equals("paris"),
			query.Field("name").Equals("alice"), // alice is in paris: overlap
		)}
	h := New(env.md, Config{})
	p, err := h.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	ids, _, _ := env.run(t, p, ExecuteOptions{})
	if len(ids) != 3 { // alice, bob, erin — alice once
		t.Fatalf("union dedup: %v", ids)
	}
}

func TestFanOutIndexWithDistinct(t *testing.T) {
	env := newPlanEnv(t)
	q := query.RecordQuery{RecordTypes: []string{"Person"},
		Filter: query.Field("tags").OneOfThem().Equals("eng")}
	name, plan := plannerUnderTest(t, env.md)
	p, err := plan(q)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !strings.Contains(p.String(), "Index(by_tag") {
		t.Fatalf("%s: expected fanout index: %s", name, p)
	}
	ids, _, _ := env.run(t, p, ExecuteOptions{})
	if len(ids) != 3 { // alice, carol, frank
		t.Fatalf("%s: fanout ids %v", name, ids)
	}
}

func TestIntersectionOfFullyBoundScans(t *testing.T) {
	env := newPlanEnv(t)
	q := query.RecordQuery{RecordTypes: []string{"Person"},
		Filter: query.And(
			query.Field("name").Equals("alice"),
			query.Field("tags").OneOfThem().Equals("chess"),
		)}
	h := New(env.md, Config{PreferIndexIntersection: true})
	p, err := h.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.String(), "Intersection") {
		t.Fatalf("expected intersection plan: %s", p)
	}
	ids, _, _ := env.run(t, p, ExecuteOptions{})
	if !idsEqual(ids, 1) {
		t.Fatalf("intersection ids: %v", ids)
	}
}

func TestFullScanFallback(t *testing.T) {
	env := newPlanEnv(t)
	q := query.RecordQuery{RecordTypes: []string{"Person"},
		Filter: query.Field("age").LessThan(30)} // age alone is unindexed (leading column is city)
	name, plan := plannerUnderTest(t, env.md)
	p, err := plan(q)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !strings.Contains(p.String(), "Scan(") {
		t.Fatalf("%s: expected full scan: %s", name, p)
	}
	ids, _, _ := env.run(t, p, ExecuteOptions{})
	if len(ids) != 2 { // bob 28, dave 23
		t.Fatalf("%s: scan ids %v", name, ids)
	}
	h := New(env.md, Config{DisallowFullScan: true})
	if _, err := h.Plan(q); err == nil {
		t.Fatal("full scan not disallowed")
	}
}

func TestPlanContinuationAcrossExecutions(t *testing.T) {
	env := newPlanEnv(t)
	q := query.RecordQuery{RecordTypes: []string{"Person"},
		Filter: query.Field("city").Equals("paris")}
	h := New(env.md, Config{})
	p, err := h.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	// First execution limited to 1 row via the scan limiter pattern: use
	// cursor.Limit at the call site, as clients do.
	var cont []byte
	var first []int64
	_, err = env.db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		s, err := core.Open(tr, env.md, env.sp, core.OpenOptions{})
		if err != nil {
			return nil, err
		}
		c, err := p.Execute(s, ExecuteOptions{})
		if err != nil {
			return nil, err
		}
		lim := cursor.Limit(c, 2)
		recs, reason, cc, err := cursor.Collect(lim)
		if err != nil {
			return nil, err
		}
		if reason != cursor.ReturnLimitReached {
			t.Fatalf("reason: %v", reason)
		}
		for _, rec := range recs {
			v, _ := rec.Message.Get("id")
			first = append(first, v.(int64))
		}
		cont = cc
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Resume in a brand-new transaction — the stateless continuation story.
	rest, reason, _ := env.run(t, p, ExecuteOptions{Continuation: cont})
	if reason != cursor.SourceExhausted {
		t.Fatalf("resume reason: %v", reason)
	}
	all := append(first, rest...)
	if len(all) != 3 {
		t.Fatalf("paged union: %v + %v", first, rest)
	}
}

func TestScanLimitHaltsPlan(t *testing.T) {
	env := newPlanEnv(t)
	q := query.RecordQuery{RecordTypes: []string{"Person"}}
	h := New(env.md, Config{})
	p, err := h.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	lim := cursor.NewLimiter(3, 0, timeZero(), nil)
	ids, reason, cont := env.run(t, p, ExecuteOptions{Limiter: lim})
	if reason != cursor.ScanLimitReached {
		t.Fatalf("reason: %v (ids %v)", reason, ids)
	}
	if len(cont) == 0 {
		t.Fatal("scan-limited plan must return a continuation")
	}
	rest, reason2, _ := env.run(t, p, ExecuteOptions{Continuation: cont})
	if reason2 != cursor.SourceExhausted || len(ids)+len(rest) != 6 {
		t.Fatalf("resume after scan limit: %v + %v (%v)", ids, rest, reason2)
	}
}

func timeZero() (t time.Time) { return }

// countedSource is a cursor that holds n values in hand, as Ready counts them.
type countedSource struct {
	cursor.Func[int]
	n int
}

func (s countedSource) Ready() int { return s.n }

// TestWrappersForwardReady: plan's stats and row-in wrappers deliver a value
// per source value, so they report their source's count, Ended and 0 too.
func TestWrappersForwardReady(t *testing.T) {
	for _, n := range []int{0, 7, cursor.Ended} {
		var src cursor.Cursor[int] = countedSource{n: n}
		for name, c := range map[string]cursor.Cursor[int]{
			"statsCursor": observe(&obs.PlanStats{}, nil, false, src),
			"rowInCursor": observeIn(&obs.PlanStats{}, src),
		} {
			if got := c.Ready(); got != n {
				t.Errorf("%s over a source counting %d reports %d", name, n, got)
			}
		}
	}
}
