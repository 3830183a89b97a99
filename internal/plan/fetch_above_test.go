package plan

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"recordlayer/internal/core"
	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// recordMerge is the merge execution this package had before merges moved onto
// index entries, kept as the reference the entry merges are checked against:
// every child fetches its own records and the merge, or the seen-set, runs on
// the records' primary keys.
type recordMerge struct {
	kind     string // "union", "unordered", "intersection" or "distinct"
	children []Plan
}

func (p recordMerge) Execute(s *core.Store, opts ExecuteOptions) (cursor.Cursor[*core.StoredRecord], error) {
	builders := childBuilders(s, p.children, opts)
	switch p.kind {
	case "union":
		return cursor.Union(opts.Continuation, pkOf, builders...)
	case "intersection":
		return cursor.Intersection(opts.Continuation, pkOf, builders...)
	case "unordered":
		return unionOf(opts.Continuation, false, pkOf, builders)
	}
	return cursor.Filter(builders[0](opts.Continuation), unseen(pkOf)), nil
}
func (p recordMerge) OrderedByPrimaryKey() bool { return p.kind != "unordered" }
func (p recordMerge) String() string            { return p.kind }
func (p recordMerge) Label() string             { return p.kind }

func itemDesc() *message.Descriptor {
	return message.MustDescriptor("Item",
		message.Field("id", 1, message.TypeInt64),
		message.Field("a", 2, message.TypeInt64),
		message.Field("b", 3, message.TypeInt64),
		message.Field("c", 4, message.TypeInt64),
		message.RepeatedField("tags", 5, message.TypeInt64),
	)
}

// seededItems is a store of up to 40 Items whose a, b, c are drawn from three
// values — so a fully bound scan returns about a third of them and any two
// overlap — and whose tags fan out to zero to three entries.
func seededItems(t testing.TB, rng *rand.Rand) *planEnv {
	t.Helper()
	field := func(name string) *metadata.Index {
		return &metadata.Index{Name: "by_" + name, Type: metadata.IndexValue, Expression: keyexpr.Field(name)}
	}
	env := &planEnv{db: fdb.Open(nil), sp: subspace.FromTuple(tuple.Tuple{"items"})}
	env.md = metadata.NewBuilder(1).
		AddRecordType(itemDesc(), keyexpr.Field("id")).
		AddIndex(field("a"), "Item").AddIndex(field("b"), "Item").AddIndex(field("c"), "Item").
		AddIndex(&metadata.Index{Name: "by_tag", Type: metadata.IndexValue,
			Expression: keyexpr.FieldFan("tags", keyexpr.FanOut)}, "Item").
		MustBuild()
	_, err := env.db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		s, err := core.Open(tr, env.md, env.sp, core.OpenOptions{CreateIfMissing: true})
		if err != nil {
			return nil, err
		}
		for n := rng.Intn(41); n > 0; n-- {
			m := message.New(itemDesc()).MustSet("id", int64(rng.Intn(200))).
				MustSet("a", int64(rng.Intn(3))).MustSet("b", int64(rng.Intn(3))).MustSet("c", int64(rng.Intn(3)))
			for _, tag := range rng.Perm(4)[:rng.Intn(4)] {
				m.MustAdd("tags", int64(tag))
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

// execution is everything a consumer can see of one execution: the rows with
// the continuation after each, and the halt.
type execution struct {
	ids    []int64
	conts  [][]byte
	reason cursor.NoNextReason
	cont   []byte
}

func (e execution) String() string {
	return fmt.Sprintf("%v %x halted %v at %x", e.ids, e.conts, e.reason, e.cont)
}

func (env *planEnv) execute(t testing.TB, p Plan, opts ExecuteOptions, scanLimit int) execution {
	t.Helper()
	var e execution
	_, err := env.db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		s, err := core.Open(tr, env.md, env.sp, core.OpenOptions{})
		if err != nil {
			return nil, err
		}
		if scanLimit > 0 {
			opts.Limiter = cursor.NewLimiter(scanLimit, 0, time.Time{}, nil)
		}
		c, err := p.Execute(s, opts)
		if err != nil {
			return nil, err
		}
		e = execution{}
		for {
			r, err := c.Next()
			if err != nil {
				return nil, err
			}
			if !r.OK {
				e.reason, e.cont = r.Reason, r.Continuation
				return nil, nil
			}
			id, _ := r.Value.Message.Get("id")
			e.ids, e.conts = append(e.ids, id.(int64)), append(e.conts, r.Continuation)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestFetchAboveMergeMatchesRecordMerge: over 250 seeded stores, the union and
// the intersection of two or three fully bound index scans, the unordered
// union of two scans and the de-duplicated fan-out scan return, merged on
// index entries with one fetch above, exactly what the record-level merge
// returns — the same ids in the same order, byte-identical continuations after
// every row, the same halt — drained in one go, resumed at every row boundary,
// and paged under a scan-record limit, at PipelineDepth 1 and 8.
//
// Under a scan-record limit the record merge is the reference at depth 1 only:
// there each child's own pipeline ran up to depth-1 entries ahead of the merge
// and spent the shared budget on entries the merge had not asked for, so where
// the page ended depended on the depth. The entry merge pulls a child only
// when the merge needs its next entry, at every depth.
func TestFetchAboveMergeMatchesRecordMerge(t *testing.T) {
	for seed := int64(1); seed <= 250; seed++ {
		rng := rand.New(rand.NewSource(seed))
		env := seededItems(t, rng)
		eq := func(name string) Plan {
			v := tuple.Tuple{int64(rng.Intn(3))}
			return &IndexScanPlan{IndexName: "by_" + name, FullyBound: true,
				Range: index.TupleRange{Low: v, High: v, LowInclusive: true, HighInclusive: true}}
		}
		scans := []Plan{eq("a"), eq("b"), eq("c")}[:2+rng.Intn(2)]
		fanOut := &IndexScanPlan{IndexName: "by_tag", FanOut: true,
			Range: index.TupleRange{Low: tuple.Tuple{int64(rng.Intn(3))}, LowInclusive: true}}
		ranged := &IndexScanPlan{IndexName: "by_a", Range: index.TupleRange{Low: tuple.Tuple{int64(1)}, LowInclusive: true}}
		cases := []struct {
			plan Plan
			ref  recordMerge
		}{
			{&UnionPlan{Children: scans}, recordMerge{"union", scans}},
			{&IntersectionPlan{Children: scans}, recordMerge{"intersection", scans}},
			{&UnionPlan{Children: []Plan{ranged, scans[1]}}, recordMerge{"unordered", []Plan{ranged, scans[1]}}},
			{&DistinctPlan{Child: fanOut}, recordMerge{"distinct", []Plan{fanOut}}},
		}
		scanLimit := 3 + rng.Intn(10) // a merge step needs a head from every child
		for _, tc := range cases {
			for _, depth := range []int{1, 8} {
				what := fmt.Sprintf("seed %d, %s at depth %d", seed, tc.plan, depth)
				same := func(how string, got, want execution) {
					t.Helper()
					if got.String() != want.String() {
						t.Fatalf("%s, %s:\n got %s\nwant %s", what, how, got, want)
					}
				}
				opts := ExecuteOptions{PipelineDepth: depth}
				whole := env.execute(t, tc.ref, opts, 0)
				same("drained", env.execute(t, tc.plan, opts, 0), whole)
				for i, cont := range whole.conts {
					opts.Continuation = cont
					same(fmt.Sprintf("resumed after row %d", i+1),
						env.execute(t, tc.plan, opts, 0), env.execute(t, tc.ref, opts, 0))
				}
				opts.Continuation = nil
				for page := 1; ; page++ {
					want := env.execute(t, tc.ref, ExecuteOptions{PipelineDepth: 1, Continuation: opts.Continuation}, scanLimit)
					same(fmt.Sprintf("page %d under ScanRecordLimit %d", page, scanLimit),
						env.execute(t, tc.plan, opts, scanLimit), want)
					if want.reason == cursor.SourceExhausted {
						break
					}
					if page > 200 || (len(want.ids) == 0 && bytes.Equal(want.cont, opts.Continuation)) {
						t.Fatalf("%s: paging under ScanRecordLimit %d makes no progress", what, scanLimit)
					}
					opts.Continuation = want.cont
				}
			}
		}
	}
}

// TestDistinctBeforeFetchReadsEachRecordOnce: the seen-set of a Distinct over a
// fan-out scan, and of an unordered union of scans, is keyed on the primary
// key in the index entry, so a record that k entries point at is fetched once
// where the seen-set above the fetch read it k times.
func TestDistinctBeforeFetchReadsEachRecordOnce(t *testing.T) {
	env := newPlanEnv(t)
	// keysRead drains p and returns its ids and the keys the execution read.
	keysRead := func(p Plan) (ids []int64, keys int) {
		_, err := env.db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
			s, err := core.Open(tr, env.md, env.sp, core.OpenOptions{})
			if err != nil {
				return nil, err
			}
			before := tr.Stats().KeysRead
			c, err := p.Execute(s, ExecuteOptions{PipelineDepth: 8})
			if err != nil {
				return nil, err
			}
			recs, _, _, err := cursor.Collect(c)
			ids = nil
			for _, rec := range recs {
				id, _ := rec.Message.Get("id")
				ids = append(ids, id.(int64))
			}
			keys = tr.Stats().KeysRead - before
			return nil, err
		})
		if err != nil {
			t.Fatal(err)
		}
		return ids, keys
	}
	eq := func(ix string, v ...interface{}) *IndexScanPlan {
		return &IndexScanPlan{IndexName: ix, Range: index.TupleRange{
			Low: tuple.Tuple(v), High: tuple.Tuple(v), LowInclusive: true, HighInclusive: true}}
	}
	_, one := keysRead(eq("by_name", "alice"))
	perRecord := one - 1 // what one fetch reads, beside the entry

	// Eight tag entries point at five people; alice is reached by name and
	// again as one of the three in paris.
	allTags := &IndexScanPlan{IndexName: "by_tag", FanOut: true}
	scans := []Plan{eq("by_name", "alice"), eq("by_city_age", "paris")}
	for _, tc := range []struct {
		plan             Plan
		ref              recordMerge
		entries, records int
	}{
		{&DistinctPlan{Child: allTags}, recordMerge{"distinct", []Plan{allTags}}, 8, 5},
		{&UnionPlan{Children: scans}, recordMerge{"unordered", scans}, 4, 3},
	} {
		ids, keys := keysRead(tc.plan)
		refIDs, refKeys := keysRead(tc.ref)
		if fmt.Sprint(ids) != fmt.Sprint(refIDs) || len(ids) != tc.records {
			t.Errorf("%s: ids %v, want the record-level seen-set's %v, %d of them", tc.plan, ids, refIDs, tc.records)
		}
		if want := tc.entries + tc.records*perRecord; keys != want {
			t.Errorf("%s: read %d keys, want %d entries + %d records x %d", tc.plan, keys, tc.entries, tc.records, perRecord)
		}
		if want := tc.entries + tc.entries*perRecord; refKeys != want {
			t.Errorf("%s: the reference read %d keys, want a fetch per entry, %d", tc.plan, refKeys, want)
		}
	}
}
