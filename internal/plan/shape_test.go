package plan

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"recordlayer/internal/core"
	"recordlayer/internal/cursor"
	"recordlayer/internal/query"
)

// TestWarmShapeAnswersAsCold: a shape's plan, planned from one query's
// literals and bound to another's the way the façade's plan cache binds them
// (RecordQuery.AppendShape), must answer as the other query planned cold: the
// same rendering, and the same rows, keys read and continuations, drained and
// paged one row at a time. Every corpus query is drawn with seeded literals,
// among them the prefixes with no successor ("" and "\xff"), one whose
// successor carries ("a\xff"), and operands of the wrong type.
func TestWarmShapeAnswersAsCold(t *testing.T) {
	env := newPlanEnv(t)
	r := rand.New(rand.NewSource(1))
	covered := map[string]int{}
	for _, tc := range planCorpus() {
		shape, _ := tc.q.Shape()
		for _, prefer := range []bool{false, true} {
			planner := New(env.md, Config{PreferIndexIntersection: prefer})
			for trial := 0; trial < 12; trial++ {
				warmQ := bindQuery(shape, drawLiterals(r, shape, trial+1, covered))
				q := bindQuery(shape, drawLiterals(r, shape, trial, covered))
				warmKey, _ := warmQ.AppendShape(nil, nil)
				key, b := q.AppendShape(nil, nil)
				if string(warmKey) != string(key) {
					t.Fatalf("%s: shape keys differ:\n%s\n%s", tc.name, warmKey, key)
				}
				warmShape, _ := warmQ.Shape()
				warmPlan, err := planner.PlanShape(warmShape)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				warm := Bind(warmPlan, b)
				cold, err := planner.Plan(q)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				what := fmt.Sprintf("%s (intersection=%v) %s after %s", tc.name, prefer, q, warmQ)
				if warm.String() != cold.String() {
					t.Fatalf("%s: warm plan %s, cold %s", what, warm, cold)
				}
				// The plan answers what its filter selects, whenever the filter
				// can be evaluated at all (a wrong-typed operand fails it).
				var ref []shapePage
				if q.Filter != nil {
					ref = env.pages(t, &FilterPlan{Child: &FullScanPlan{Types: q.RecordTypes}, Filter: q.Filter}, 0)
				}
				if ref != nil && ref[0].Err == "" {
					if got, want := sortedIDs(env.pages(t, cold, 0)[0].IDs), sortedIDs(ref[0].IDs); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: plan %s returned %v, the filter selects %v", what, cold, got, want)
					}
					covered["checked against the filter"]++
				}
				for _, rows := range []int{0, 1} {
					got, want := env.pages(t, warm, rows), env.pages(t, cold, rows)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, %d-row pages:\n got %v\nwant %v", what, rows, got, want)
					}
					if len(want) > 1 {
						covered["resumed"]++
					}
				}
			}
		}
	}
	for _, c := range []string{`prefix ""`, `prefix "\xff"`, `prefix "a\xff"`, "wrong type", "resumed", "checked against the filter"} {
		if covered[c] == 0 {
			t.Errorf("no %s drawn: %v", c, covered)
		}
	}
}

func sortedIDs(ids []int64) []int64 {
	out := append([]int64{}, ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// shapePage is one page of a plan's execution, as the warm and cold plans
// must agree on it.
type shapePage struct {
	IDs      []int64
	KeysRead int
	Reason   cursor.NoNextReason
	Cont     []byte
	Err      string
}

// pages executes p to the end in pages of rows rows (0: one page), each in a
// transaction of its own resumed from the last page's continuation.
func (env *planEnv) pages(t *testing.T, p Plan, rows int) []shapePage {
	t.Helper()
	var out []shapePage
	var cont []byte
	for len(out) < 20 {
		tr := env.db.CreateTransaction()
		s, err := core.Open(tr, env.md, env.sp, core.OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var pg shapePage
		c, err := p.Execute(s, ExecuteOptions{Continuation: cont})
		if err != nil {
			pg.Err = err.Error()
			return append(out, pg)
		}
		recs, reason, next, err := cursor.Collect(cursor.Limit(c, rows))
		for _, rec := range recs {
			id, _ := rec.Message.Get("id")
			pg.IDs = append(pg.IDs, id.(int64))
		}
		pg.KeysRead, pg.Reason, pg.Cont = tr.Stats().KeysRead, reason, next
		if err != nil {
			pg.Err = err.Error()
		}
		out = append(out, pg)
		if err != nil || reason == cursor.SourceExhausted || next == nil {
			return out
		}
		cont = next
	}
	t.Fatalf("%s: no end after %d pages", p, len(out))
	return nil
}

// slotOps lists the comparison of each slot of a shape's filter, in slot
// order.
func slotOps(c query.Component, ops []query.Comparison) []query.Comparison {
	switch x := c.(type) {
	case *query.FieldComponent:
		if _, ok := x.Operand.(query.Param); ok {
			ops = append(ops, x.Op)
		}
	case *query.AndComponent:
		for _, ch := range x.Children {
			ops = slotOps(ch, ops)
		}
	case *query.OrComponent:
		for _, ch := range x.Children {
			ops = slotOps(ch, ops)
		}
	case *query.NotComponent:
		ops = slotOps(x.Child, ops)
	}
	return ops
}

// drawLiterals draws a binding for each slot of shape: a prefix for a
// StartsWith, cycling through the three edge cases by trial; otherwise a
// name, city, tag or age of the data set, or a quarter of the time an operand
// of the other type.
func drawLiterals(r *rand.Rand, shape query.RecordQuery, trial int, covered map[string]int) query.Bindings {
	strs := []string{"alice", "bob", "carol", "erin", "paris", "tokyo", "berlin", "eng", "chess", "art", "b", "e", "", "\xff"}
	var b query.Bindings
	for _, op := range slotOps(shape.Filter, nil) {
		if op == query.StartsWith {
			p := []string{"", "\xff", "a\xff", "a", "c", "fr"}[trial%6]
			covered[fmt.Sprintf("prefix %q", p)]++
			b = append(b, p)
			continue
		}
		var v interface{} = strs[r.Intn(len(strs))]
		if r.Intn(4) == 0 {
			v = int64(20 + r.Intn(40))
			covered["wrong type"]++
		}
		b = append(b, v)
	}
	return b
}

// bindQuery is shape with its slots replaced by b's literals: the query a
// client would have written.
func bindQuery(shape query.RecordQuery, b query.Bindings) query.RecordQuery {
	var bind func(c query.Component) query.Component
	bindAll := func(children []query.Component) []query.Component {
		out := make([]query.Component, len(children))
		for i, ch := range children {
			out[i] = bind(ch)
		}
		return out
	}
	bind = func(c query.Component) query.Component {
		switch x := c.(type) {
		case *query.FieldComponent:
			p, ok := x.Operand.(query.Param)
			if !ok {
				return x
			}
			y := *x
			if y.Operand = b[p]; x.Op == query.In {
				y.Operand, y.List = nil, b[p].([]interface{})
			}
			return &y
		case *query.AndComponent:
			return &query.AndComponent{Children: bindAll(x.Children)}
		case *query.OrComponent:
			return &query.OrComponent{Children: bindAll(x.Children)}
		case *query.NotComponent:
			return &query.NotComponent{Child: bind(x.Child)}
		}
		return c
	}
	if shape.Filter != nil {
		shape.Filter = bind(shape.Filter)
	}
	return shape
}
