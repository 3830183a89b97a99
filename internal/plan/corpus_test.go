package plan

import (
	"testing"

	"recordlayer/internal/query"
)

// corpusQuery is one query of the planner's corpus and the plans it pins.
type corpusQuery struct {
	name string
	q    query.RecordQuery
	off  string // Plan.String() with PreferIndexIntersection off
	on   string // with it on, where that differs
}

// planCorpus is one query of each shape the planner distinguishes on the
// planSchema indexes.
func planCorpus() []corpusQuery {
	person := func(filter query.Component) query.RecordQuery {
		return query.RecordQuery{RecordTypes: []string{"Person"}, Filter: filter}
	}
	return []corpusQuery{
		{name: "equality", q: person(query.Field("name").Equals("bob")),
			off: `Index(by_name [("bob") - ("bob")])`},
		{name: "one-sided range", q: person(query.Field("name").GreaterThan("c")),
			off: `Index(by_name (("c") - ,>)`},
		{name: "two-sided range", q: person(query.And(
			query.Field("name").GreaterOrEqual("b"), query.Field("name").LessThan("e"))),
			off: `Index(by_name [("b") - ("e")))`},
		{name: "prefix column plus range", q: person(query.And(
			query.Field("city").Equals("tokyo"), query.Field("age").LessOrEqual(41))),
			off: `Index(by_city_age [("tokyo") - ("tokyo", 41)])`},
		{name: "two-way AND across indexes", q: person(query.And(
			query.Field("name").Equals("alice"), query.Field("tags").OneOfThem().Equals("chess"))),
			off: `Filter(any(tags) = chess | Index(by_name [("alice") - ("alice")]))`,
			on:  `Distinct(Intersection(Index(by_name [("alice") - ("alice")]) ∩ Index(by_tag [("chess") - ("chess")])))`},
		{name: "three-way AND across indexes", q: person(query.And(
			query.Field("name").Equals("bob"), query.Field("city").Equals("paris"),
			query.Field("age").Equals(28))),
			off: `Filter(name = bob | Index(by_city_age [("paris", 28) - ("paris", 28)]))`,
			on:  `Intersection(Index(by_city_age [("paris", 28) - ("paris", 28)]) ∩ Index(by_name [("bob") - ("bob")]))`},
		{name: "OR on one index", q: person(query.Or(
			query.Field("name").Equals("bob"), query.Field("name").Equals("erin"))),
			off: `Union(Index(by_name [("bob") - ("bob")]) ∪ Index(by_name [("erin") - ("erin")]))`},
		{name: "OR across indexes", q: person(query.Or(
			query.Field("name").Equals("alice"), query.Field("city").Equals("tokyo"))),
			off: `UnorderedUnion(Index(by_name [("alice") - ("alice")]) ∪ Index(by_city_age [("tokyo") - ("tokyo")]))`},
		{name: "fan-out", q: person(query.Field("tags").OneOfThem().Equals("eng")),
			off: `Distinct(Index(by_tag [("eng") - ("eng")]))`},
		{name: "string prefix", q: person(query.Field("name").BeginsWith("a")),
			off: `Index(by_name [("a") - ("b")))`},
		{name: "projected equality", q: person(query.Field("name").Equals("bob")).Select("name"),
			off: `Covering(Index(by_name [("bob") - ("bob")]))`},
		{name: "projected unfiltered", q: person(nil).Select("name"),
			off: `Covering(Index(by_name <, - ,>))`},
		{name: "unfiltered", q: person(nil),
			off: `Scan(Person)`},
	}
}

// TestPlanCorpus pins the planner's choice for each query shape on the
// planSchema indexes, with PreferIndexIntersection off and on. A change to the
// matching or tie-breaking rules shows up here as a changed plan string.
func TestPlanCorpus(t *testing.T) {
	md := planSchema(t)
	for _, tc := range planCorpus() {
		for _, prefer := range []bool{false, true} {
			want := tc.off
			if prefer && tc.on != "" {
				want = tc.on
			}
			p, err := New(md, Config{PreferIndexIntersection: prefer}).Plan(tc.q)
			if err != nil {
				t.Errorf("%s (intersection=%v): %v", tc.name, prefer, err)
				continue
			}
			if got := p.String(); got != want {
				t.Errorf("%s (intersection=%v):\n got %s\nwant %s", tc.name, prefer, got, want)
			}
		}
	}
}
