package query

import (
	"fmt"
	"testing"

	"recordlayer/internal/message"
)

func testMsg(t testing.TB) *message.Message {
	t.Helper()
	addr := message.MustDescriptor("Addr",
		message.Field("city", 1, message.TypeString),
		message.Field("zip", 2, message.TypeInt64),
	)
	d := message.MustDescriptor("Person",
		message.Field("id", 1, message.TypeInt64),
		message.Field("name", 2, message.TypeString),
		message.Field("age", 3, message.TypeInt64),
		message.RepeatedField("tags", 4, message.TypeString),
		message.MessageField("addr", 5, addr),
		message.Field("height", 6, message.TypeDouble),
		message.Field("active", 7, message.TypeBool),
	)
	a := message.New(addr).MustSet("city", "amsterdam").MustSet("zip", int64(1012))
	return message.New(d).
		MustSet("id", int64(7)).
		MustSet("name", "mira").
		MustSet("age", int64(30)).
		MustAdd("tags", "alpha").
		MustAdd("tags", "beta").
		MustSet("addr", a).
		MustSet("height", 1.7).
		MustSet("active", true)
}

func ev(t *testing.T, c Component, m *message.Message) bool {
	t.Helper()
	ok, err := c.Eval(m)
	if err != nil {
		t.Fatalf("%s: %v", c, err)
	}
	return ok
}

func TestFieldComparisons(t *testing.T) {
	m := testMsg(t)
	cases := []struct {
		c    Component
		want bool
	}{
		{Field("name").Equals("mira"), true},
		{Field("name").Equals("nope"), false},
		{Field("name").NotEquals("nope"), true},
		{Field("age").GreaterThan(29), true},
		{Field("age").GreaterThan(30), false},
		{Field("age").GreaterOrEqual(30), true},
		{Field("age").LessThan(31), true},
		{Field("age").LessOrEqual(29), false},
		{Field("name").BeginsWith("mi"), true},
		{Field("name").BeginsWith("zz"), false},
		{Field("height").GreaterThan(1.6), true},
		{Field("active").Equals(true), true},
		{Field("age").OneOf(10, 20, 30), true},
		{Field("age").OneOf(10, 20), false},
	}
	for _, tc := range cases {
		if got := ev(t, tc.c, m); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.c, got, tc.want)
		}
	}
}

func TestNullSemantics(t *testing.T) {
	m := testMsg(t)
	empty := message.New(m.Descriptor())
	if !ev(t, Field("name").Null(), empty) {
		t.Error("unset field should be null")
	}
	if ev(t, Field("name").Null(), m) {
		t.Error("set field reported null")
	}
	if !ev(t, Field("name").NotNullC(), m) {
		t.Error("set field reported not-not-null")
	}
	// Comparison against an unset field is false.
	if ev(t, Field("name").Equals("mira"), empty) {
		t.Error("comparison against unset field succeeded")
	}
}

func TestNestedFields(t *testing.T) {
	m := testMsg(t)
	if !ev(t, Field("addr").Nest("city").Equals("amsterdam"), m) {
		t.Error("nested equality failed")
	}
	if !ev(t, Field("addr").Nest("zip").LessThan(2000), m) {
		t.Error("nested comparison failed")
	}
	// Unset nested message: predicate is false, null check is... no values.
	empty := message.New(m.Descriptor())
	if ev(t, Field("addr").Nest("city").Equals("amsterdam"), empty) {
		t.Error("nested through unset message matched")
	}
}

func TestRepeatedOneOfThem(t *testing.T) {
	m := testMsg(t)
	if !ev(t, Field("tags").OneOfThem().Equals("beta"), m) {
		t.Error("one-of-them equality failed")
	}
	if ev(t, Field("tags").OneOfThem().Equals("gamma"), m) {
		t.Error("one-of-them phantom match")
	}
	// Repeated without OneOfThem is an error.
	if _, err := Field("tags").Equals("beta").Eval(m); err == nil {
		t.Error("repeated field without OneOfThem accepted")
	}
}

func TestBooleanOperators(t *testing.T) {
	m := testMsg(t)
	c := And(Field("name").Equals("mira"), Field("age").GreaterThan(20))
	if !ev(t, c, m) {
		t.Error("AND failed")
	}
	c = And(Field("name").Equals("mira"), Field("age").GreaterThan(99))
	if ev(t, c, m) {
		t.Error("AND with false conjunct matched")
	}
	c = Or(Field("name").Equals("zz"), Field("age").Equals(30))
	if !ev(t, c, m) {
		t.Error("OR failed")
	}
	if ev(t, Not(Field("name").Equals("mira")), m) {
		t.Error("NOT failed")
	}
	// Flattening.
	a := And(And(Field("age").GreaterThan(1), Field("age").LessThan(99)), Field("active").Equals(true))
	if len(a.(*AndComponent).Children) != 3 {
		t.Errorf("AND not flattened: %s", a)
	}
	o := Or(Or(Field("age").Equals(1), Field("age").Equals(2)), Field("age").Equals(30))
	if len(o.(*OrComponent).Children) != 3 {
		t.Errorf("OR not flattened: %s", o)
	}
}

func TestTypeMismatchErrors(t *testing.T) {
	m := testMsg(t)
	if _, err := Field("age").Equals("str").Eval(m); err == nil {
		t.Error("type mismatch accepted")
	}
	if _, err := Field("missing").Equals(1).Eval(m); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Field("name").Nest("x").Equals(1).Eval(m); err == nil {
		t.Error("nesting through scalar accepted")
	}
}

func TestQueryString(t *testing.T) {
	q := RecordQuery{
		RecordTypes: []string{"Person"},
		Filter:      And(Field("age").GreaterThan(18), Field("name").BeginsWith("m")),
	}
	s := q.String()
	if s == "" || len(s) < 10 {
		t.Errorf("query string: %q", s)
	}
}

// TestFieldEvalAllocs: a field predicate on a path with no repeated field
// allocates nothing, set or unset, top-level or nested, whatever the
// comparison, and nor does its shape evaluated with its bindings; a scan's
// residual filter runs one per record it reads.
func TestFieldEvalAllocs(t *testing.T) {
	m := testMsg(t)
	empty := message.New(m.Descriptor())
	for _, c := range []Component{
		Field("age").GreaterOrEqual(18),
		Field("name").Equals("mira"),
		Field("name").BeginsWith("mi"),
		Field("age").OneOf(10, 20, 30),
		Field("name").Null(),
		Field("addr").Nest("zip").LessThan(2000),
		And(Field("age").GreaterThan(20), Not(Field("active").Equals(false))),
	} {
		for _, msg := range []*message.Message{m, empty} {
			if n := testing.AllocsPerRun(100, func() {
				if _, err := c.Eval(msg); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%s: %v allocations per Eval, want 0", c, n)
			}
			shape, b := RecordQuery{Filter: c}.Shape()
			if n := testing.AllocsPerRun(100, func() {
				if _, err := EvalBound(shape.Filter, msg, b); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%s: %v allocations per EvalBound of its shape, want 0", c, n)
			}
		}
	}
}

// TestShapeRoundTrips: a query's shape key is its shape's rendering, "?" in
// every slot; AppendShape and Shape number the slots alike; and the shape
// with the query's bindings renders and evaluates as the query does. Queries
// whose literals render alike share a shape and keep their own bindings.
func TestShapeRoundTrips(t *testing.T) {
	m := testMsg(t)
	empty := message.New(m.Descriptor())
	for _, c := range []Component{
		Field("age").GreaterOrEqual(18),
		Field("name").Equals(int64(7)),
		Field("name").BeginsWith(""),
		Field("tags").OneOfThem().OneOf("a b"),
		Field("tags").OneOfThem().OneOf("a", "beta"),
		Field("name").Null(),
		Field("addr").Nest("zip").LessThan(2000),
		And(Field("age").GreaterThan(20), Not(Field("active").Equals(false)),
			Or(Field("name").NotNullC(), Field("id").OneOf(7, 8))),
	} {
		q := RecordQuery{RecordTypes: []string{"Person"}, Filter: c}.Select("name")
		key, b := q.AppendShape(nil, nil)
		shape, sb := q.Shape()
		if string(key) != shape.String() {
			t.Errorf("%s: key %s, shape renders %s", c, key, shape)
		}
		if fmt.Sprintf("%#v", b) != fmt.Sprintf("%#v", sb) {
			t.Errorf("%s: AppendShape binds %#v, Shape %#v", c, b, sb)
		}
		if got := Format(shape.Filter, b); got != c.String() {
			t.Errorf("%s: the bound shape renders %s", c, got)
		}
		for _, msg := range []*message.Message{m, empty} {
			want, wantErr := c.Eval(msg)
			got, err := EvalBound(shape.Filter, msg, b)
			if got != want || (err == nil) != (wantErr == nil) {
				t.Errorf("%s on %v: the bound shape gives %v, %v; the query %v, %v", c, msg, got, err, want, wantErr)
			}
		}
	}
	k1, b1 := RecordQuery{Filter: Field("tags").OneOfThem().OneOf("a b")}.AppendShape(nil, nil)
	k2, b2 := RecordQuery{Filter: Field("tags").OneOfThem().OneOf("a", "b")}.AppendShape(nil, nil)
	if string(k1) != string(k2) || len(b1[0].([]interface{})) != 1 || len(b2[0].([]interface{})) != 2 {
		t.Errorf("OneOf shapes %s, %s bind %#v, %#v", k1, k2, b1, b2)
	}
}
