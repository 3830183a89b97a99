package keyexpr

import (
	"testing"

	"recordlayer/internal/message"
	"recordlayer/internal/tuple"
)

// figure4 builds the paper's Appendix A example record.
func figure4(t testing.TB) *Context {
	t.Helper()
	nested := message.MustDescriptor("Example.Nested",
		message.Field("a", 1, message.TypeInt64),
		message.Field("b", 2, message.TypeString),
	)
	ex := message.MustDescriptor("Example",
		message.Field("id", 1, message.TypeInt64),
		message.RepeatedField("elem", 2, message.TypeString),
		message.MessageField("parent", 3, nested),
	)
	p := message.New(nested).MustSet("a", int64(1415)).MustSet("b", "child")
	m := message.New(ex).
		MustSet("id", int64(1066)).
		MustAdd("elem", "first").
		MustAdd("elem", "second").
		MustAdd("elem", "third").
		MustSet("parent", p)
	return &Context{Message: m, RecordTypeKey: "Example"}
}

func eval(t *testing.T, e Expression, ctx *Context) []tuple.Tuple {
	t.Helper()
	ts, err := e.Evaluate(ctx)
	if err != nil {
		t.Fatalf("%s: %v", e, err)
	}
	for _, tt := range ts {
		if len(tt) != e.ColumnCount() {
			t.Fatalf("%s: tuple %v has %d columns, want %d", e, tt, len(tt), e.ColumnCount())
		}
	}
	return ts
}

// TestPaperExamples verifies every worked example from Appendix A.
func TestPaperExamples(t *testing.T) {
	ctx := figure4(t)

	// field("id") yields (1066).
	ts := eval(t, Field("id"), ctx)
	if len(ts) != 1 || !tuple.Equal(ts[0], tuple.Tuple{int64(1066)}) {
		t.Fatalf("field(id): %v", ts)
	}

	// field("parent").nest("a") yields (1415).
	ts = eval(t, Nest("parent", Field("a")), ctx)
	if len(ts) != 1 || !tuple.Equal(ts[0], tuple.Tuple{int64(1415)}) {
		t.Fatalf("nest(parent,a): %v", ts)
	}

	// field("elem", Concatenate) yields (["first","second","third"]).
	ts = eval(t, FieldFan("elem", FanConcatenate), ctx)
	want := tuple.Tuple{tuple.Tuple{"first", "second", "third"}}
	if len(ts) != 1 || !tuple.Equal(ts[0], want) {
		t.Fatalf("concatenate: %v", ts)
	}

	// field("elem", Fanout) yields three tuples.
	ts = eval(t, FieldFan("elem", FanOut), ctx)
	if len(ts) != 3 || !tuple.Equal(ts[0], tuple.Tuple{"first"}) ||
		!tuple.Equal(ts[1], tuple.Tuple{"second"}) || !tuple.Equal(ts[2], tuple.Tuple{"third"}) {
		t.Fatalf("fanout: %v", ts)
	}

	// concat(field("id"), field("parent").nest("b")) yields (1066, "child").
	ts = eval(t, Then(Field("id"), Nest("parent", Field("b"))), ctx)
	if len(ts) != 1 || !tuple.Equal(ts[0], tuple.Tuple{int64(1066), "child"}) {
		t.Fatalf("concat: %v", ts)
	}
}

func TestCartesianProduct(t *testing.T) {
	ctx := figure4(t)
	// Compound of a fanout and a scalar: one tuple per repeated element.
	e := Then(FieldFan("elem", FanOut), Field("id"))
	ts := eval(t, e, ctx)
	if len(ts) != 3 {
		t.Fatalf("product size: %d", len(ts))
	}
	if !tuple.Equal(ts[1], tuple.Tuple{"second", int64(1066)}) {
		t.Fatalf("product[1]: %v", ts[1])
	}
}

func TestUnsetFieldsYieldNull(t *testing.T) {
	ctx := figure4(t)
	ex := ctx.Message.Descriptor()
	ctx2 := &Context{Message: message.New(ex), RecordTypeKey: "Example"}

	ts := eval(t, Field("id"), ctx2)
	if len(ts) != 1 || ts[0][0] != nil {
		t.Fatalf("unset scalar: %v", ts)
	}
	// Unset repeated with fanout: no entries at all.
	ts = eval(t, FieldFan("elem", FanOut), ctx2)
	if len(ts) != 0 {
		t.Fatalf("unset fanout: %v", ts)
	}
	// Nest through an unset message: null columns.
	ts = eval(t, Nest("parent", Field("a")), ctx2)
	if len(ts) != 1 || ts[0][0] != nil {
		t.Fatalf("nest through unset: %v", ts)
	}
}

// TestNestedFanOutUnderUnsetParent: a fan-out nest yields no entries when its
// parent is unset, as evalField(nil, FanOut) does, and as the nest does when
// the parent is set and the repeated field empty (the Java layer yields none
// too). It once yielded one entry, (null), for the unset parent.
func TestNestedFanOutUnderUnsetParent(t *testing.T) {
	inner := message.MustDescriptor("C", message.Field("x", 1, message.TypeInt64))
	b := message.MustDescriptor("B", message.RepeatedMessageField("cs", 1, inner))
	rec := message.MustDescriptor("R", message.Field("id", 1, message.TypeInt64), message.MessageField("b", 2, b))
	e := Nest("b", NestFan("cs", FanOut, Field("x")))
	for name, m := range map[string]*message.Message{
		"b unset":          message.New(rec).MustSet("id", int64(1)),
		"b set, cs empty":  message.New(rec).MustSet("id", int64(1)).MustSet("b", message.New(b)),
		"no record at all": nil,
	} {
		ts, err := e.Evaluate(&Context{Message: m})
		if err != nil || len(ts) != 0 {
			t.Errorf("%s: %s yields %v, %v; want no entries", name, e, ts, err)
		}
	}
}

func TestFanTypeValidation(t *testing.T) {
	ctx := figure4(t)
	if _, err := FieldFan("elem", FanScalar).Evaluate(ctx); err == nil {
		t.Fatal("scalar fan over repeated field should fail")
	}
	if _, err := FieldFan("id", FanOut).Evaluate(ctx); err == nil {
		t.Fatal("fanout over scalar field should fail")
	}
	if _, err := Field("missing").Evaluate(ctx); err == nil {
		t.Fatal("unknown field should fail")
	}
	if _, err := Field("parent").Evaluate(ctx); err == nil {
		t.Fatal("direct message field indexing should fail")
	}
	if _, err := Nest("id", Field("a")).Evaluate(ctx); err == nil {
		t.Fatal("nesting through a scalar should fail")
	}
}

func TestRecordTypeAndVersion(t *testing.T) {
	ctx := figure4(t)
	ts := eval(t, RecordType(), ctx)
	if !tuple.Equal(ts[0], tuple.Tuple{"Example"}) {
		t.Fatalf("recordType: %v", ts)
	}

	ts = eval(t, Version(), ctx)
	vs := ts[0][0].(tuple.Versionstamp)
	if vs.Complete() {
		t.Fatal("version without context should be incomplete")
	}

	ctx.HasVersion = true
	ctx.Version, _ = tuple.VersionstampFromBytes([]byte{0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 3})
	ts = eval(t, Version(), ctx)
	if got := ts[0][0].(tuple.Versionstamp); !got.Complete() || got.UserVersion != 3 {
		t.Fatalf("version: %v", got)
	}
}

func TestGroupBy(t *testing.T) {
	ctx := figure4(t)
	g := GroupBy(Field("id"), Nest("parent", Field("b")))
	if g.GroupingCount() != 1 || g.GroupedCount() != 1 {
		t.Fatalf("grouping counts: %d %d", g.GroupingCount(), g.GroupedCount())
	}
	ts, err := g.Evaluate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	group, value := g.Split(ts[0])
	if !tuple.Equal(group, tuple.Tuple{"child"}) || !tuple.Equal(value, tuple.Tuple{int64(1066)}) {
		t.Fatalf("split: %v %v", group, value)
	}
}

func TestKeyWithValue(t *testing.T) {
	ctx := figure4(t)
	kv := KeyWithValue(Then(Field("id"), Nest("parent", Field("a")), Nest("parent", Field("b"))), 1)
	ts, err := kv.Evaluate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	key, value := kv.Split(ts[0])
	if !tuple.Equal(key, tuple.Tuple{int64(1066)}) {
		t.Fatalf("key part: %v", key)
	}
	if !tuple.Equal(value, tuple.Tuple{int64(1415), "child"}) {
		t.Fatalf("value part: %v", value)
	}
}

func TestLiteralAndEmpty(t *testing.T) {
	ctx := figure4(t)
	ts := eval(t, Literal(int64(7)), ctx)
	if !tuple.Equal(ts[0], tuple.Tuple{int64(7)}) {
		t.Fatalf("literal: %v", ts)
	}
	ts = eval(t, Empty(), ctx)
	if len(ts) != 1 || len(ts[0]) != 0 {
		t.Fatalf("empty: %v", ts)
	}
}

func TestFunctionExpression(t *testing.T) {
	RegisterFunction("test_double_id", 1, func(ctx *Context) ([]tuple.Tuple, error) {
		v, _ := ctx.Message.Get("id")
		return []tuple.Tuple{{v.(int64) * 2}}, nil
	})
	ctx := figure4(t)
	e := MustFunction("test_double_id")
	ts := eval(t, e, ctx)
	if !tuple.Equal(ts[0], tuple.Tuple{int64(2132)}) {
		t.Fatalf("function: %v", ts)
	}
	if _, err := Function("unregistered"); err == nil {
		t.Fatal("unregistered function should fail")
	}
}

func TestColumnsForPlanner(t *testing.T) {
	e := Then(Field("id"), Nest("parent", Field("a")), RecordType())
	cols := e.Columns()
	if len(cols) != 3 {
		t.Fatalf("columns: %d", len(cols))
	}
	if cols[0].PathString() != "id" || cols[1].PathString() != "parent.a" || cols[2].Kind != ColRecordType {
		t.Fatalf("columns: %+v", cols)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	RegisterFunction("test_rt", 2, func(*Context) ([]tuple.Tuple, error) {
		return []tuple.Tuple{{int64(1), int64(2)}}, nil
	})
	exprs := []Expression{
		Field("id"),
		FieldFan("elem", FanOut),
		FieldFan("elem", FanConcatenate),
		Nest("parent", Field("a")),
		NestFan("kids", FanOut, Field("x")),
		Then(Field("a"), Field("b"), RecordType()),
		GroupBy(Field("v"), Field("g")),
		KeyWithValue(Then(Field("a"), Field("b")), 1),
		RecordType(),
		Version(),
		Literal(int64(42)),
		Literal("str"),
		Empty(),
		MustFunction("test_rt"),
	}
	for _, e := range exprs {
		data, err := Marshal(e)
		if err != nil {
			t.Fatalf("%s: marshal: %v", e, err)
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", e, err)
		}
		if got.String() != e.String() {
			t.Fatalf("round trip changed expression: %s -> %s", e, got)
		}
		if got.ColumnCount() != e.ColumnCount() {
			t.Fatalf("%s: column count changed", e)
		}
	}
}

func TestThenFlattening(t *testing.T) {
	e := Then(Then(Field("a"), Field("b")), Field("c"))
	if e.ColumnCount() != 3 {
		t.Fatalf("flattened count: %d", e.ColumnCount())
	}
	if len(e.Columns()) != 3 {
		t.Fatalf("flattened columns: %d", len(e.Columns()))
	}
}

func TestRepeatedNestedMessages(t *testing.T) {
	kid := message.MustDescriptor("Kid", message.Field("name", 1, message.TypeString))
	parent := message.MustDescriptor("Parent",
		message.RepeatedMessageField("kids", 1, kid),
	)
	m := message.New(parent).
		MustAdd("kids", message.New(kid).MustSet("name", "x")).
		MustAdd("kids", message.New(kid).MustSet("name", "y"))
	ctx := &Context{Message: m}
	ts := eval(t, NestFan("kids", FanOut, Field("name")), ctx)
	if len(ts) != 2 || !tuple.Equal(ts[0], tuple.Tuple{"x"}) || !tuple.Equal(ts[1], tuple.Tuple{"y"}) {
		t.Fatalf("repeated nest: %v", ts)
	}
}
