package index

import (
	"fmt"
	"reflect"
	"testing"

	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

func itemDesc() *message.Descriptor {
	return message.MustDescriptor("Item",
		message.Field("id", 1, message.TypeInt64),
		message.Field("name", 2, message.TypeString),
		message.Field("qty", 3, message.TypeInt64),
	)
}

func itemType() *metadata.RecordType {
	return &metadata.RecordType{Name: "Item", Descriptor: itemDesc(), PrimaryKey: keyexpr.Field("id")}
}

func rec(id int64, name string, qty int64) *Record {
	m := message.New(itemDesc()).MustSet("id", id).MustSet("name", name).MustSet("qty", qty)
	return &Record{Type: itemType(), Message: m, PrimaryKey: tuple.Tuple{id}}
}

func ctxFor(t *testing.T, ix *metadata.Index) (*fdb.Database, func(tr *fdb.Transaction) *Context) {
	t.Helper()
	db := fdb.Open(nil)
	sp := subspace.FromTuple(tuple.Tuple{"ix"})
	return db, func(tr *fdb.Transaction) *Context {
		return &Context{Tr: tr, Index: ix, Space: sp}
	}
}

func TestMaintainerRegistry(t *testing.T) {
	for _, typ := range []metadata.IndexType{
		metadata.IndexValue, metadata.IndexCount, metadata.IndexSum,
		metadata.IndexMaxEver, metadata.IndexMinEver, metadata.IndexVersion,
		metadata.IndexRank, metadata.IndexText, metadata.IndexCountUpdates,
		metadata.IndexCountNonNull,
	} {
		ix := &metadata.Index{Name: "t", Type: typ, Expression: exprFor(typ)}
		if _, err := NewMaintainer(ix); err != nil {
			t.Errorf("%s: %v", typ, err)
		}
	}
	if _, err := NewMaintainer(&metadata.Index{Name: "x", Type: "nope"}); err == nil {
		t.Error("unknown type accepted")
	}
}

func exprFor(typ metadata.IndexType) keyexpr.Expression {
	switch typ {
	case metadata.IndexSum, metadata.IndexMaxEver, metadata.IndexMinEver, metadata.IndexCountNonNull:
		return keyexpr.Ungrouped(keyexpr.Field("qty"))
	case metadata.IndexVersion:
		return keyexpr.Version()
	default:
		return keyexpr.Field("name")
	}
}

// TestCustomIndexType exercises the client extension point (§3.1): register
// a custom maintainer and verify the registry dispatches to it.
func TestCustomIndexType(t *testing.T) {
	calls := 0
	RegisterIndexType("custom_test", func(ix *metadata.Index) (Maintainer, error) {
		return maintainerFunc(func(ctx *Context, old, new *Record) error {
			calls++
			return nil
		}), nil
	})
	ix := &metadata.Index{Name: "c", Type: "custom_test", Expression: keyexpr.Field("name")}
	m, err := NewMaintainer(ix)
	if err != nil {
		t.Fatal(err)
	}
	db, mkCtx := ctxFor(t, ix)
	_, err = db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		return nil, Update(m, mkCtx(tr), nil, rec(1, "a", 1))
	})
	if err != nil || calls != 1 {
		t.Fatalf("custom maintainer: calls=%d err=%v", calls, err)
	}
}

type maintainerFunc func(ctx *Context, old, new *Record) error

func (f maintainerFunc) UpdateAsync(ctx *Context, old, new *Record) (Pending, error) {
	if err := f(ctx, old, new); err != nil {
		return nil, err
	}
	return Done, nil
}

// TestDiffEntriesSkipsUnchanged: an update writes only the entries that
// differ, old against new on packed keys (§6) — a fan-out record going from
// tags {x, y} to {y, z} clears x's entry, sets z's, and leaves y's alone.
func TestDiffEntriesSkipsUnchanged(t *testing.T) {
	desc := message.MustDescriptor("Tagged",
		message.Field("id", 1, message.TypeInt64),
		message.RepeatedField("tags", 2, message.TypeString))
	rt := &metadata.RecordType{Name: "Tagged", Descriptor: desc, PrimaryKey: keyexpr.Field("id")}
	tagged := func(tags ...string) *Record {
		m := message.New(desc).MustSet("id", int64(1))
		for _, tag := range tags {
			m.MustAdd("tags", tag)
		}
		return &Record{Type: rt, Message: m, PrimaryKey: tuple.Tuple{int64(1)}}
	}
	ix := &metadata.Index{Name: "by_tag", Type: metadata.IndexValue, Expression: keyexpr.FieldFan("tags", keyexpr.FanOut)}
	m, err := NewMaintainer(ix)
	if err != nil {
		t.Fatal(err)
	}
	db, mkCtx := ctxFor(t, ix)
	var seen []string
	db.SetTap(func(_ *fdb.Transaction, a fdb.Access) {
		if a.Kind == fdb.AccessWrite || a.Kind == fdb.AccessClear {
			seen = append(seen, fmt.Sprintf("%v %s", a.Kind, tuple.Describe(a.Begin)))
		}
	})
	defer db.SetTap(nil)
	for _, step := range []struct {
		old, new *Record
		want     []string
	}{
		{nil, tagged("x", "y"), []string{`write ("ix", "x", 1)`, `write ("ix", "y", 1)`}},
		{tagged("x", "y"), tagged("y", "z"), []string{`clear ("ix", "x", 1)`, `write ("ix", "z", 1)`}},
		{tagged("y", "z"), tagged("y", "z"), nil},
	} {
		seen = nil
		if _, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
			return nil, Update(m, mkCtx(tr), step.old, step.new)
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seen, step.want) {
			t.Errorf("update wrote %q, want %q", seen, step.want)
		}
	}
}

func TestValueMaintainerLifecycle(t *testing.T) {
	ix := &metadata.Index{Name: "by_name", Type: metadata.IndexValue, Expression: keyexpr.Field("name")}
	m, err := NewMaintainer(ix)
	if err != nil {
		t.Fatal(err)
	}
	vm := m.(*ValueMaintainer)
	db, mkCtx := ctxFor(t, ix)

	// Insert, update (entry moves), delete.
	_, err = db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		ctx := mkCtx(tr)
		if err := Update(vm, ctx, nil, rec(1, "old", 1)); err != nil {
			return nil, err
		}
		if err := Update(vm, ctx, rec(1, "old", 1), rec(1, "new", 1)); err != nil {
			return nil, err
		}
		c, err := vm.Scan(ctx, TupleRange{}, ScanOptions{})
		if err != nil {
			return nil, err
		}
		r, err := c.Next()
		if err != nil || !r.OK {
			t.Fatalf("scan: %+v %v", r, err)
		}
		if r.Value.Key()[0] != "new" || r.Value.PrimaryKey()[0].(int64) != 1 {
			t.Fatalf("entry: %+v", r.Value)
		}
		if err := Update(vm, ctx, rec(1, "new", 1), nil); err != nil {
			return nil, err
		}
		c2, _ := vm.Scan(ctx, TupleRange{}, ScanOptions{})
		if r2, _ := c2.Next(); r2.OK {
			t.Fatalf("entry survived delete: %+v", r2.Value)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCoveringIndexValueColumns(t *testing.T) {
	ix := &metadata.Index{Name: "cov", Type: metadata.IndexValue,
		Expression: keyexpr.KeyWithValue(keyexpr.Then(keyexpr.Field("name"), keyexpr.Field("qty")), 1)}
	m, err := NewMaintainer(ix)
	if err != nil {
		t.Fatal(err)
	}
	vm := m.(*ValueMaintainer)
	if vm.KeyColumns() != 1 {
		t.Fatalf("key columns: %d", vm.KeyColumns())
	}
	db, mkCtx := ctxFor(t, ix)
	_, err = db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		ctx := mkCtx(tr)
		if err := Update(vm, ctx, nil, rec(1, "widget", 42)); err != nil {
			return nil, err
		}
		c, err := vm.Scan(ctx, TupleRange{}, ScanOptions{})
		if err != nil {
			return nil, err
		}
		r, _ := c.Next()
		if _, v := r.Value.PackedColumns(); !r.OK || len(unpackChecked(v)) != 1 || unpackChecked(v)[0].(int64) != 42 {
			t.Fatalf("covering value: %+v", r.Value)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAtomicCountGroupTransitions(t *testing.T) {
	ix := &metadata.Index{Name: "cnt", Type: metadata.IndexCount,
		Expression: keyexpr.GroupBy(keyexpr.Empty(), keyexpr.Field("name"))}
	m, err := NewMaintainer(ix)
	if err != nil {
		t.Fatal(err)
	}
	am := m.(*AtomicMaintainer)
	db, mkCtx := ctxFor(t, ix)
	_, err = db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		ctx := mkCtx(tr)
		// Two records in group "a", then one moves to group "b".
		if err := Update(am, ctx, nil, rec(1, "a", 1)); err != nil {
			return nil, err
		}
		if err := Update(am, ctx, nil, rec(2, "a", 1)); err != nil {
			return nil, err
		}
		if err := Update(am, ctx, rec(2, "a", 1), rec(2, "b", 1)); err != nil {
			return nil, err
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		ctx := mkCtx(tr)
		a, err := am.GetInt64(ctx, tuple.Tuple{"a"})
		if err != nil {
			return nil, err
		}
		b, err := am.GetInt64(ctx, tuple.Tuple{"b"})
		if err != nil {
			return nil, err
		}
		if a != 1 || b != 1 {
			t.Fatalf("group counts: a=%d b=%d", a, b)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSumRejectsBadExpression(t *testing.T) {
	// SUM without a grouping expression is invalid.
	_, err := NewMaintainer(&metadata.Index{Name: "s", Type: metadata.IndexSum,
		Expression: keyexpr.Field("qty")})
	if err == nil {
		t.Fatal("plain expression accepted for SUM")
	}
	// SUM aggregating two columns is invalid.
	_, err = NewMaintainer(&metadata.Index{Name: "s", Type: metadata.IndexSum,
		Expression: keyexpr.GroupBy(keyexpr.Then(keyexpr.Field("qty"), keyexpr.Field("id")))})
	if err == nil {
		t.Fatal("two grouped columns accepted for SUM")
	}
}

func TestVersionMaintainerRejectsPlainExpression(t *testing.T) {
	_, err := NewMaintainer(&metadata.Index{Name: "v", Type: metadata.IndexVersion,
		Expression: keyexpr.Field("name")})
	if err == nil {
		t.Fatal("version index without version column accepted")
	}
}

func TestTextMaintainerOptions(t *testing.T) {
	if _, err := NewMaintainer(&metadata.Index{Name: "t", Type: metadata.IndexText,
		Expression: keyexpr.Field("name"),
		Options:    map[string]string{"tokenizer": "never-registered"}}); err == nil {
		t.Fatal("unknown tokenizer accepted")
	}
	if _, err := NewMaintainer(&metadata.Index{Name: "t", Type: metadata.IndexText,
		Expression: keyexpr.Field("name"),
		Options:    map[string]string{"bunch_size": "zero"}}); err == nil {
		t.Fatal("bad bunch size accepted")
	}
	m, err := NewMaintainer(&metadata.Index{Name: "t", Type: metadata.IndexText,
		Expression: keyexpr.Field("name"),
		Options:    map[string]string{"bunch_size": "7", "tokenizer": "whitespace"}})
	if err != nil {
		t.Fatal(err)
	}
	if m.(*TextMaintainer).BunchSize() != 7 {
		t.Fatal("bunch size option ignored")
	}
}

func TestTupleRangeToKeyRange(t *testing.T) {
	sp := subspace.FromTuple(tuple.Tuple{"r"})
	// Inclusive low, exclusive high.
	b, e, err := TupleRange{
		Low: tuple.Tuple{"a"}, LowInclusive: true,
		High: tuple.Tuple{"c"}, HighInclusive: false,
	}.ToKeyRange(sp)
	if err != nil {
		t.Fatal(err)
	}
	inA := sp.Pack(tuple.Tuple{"a"})
	inB := sp.Pack(tuple.Tuple{"b", int64(1)})
	outC := sp.Pack(tuple.Tuple{"c"})
	if string(inA) < string(b) || string(inB) >= string(e) || string(outC) < string(e) {
		t.Fatal("range bounds wrong")
	}
	// Unbounded covers the whole subspace.
	b2, e2, _ := TupleRange{}.ToKeyRange(sp)
	if string(b2) >= string(e2) {
		t.Fatal("unbounded range empty")
	}
}
