package keyspace

import (
	"bytes"
	"testing"

	"recordlayer/internal/directory"
	"recordlayer/internal/fdb"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

func cloudKitTree(t *testing.T) (*fdb.Database, *KeySpace) {
	t.Helper()
	db := fdb.Open(nil)
	layer := directory.NewLayerAt(subspace.FromBytes([]byte{0xFE}), subspace.FromBytes(nil), 3)
	ks, err := New(layer,
		NewConstant("cloudkit", "ck").Add(
			NewDirectory("user", TypeInt64).Add(
				NewInterned("application").Add(
					NewConstant("data", int64(0)),
					NewConstant("index", int64(1)),
				),
			),
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	return db, ks
}

// pathTuple resolves p in its own transaction and decodes its key prefix.
func pathTuple(t *testing.T, db *fdb.Database, p Path) tuple.Tuple {
	t.Helper()
	v, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) { return p.ToSubspace(tr) })
	if err != nil {
		t.Fatal(err)
	}
	tt, err := tuple.Unpack(v.(subspace.Subspace).Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

func TestPathToTuple(t *testing.T) {
	db, ks := cloudKitTree(t)
	p := ks.MustPath("cloudkit").MustAdd("user", int64(42)).MustAdd("application", "com.example.notes").MustAdd("data")
	tt := pathTuple(t, db, p)
	if len(tt) != 4 || tt[0] != "ck" || tt[1].(int64) != 42 || tt[3].(int64) != 0 {
		t.Fatalf("tuple: %v", tt)
	}
	// The interned application name must be a small integer, not the string.
	if _, isStr := tt[2].(string); isStr {
		t.Fatal("application name was not interned")
	}
}

func TestInterningStableAcrossPaths(t *testing.T) {
	db, ks := cloudKitTree(t)
	get := func(user int64) tuple.Tuple {
		return pathTuple(t, db, ks.MustPath("cloudkit").MustAdd("user", user).MustAdd("application", "app.one").MustAdd("data"))
	}
	t1, t2 := get(1), get(2)
	if t1[2] != t2[2] {
		t.Fatalf("same app interned differently: %v vs %v", t1[2], t2[2])
	}
}

func TestSiblingIsolation(t *testing.T) {
	db, ks := cloudKitTree(t)
	mk := func(user int64, dir string) subspace.Subspace {
		p := ks.MustPath("cloudkit").MustAdd("user", user).MustAdd("application", "a").MustAdd(dir)
		v, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) { return p.ToSubspace(tr) })
		if err != nil {
			t.Fatal(err)
		}
		return v.(subspace.Subspace)
	}
	data := mk(1, "data")
	index := mk(1, "index")
	other := mk(2, "data")
	for _, pair := range [][2]subspace.Subspace{{data, index}, {data, other}} {
		b0, e0 := pair[0].Range()
		if k := pair[1].Pack(tuple.Tuple{"x"}); bytes.Compare(k, b0) >= 0 && bytes.Compare(k, e0) < 0 {
			t.Fatal("sibling paths overlap")
		}
	}
}

func TestValidationRejectsAmbiguity(t *testing.T) {
	if _, err := New(nil,
		NewDirectory("a", TypeString),
		NewDirectory("b", TypeString),
	); err == nil {
		t.Fatal("two string-typed siblings should be rejected")
	}
	if _, err := New(nil,
		NewConstant("a", int64(1)),
		NewConstant("b", int64(1)),
	); err == nil {
		t.Fatal("equal constant siblings should be rejected")
	}
	if _, err := New(nil,
		NewConstant("a", int64(1)),
		NewConstant("a", int64(2)),
	); err == nil {
		t.Fatal("duplicate names should be rejected")
	}
	// Distinct constants and one variable are fine.
	if _, err := New(nil,
		NewConstant("a", int64(1)),
		NewConstant("b", int64(2)),
		NewDirectory("c", TypeString),
	); err != nil {
		t.Fatal(err)
	}
}

func TestTypeChecking(t *testing.T) {
	_, ks := cloudKitTree(t)
	if _, err := ks.Path("cloudkit", "extra"); err == nil {
		t.Fatal("constant directory must reject a value")
	}
	p := ks.MustPath("cloudkit")
	if _, err := p.Add("user", "not-an-int"); err == nil {
		t.Fatal("type mismatch should fail")
	}
	if _, err := p.Add("user"); err == nil {
		t.Fatal("missing value should fail")
	}
	if _, err := p.Add("nope", int64(1)); err == nil {
		t.Fatal("unknown directory should fail")
	}
}

func TestPathString(t *testing.T) {
	_, ks := cloudKitTree(t)
	p := ks.MustPath("cloudkit").MustAdd("user", int64(7))
	if p.String() != "/cloudkit:ck/user:7" {
		t.Fatalf("string: %s", p.String())
	}
}

func TestIntNormalization(t *testing.T) {
	db, ks := cloudKitTree(t)
	p := ks.MustPath("cloudkit").MustAdd("user", 42) // plain int
	if pathTuple(t, db, p)[1].(int64) != 42 {
		t.Fatal("int not normalized to int64")
	}
}

func TestPathForTemplate(t *testing.T) {
	db, ks := cloudKitTree(t)
	// Variable directories consume the supplied values in template order;
	// constants take none.
	p, err := ks.PathFor([]string{"cloudkit", "user", "application", "data"},
		int64(42), "com.example.notes")
	if err != nil {
		t.Fatal(err)
	}
	want := ks.MustPath("cloudkit").
		MustAdd("user", int64(42)).
		MustAdd("application", "com.example.notes").
		MustAdd("data")
	got, wantT := pathTuple(t, db, p), pathTuple(t, db, want)
	if !bytes.Equal(got.Pack(), wantT.Pack()) {
		t.Fatalf("PathFor compiled %v, manual path %v", got, wantT)
	}
}

func TestPathForValueCountMismatch(t *testing.T) {
	_, ks := cloudKitTree(t)
	if _, err := ks.PathFor([]string{"cloudkit", "user"}); err == nil {
		t.Fatal("missing value should fail")
	}
	if _, err := ks.PathFor([]string{"cloudkit", "user"}, int64(1), int64(2)); err == nil {
		t.Fatal("extra value should fail")
	}
	if _, err := ks.PathFor([]string{"nope"}); err == nil {
		t.Fatal("unknown directory should fail")
	}
	if _, err := ks.PathFor(nil); err == nil {
		t.Fatal("empty template should fail")
	}
}

func TestToSubspaceStatic(t *testing.T) {
	ks, err := New(nil,
		NewConstant("sys", "sys").Add(NewConstant("limits", "limits")),
		NewInterned("tenant"))
	if err != nil {
		t.Fatal(err)
	}
	// Constant-only paths compile with no transaction.
	sp, err := ks.MustPath("sys").MustAdd("limits").ToSubspaceStatic()
	if err != nil {
		t.Fatal(err)
	}
	want := subspace.FromTuple(tuple.Tuple{"sys", "limits"})
	if string(sp.Bytes()) != string(want.Bytes()) {
		t.Errorf("static subspace = %x, want %x", sp.Bytes(), want.Bytes())
	}
	// Interned directories are rejected: they need the directory layer.
	if _, err := ks.MustPath("tenant", "acme").ToSubspaceStatic(); err == nil {
		t.Error("interned path compiled without a transaction")
	}
}

// TestLookupSubspaceAllocatesNothing: resolving a path through an interned
// value nobody ever interned reports "not there" and buffers no write;
// through a known value it agrees with ToSubspace.
func TestLookupSubspaceAllocatesNothing(t *testing.T) {
	db, ks := cloudKitTree(t)
	known := ks.MustPath("cloudkit").MustAdd("user", int64(1)).MustAdd("application", "known")
	unknown := ks.MustPath("cloudkit").MustAdd("user", int64(1)).MustAdd("application", "never-seen")
	v, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) { return known.ToSubspace(tr) })
	if err != nil {
		t.Fatal(err)
	}
	size := db.Size()
	_, err = db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		if _, ok, err := unknown.LookupSubspace(tr); err != nil || ok {
			t.Fatalf("unknown path resolved: ok=%v err=%v", ok, err)
		}
		if tr.HasMutations() {
			t.Fatal("LookupSubspace buffered a write")
		}
		got, ok, err := known.LookupSubspace(tr)
		if err != nil || !ok || !bytes.Equal(got.Bytes(), v.(subspace.Subspace).Bytes()) {
			t.Fatalf("known path: %x ok=%v err=%v, want %x", got.Bytes(), ok, err, v.(subspace.Subspace).Bytes())
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.Size() != size {
		t.Fatalf("database grew from %d to %d keys", size, db.Size())
	}
}

// TestAddNeverAliasesParent: sibling paths added to one parent, whether built
// by Add or by PathFor, keep their own last level.
func TestAddNeverAliasesParent(t *testing.T) {
	_, ks := cloudKitTree(t)
	built, err := ks.PathFor([]string{"cloudkit", "user", "application"}, int64(1), "a")
	if err != nil {
		t.Fatal(err)
	}
	for _, parent := range []Path{ks.MustPath("cloudkit").MustAdd("user", int64(1)).MustAdd("application", "a"), built} {
		data, index := parent.MustAdd("data"), parent.MustAdd("index")
		if data.String() != "/cloudkit:ck/user:1/application:a/data:0" ||
			index.String() != "/cloudkit:ck/user:1/application:a/index:1" ||
			parent.String() != "/cloudkit:ck/user:1/application:a" {
			t.Fatalf("siblings share a level: %s, %s from %s", data, index, parent)
		}
	}
}
