package keyspace

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"recordlayer/internal/directory"
	"recordlayer/internal/fdb"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// resolveTuple is the reference the prefix encoder is held to: a path
// compiled level by level into a boxed tuple, which subspace.FromTuple then
// packs. With create unset an interned value the layer has never seen ends
// the walk with ok == false.
func resolveTuple(p Path, tr *fdb.Transaction, create bool) (t tuple.Tuple, ok bool, err error) {
	out := make(tuple.Tuple, len(p.elems))
	for i, e := range p.elems {
		d := p.dirs[i]
		if !d.interned {
			out[i] = e.Value
			continue
		}
		if p.ks.layer == nil {
			return nil, false, fmt.Errorf("keyspace: directory %q is interned but no directory layer configured", d.name)
		}
		var id int64
		found := true
		if create {
			id, err = p.ks.layer.Intern(tr, e.Value.(string))
		} else {
			id, found, err = p.ks.layer.LookupInterned(tr, e.Value.(string))
		}
		if err != nil || !found {
			return nil, false, err
		}
		out[i] = id
	}
	return out, true, nil
}

// refPrefix is what a template and its values compiled to before the one
// encoder: PathFor, then resolveTuple, then the tuple packed.
func refPrefix(ks *KeySpace, tr *fdb.Transaction, names []string, values []interface{}, create bool) ([]byte, bool, error) {
	p, err := ks.PathFor(names, values...)
	if err != nil {
		return nil, false, err
	}
	t, ok, err := resolveTuple(p, tr, create)
	if err != nil || !ok {
		return nil, ok, err
	}
	return subspace.FromTuple(t).Bytes(), true, nil
}

// prefixDepth is how deep the test tree (prefixTrees) goes.
const prefixDepth = 4

// prefixKids are the children every directory of the test tree has above the
// last level: a constant, whose value depends on the depth, and one variable
// directory of each value type. The integer domain is taken by a plain int64
// directory at even depths and an interned one at odd depths.
func prefixKids(depth int) []*Directory {
	constants := []interface{}{"ck", int64(-3), 5, []byte{0, 1}}
	kids := []*Directory{
		NewConstant("k", constants[depth%len(constants)]),
		NewDirectory("s", TypeString),
		NewDirectory("b", TypeBytes),
		NewDirectory("u", TypeUUID),
	}
	if depth%2 == 0 {
		kids = append(kids, NewDirectory("i", TypeInt64))
	} else {
		kids = append(kids, NewInterned("n"))
	}
	if depth+1 < prefixDepth {
		for _, k := range kids {
			k.Add(prefixKids(depth + 1)...)
		}
	}
	return kids
}

// prefixTrees returns one tree twice: with a directory layer, and with none,
// where every interned level fails.
func prefixTrees(t testing.TB) (withLayer, noLayer *KeySpace) {
	kids := prefixKids(0)
	var err error
	layer := directory.NewLayerAt(subspace.FromBytes([]byte{0xFE}), subspace.FromBytes(nil), 5)
	if withLayer, err = New(layer, kids...); err != nil {
		t.Fatal(err)
	}
	if noLayer, err = New(nil, kids...); err != nil {
		t.Fatal(err)
	}
	return withLayer, noLayer
}

// prefixCase is one template with its values, decoded from bytes.
type prefixCase struct {
	names   []string
	values  []interface{}
	noLayer bool
	kinds   []string // the kinds of level the case walks, for coverage
}

// byteSource hands out data one byte at a time, then zeros.
type byteSource []byte

func (s *byteSource) next() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

func (s *byteSource) bytes(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// decodePrefixCase reads a case from data: a depth, then per level a child
// (now and then one that does not exist) and a value for a variable one (now
// and then of the wrong type), then whether to drop or add a value and
// whether to use the tree without a directory layer.
func decodePrefixCase(data []byte) prefixCase {
	src := byteSource(data)
	var c prefixCase
	depth := int(src.next()) % (prefixDepth + 1) // 0 is the empty template
	for d := 0; d < depth; d++ {
		kids := prefixKids(d) // the same names and types as the tree's
		pick := src.next()
		if pick == 0xFF {
			c.names = append(c.names, "nope")
			c.kinds = append(c.kinds, "unknown")
			continue
		}
		dir := kids[int(pick)%len(kids)]
		c.names = append(c.names, dir.name)
		sel := src.next()
		if dir.typ == TypeConstant {
			c.kinds = append(c.kinds, "constant")
			continue
		}
		if sel%8 == 7 {
			c.values = append(c.values, 1.5)
			c.kinds = append(c.kinds, "wrong type")
			continue
		}
		switch {
		case dir.interned:
			c.values = append(c.values, fmt.Sprintf("name%d", sel%4))
			c.kinds = append(c.kinds, "interned")
		case dir.typ == TypeString:
			c.values = append(c.values, string(src.bytes(int(sel%5))))
			c.kinds = append(c.kinds, "string")
		case dir.typ == TypeBytes:
			c.values = append(c.values, src.bytes(int(sel%5)))
			c.kinds = append(c.kinds, "bytes")
		case dir.typ == TypeUUID:
			var u tuple.UUID
			copy(u[:], src.bytes(len(u)))
			c.values = append(c.values, u)
			c.kinds = append(c.kinds, "uuid")
		case sel%2 == 0:
			c.values = append(c.values, int64(int8(src.next()))<<(src.next()%56))
			c.kinds = append(c.kinds, "int64")
		default:
			c.values = append(c.values, int(int8(src.next()))<<(src.next()%56))
			c.kinds = append(c.kinds, "int")
		}
	}
	switch tail := src.next(); {
	case tail%8 == 1 && len(c.values) > 0:
		c.values = c.values[:len(c.values)-1]
		c.kinds = append(c.kinds, "missing value")
	case tail%8 == 2:
		c.values = append(c.values, int64(9))
		c.kinds = append(c.kinds, "extra value")
	}
	c.noLayer = src.next()%8 == 7
	return c
}

// errText renders an error for comparison; nil is "".
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkPrefixCase runs c through AppendPrefix, and through the Path methods
// when the template makes a path, each in its own transaction, and holds
// every answer to refPrefix's: the same bytes, ok and error text. A lookup
// writes nothing, and neither does a create that fails, which leaves the
// buffer it was given as it was. It returns the error text AppendPrefix gave.
func checkPrefixCase(t *testing.T, db *fdb.Database, ks *KeySpace, c prefixCase) string {
	t.Helper()
	var writes int
	db.SetTap(func(_ *fdb.Transaction, a fdb.Access) {
		if a.Kind == fdb.AccessWrite || a.Kind == fdb.AccessClear {
			writes++
		}
	})
	defer db.SetTap(nil)
	run := func(fn func(tr *fdb.Transaction) ([]byte, bool, error)) ([]byte, bool, error) {
		var b []byte
		var ok bool
		var err error
		if _, terr := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
			b, ok, err = fn(tr)
			return nil, nil
		}); terr != nil {
			t.Fatal(terr)
		}
		return b, ok, err
	}
	same := func(what string, b []byte, ok bool, err error, wb []byte, wok bool, werr error) {
		t.Helper()
		if errText(err) != errText(werr) || ok != wok || !bytes.Equal(b, wb) {
			t.Fatalf("%s %v %#v: got %x ok=%v err=%v, reference %x ok=%v err=%v",
				what, c.names, c.values, b, ok, err, wb, wok, werr)
		}
	}
	path, perr := ks.PathFor(c.names, c.values...)

	if perr == nil {
		writes = 0
		sp, ok, err := run(func(tr *fdb.Transaction) ([]byte, bool, error) {
			sp, ok, err := path.LookupSubspace(tr)
			return sp.Bytes(), ok, err
		})
		if writes != 0 {
			t.Fatalf("LookupSubspace %v %#v wrote %d keys", c.names, c.values, writes)
		}
		wb, wok, werr := run(func(tr *fdb.Transaction) ([]byte, bool, error) {
			return refPrefix(ks, tr, c.names, c.values, false)
		})
		same("LookupSubspace", sp, ok, err, wb, wok, werr)
	}

	writes = 0
	ab, aok, aerr := run(func(tr *fdb.Transaction) ([]byte, bool, error) {
		b, err := ks.AppendPrefix([]byte{0xAA}, tr, c.names, c.values...)
		return b, err == nil, err
	})
	if aerr != nil && writes != 0 {
		t.Fatalf("AppendPrefix %v %#v failed (%v) after writing %d keys", c.names, c.values, aerr, writes)
	}
	if !bytes.HasPrefix(ab, []byte{0xAA}) || (!aok && len(ab) != 1) {
		t.Fatalf("AppendPrefix %v %#v returned %x: not the buffer it was given, or grown on error", c.names, c.values, ab)
	}
	// AppendPrefix committed its interning, so the reference finds the same ids.
	wb, _, werr := run(func(tr *fdb.Transaction) ([]byte, bool, error) {
		return refPrefix(ks, tr, c.names, c.values, true)
	})
	same("AppendPrefix", ab[1:], aok, aerr, wb, werr == nil, werr)
	if perr == nil {
		sp, ok, err := run(func(tr *fdb.Transaction) ([]byte, bool, error) {
			sp, err := path.ToSubspace(tr)
			return sp.Bytes(), err == nil, err
		})
		same("ToSubspace", sp, ok, err, wb, werr == nil, werr)
	}
	return errText(aerr)
}

// TestPrefixMatchesPathTuple: over seeded templates through constant, string,
// int64, int, bytes, UUID and interned levels, the one prefix encoder packs
// exactly what the tuple a path used to compile to packs, answers a lookup of
// a name never interned as it did, and fails with the same error text; a
// lookup writes nothing, and neither does a create that fails.
func TestPrefixMatchesPathTuple(t *testing.T) {
	withLayer, noLayer := prefixTrees(t)
	db := fdb.Open(nil)
	seen := map[string]bool{}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		data := make([]byte, 48)
		r.Read(data)
		c := decodePrefixCase(data)
		ks := withLayer
		if c.noLayer {
			ks = noLayer
		}
		msg := checkPrefixCase(t, db, ks, c)
		for _, k := range c.kinds {
			seen[k] = true
		}
		if msg == "" {
			seen["resolved"] = true
		}
	}
	for _, k := range []string{"constant", "string", "int64", "int", "bytes", "uuid", "interned",
		"unknown", "wrong type", "missing value", "extra value", "resolved"} {
		if !seen[k] {
			t.Errorf("no case covered %s", k)
		}
	}
}

// TestPrefixErrorsMatchPathFor: each way a template and its values can be
// wrong fails AppendPrefix with the text PathFor and the path's compilation
// gave, and writes nothing, even where an earlier level is interned.
func TestPrefixErrorsMatchPathFor(t *testing.T) {
	withLayer, noLayer := prefixTrees(t)
	db := fdb.Open(nil)
	cases := []struct {
		name    string
		c       prefixCase
		wantErr string
	}{
		{"unknown directory", prefixCase{names: []string{"k", "n", "nope"}, values: []interface{}{"fresh"}},
			`keyspace: no directory "nope" under "n"`},
		{"missing value", prefixCase{names: []string{"k", "n", "i"}, values: []interface{}{"fresh"}},
			`keyspace: directory "i" requires a value`},
		{"extra values", prefixCase{names: []string{"k", "n"}, values: []interface{}{"fresh", int64(1)}},
			`keyspace: template [k n] consumed 1 of 2 supplied values`},
		{"wrong type", prefixCase{names: []string{"k", "n", "s"}, values: []interface{}{"fresh", int64(1)}},
			`keyspace: directory "s" requires a string value, got int64`},
		{"interned with no layer", prefixCase{names: []string{"k", "n"}, values: []interface{}{"fresh"}, noLayer: true},
			`keyspace: directory "n" is interned but no directory layer configured`},
		{"empty template", prefixCase{}, `keyspace: empty path template`},
	}
	for _, tc := range cases {
		ks := withLayer
		if tc.c.noLayer {
			ks = noLayer
		}
		if got := checkPrefixCase(t, db, ks, tc.c); got != tc.wantErr {
			t.Errorf("%s: AppendPrefix error %q, want %q", tc.name, got, tc.wantErr)
		}
	}
	if db.Size() != 0 {
		t.Fatalf("failed templates left %d keys", db.Size())
	}
}

// FuzzTenantPrefix holds the prefix encoder to the tuple reference on
// templates and values decoded from the input (decodePrefixCase).
func FuzzTenantPrefix(f *testing.F) {
	withLayer, noLayer := prefixTrees(f)
	db := fdb.Open(nil)
	f.Add([]byte{3, 0, 0, 4, 1, 2, 1, 3, 0})
	f.Add([]byte{4, 1, 3, 'a', 0, 'b', 4, 2, 2, 2, 0xFF, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodePrefixCase(data)
		ks := withLayer
		if c.noLayer {
			ks = noLayer
		}
		checkPrefixCase(t, db, ks, c)
	})
}
