package message

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"
)

// exampleDescriptor builds the paper's Figure 4 Example message:
//
//	message Example {
//	  message Nested { optional int64 a = 1; optional string b = 2; }
//	  optional int64 id = 1;
//	  repeated string elem = 2;
//	  optional Nested parent = 3;
//	}
func exampleDescriptor(t testing.TB) (*Descriptor, *Descriptor) {
	t.Helper()
	nested := MustDescriptor("Example.Nested",
		Field("a", 1, TypeInt64),
		Field("b", 2, TypeString),
	)
	example := MustDescriptor("Example",
		Field("id", 1, TypeInt64),
		RepeatedField("elem", 2, TypeString),
		MessageField("parent", 3, nested),
	)
	return example, nested
}

// figure4 constructs the paper's example record: id=1066,
// elem=["first","second","third"], parent={a:1415, b:"child"}.
func figure4(t testing.TB) *Message {
	ex, nested := exampleDescriptor(t)
	p := New(nested).MustSet("a", int64(1415)).MustSet("b", "child")
	return New(ex).
		MustSet("id", int64(1066)).
		MustAdd("elem", "first").
		MustAdd("elem", "second").
		MustAdd("elem", "third").
		MustSet("parent", p)
}

func TestSetGet(t *testing.T) {
	m := figure4(t)
	if v, ok := m.Get("id"); !ok || v.(int64) != 1066 {
		t.Fatalf("id: %v %v", v, ok)
	}
	elems := m.GetRepeated("elem")
	if len(elems) != 3 || elems[1].(string) != "second" {
		t.Fatalf("elem: %v", elems)
	}
	if p := m.GetMessage("parent"); p == nil {
		t.Fatal("parent unset")
	} else if v, _ := p.Get("a"); v.(int64) != 1415 {
		t.Fatalf("parent.a: %v", v)
	}
}

func TestUnsetFieldsAppearUninitialized(t *testing.T) {
	ex, _ := exampleDescriptor(t)
	m := New(ex)
	if _, ok := m.Get("id"); ok {
		t.Fatal("unset field reported as set")
	}
	if m.Has("parent") {
		t.Fatal("unset message field reported as set")
	}
	if m.GetRepeated("elem") != nil {
		t.Fatal("unset repeated field should be empty")
	}
}

func TestTypeChecking(t *testing.T) {
	ex, _ := exampleDescriptor(t)
	m := New(ex)
	if err := m.Set("id", "not-an-int"); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if err := m.Set("elem", "scalar-into-repeated"); err == nil {
		t.Fatal("scalar set of repeated field accepted")
	}
	if err := m.Add("id", int64(1)); err == nil {
		t.Fatal("Add on scalar field accepted")
	}
	if err := m.Set("nope", int64(1)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	m := figure4(t)
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(m.Descriptor(), data)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(m, got) {
		t.Fatalf("round trip mismatch:\n%v\n%v", m, got)
	}
	if v, _ := got.Get("id"); v.(int64) != 1066 {
		t.Fatalf("id after round trip: %v", v)
	}
	if p := got.GetMessage("parent"); p == nil {
		t.Fatal("nested message lost")
	} else if v, _ := p.Get("b"); v.(string) != "child" {
		t.Fatalf("nested string: %v", v)
	}
}

func TestNegativeIntEncoding(t *testing.T) {
	d := MustDescriptor("M", Field("v", 1, TypeInt64))
	m := New(d).MustSet("v", int64(-42))
	data, _ := m.Marshal()
	got, err := Unmarshal(d, data)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Get("v"); v.(int64) != -42 {
		t.Fatalf("negative round trip: %v", v)
	}
}

func TestAllScalarTypes(t *testing.T) {
	d := MustDescriptor("AllTypes",
		Field("i64", 1, TypeInt64),
		Field("i32", 2, TypeInt32),
		Field("u64", 3, TypeUint64),
		Field("b", 4, TypeBool),
		Field("e", 5, TypeEnum),
		Field("d", 6, TypeDouble),
		Field("f", 7, TypeFloat),
		Field("s", 8, TypeString),
		Field("by", 9, TypeBytes),
	)
	m := New(d).
		MustSet("i64", int64(math.MaxInt64)).
		MustSet("i32", int64(-7)).
		MustSet("u64", uint64(math.MaxUint64)).
		MustSet("b", true).
		MustSet("e", int64(3)).
		MustSet("d", 2.5).
		MustSet("f", float32(1.25)).
		MustSet("s", "hello").
		MustSet("by", []byte{0, 1, 2})
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(d, data)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name string
		want interface{}
	}{
		{"i64", int64(math.MaxInt64)}, {"i32", int64(-7)}, {"u64", uint64(math.MaxUint64)},
		{"b", true}, {"e", int64(3)}, {"d", 2.5}, {"f", float32(1.25)}, {"s", "hello"},
	}
	for _, c := range checks {
		if v, ok := got.Get(c.name); !ok || v != c.want {
			t.Errorf("%s: got %v want %v", c.name, v, c.want)
		}
	}
	if v, _ := got.Get("by"); !bytes.Equal(v.([]byte), []byte{0, 1, 2}) {
		t.Error("bytes mismatch")
	}
}

func TestUnknownFieldPreservation(t *testing.T) {
	// Encode with a "new" schema, decode with an "old" one missing field 2,
	// re-encode, and decode with the new schema again: the new field must
	// survive — the schema evolution property of §5.
	newSchema := MustDescriptor("Rec",
		Field("id", 1, TypeInt64),
		Field("added_later", 2, TypeString),
	)
	oldSchema := MustDescriptor("Rec",
		Field("id", 1, TypeInt64),
	)
	orig := New(newSchema).MustSet("id", int64(5)).MustSet("added_later", "precious")
	data, _ := orig.Marshal()

	viaOld, err := Unmarshal(oldSchema, data)
	if err != nil {
		t.Fatal(err)
	}
	if viaOld.UnknownFieldCount() != 1 {
		t.Fatalf("unknown fields: %d", viaOld.UnknownFieldCount())
	}
	reencoded, _ := viaOld.Marshal()
	back, err := Unmarshal(newSchema, reencoded)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := back.Get("added_later"); !ok || v.(string) != "precious" {
		t.Fatalf("unknown field lost: %v %v", v, ok)
	}
}

func TestNewFieldsUninitializedInOldRecords(t *testing.T) {
	oldSchema := MustDescriptor("Rec", Field("id", 1, TypeInt64))
	newSchema := MustDescriptor("Rec",
		Field("id", 1, TypeInt64),
		Field("later", 2, TypeString),
	)
	data, _ := New(oldSchema).MustSet("id", int64(1)).Marshal()
	got, err := Unmarshal(newSchema, data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Has("later") {
		t.Fatal("field absent on the wire reported as set")
	}
}

func TestPackedRepeatedDecode(t *testing.T) {
	// Hand-encode a packed repeated int64 field (field 1, wire type 2).
	payload := []byte{0x0A, 3, 1, 2, 3}
	d := MustDescriptor("P", RepeatedField("v", 1, TypeInt64))
	got, err := Unmarshal(d, payload)
	if err != nil {
		t.Fatal(err)
	}
	vs := got.GetRepeated("v")
	if len(vs) != 3 || vs[0].(int64) != 1 || vs[2].(int64) != 3 {
		t.Fatalf("packed decode: %v", vs)
	}
}

func TestRepeatedMessages(t *testing.T) {
	item := MustDescriptor("Item", Field("n", 1, TypeInt64))
	d := MustDescriptor("List", RepeatedMessageField("items", 1, item))
	m := New(d)
	for i := 1; i <= 3; i++ {
		m.MustAdd("items", New(item).MustSet("n", int64(i)))
	}
	data, _ := m.Marshal()
	got, err := Unmarshal(d, data)
	if err != nil {
		t.Fatal(err)
	}
	items := got.GetRepeated("items")
	if len(items) != 3 {
		t.Fatalf("items: %d", len(items))
	}
	if v, _ := items[2].(*Message).Get("n"); v.(int64) != 3 {
		t.Fatalf("items[2].n: %v", v)
	}
}

func TestClone(t *testing.T) {
	m := figure4(t)
	c := m.Clone()
	c.MustSet("id", int64(999))
	c.GetMessage("parent").MustSet("a", int64(0))
	if v, _ := m.Get("id"); v.(int64) != 1066 {
		t.Fatal("clone aliases scalar")
	}
	if v, _ := m.GetMessage("parent").Get("a"); v.(int64) != 1415 {
		t.Fatal("clone aliases nested message")
	}
}

func TestDescriptorValidation(t *testing.T) {
	if _, err := NewDescriptor("D", Field("a", 1, TypeInt64), Field("a", 2, TypeInt64)); err == nil {
		t.Fatal("duplicate names accepted")
	}
	if _, err := NewDescriptor("D", Field("a", 1, TypeInt64), Field("b", 1, TypeInt64)); err == nil {
		t.Fatal("duplicate numbers accepted")
	}
	if _, err := NewDescriptor("D", Field("a", 0, TypeInt64)); err == nil {
		t.Fatal("field number 0 accepted")
	}
	if _, err := NewDescriptor(""); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	ex, nested := exampleDescriptor(t)
	r := NewRegistry()
	if err := r.Add(nested); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(ex); err != nil {
		t.Fatal(err)
	}
	blob, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := UnmarshalRegistry(blob)
	if err != nil {
		t.Fatal(err)
	}
	ex2, ok := r2.Lookup("Example")
	if !ok {
		t.Fatal("Example missing after round trip")
	}
	// The reconstructed descriptor must decode data written by the original.
	data, _ := figure4(t).Marshal()
	got, err := Unmarshal(ex2, data)
	if err != nil {
		t.Fatal(err)
	}
	if p := got.GetMessage("parent"); p == nil {
		t.Fatal("nested type not relinked after registry round trip")
	} else if v, _ := p.Get("a"); v.(int64) != 1415 {
		t.Fatalf("nested value: %v", v)
	}
}

func TestRegistryOutOfOrderLinking(t *testing.T) {
	// Add the referencing type before the referenced type.
	outer := MustDescriptor("Outer", &FieldDescriptor{
		Name: "inner", Number: 1, Type: TypeMessage, MessageTypeName: "Inner",
	})
	inner := MustDescriptor("Inner", Field("x", 1, TypeInt64))
	r := NewRegistry()
	if err := r.Add(outer); err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err == nil {
		t.Fatal("dangling reference should fail validation")
	}
	if err := r.Add(inner); err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	f, _ := outer.FieldByName("inner")
	if f.MessageType() != inner {
		t.Fatal("late linking failed")
	}
}

func TestTruncatedWireData(t *testing.T) {
	d := MustDescriptor("M", Field("s", 1, TypeString))
	bad := [][]byte{
		{0x0A},          // tag then nothing
		{0x0A, 5, 'a'},  // length longer than data
		{0x08},          // varint field, no payload
		{0x09, 1, 2, 3}, // fixed64 truncated
	}
	for _, b := range bad {
		if _, err := Unmarshal(d, b); err == nil {
			t.Errorf("Unmarshal(%x) should fail", b)
		}
	}
}

// nodeDescriptor is a type that nests itself, as a Registry allows.
func nodeDescriptor(t testing.TB) *Descriptor {
	t.Helper()
	node := MustDescriptor("Node",
		Field("id", 1, TypeInt64),
		&FieldDescriptor{Name: "child", Number: 2, Type: TypeMessage, MessageTypeName: "Node"},
	)
	r := NewRegistry()
	if err := r.Add(node); err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	return node
}

// nestedNodes encodes a chain of levels Nodes, each the child of the one
// before, built from the inside out in one buffer so that millions of levels
// cost linear time.
func nestedNodes(levels int) []byte {
	rev := make([]byte, 0, 5*levels)
	for k := 1; k < levels; k++ {
		var hdr [16]byte
		h := appendVarint(appendTag(hdr[:0], 2, wireBytes), uint64(len(rev)))
		for i := len(h) - 1; i >= 0; i-- {
			rev = append(rev, h[i])
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// TestNestingDepthBound: messages nest at most maxDepth levels. A chain that
// deep marshals and decodes; one level more is an error both ways; a 3
// million level payload (14.5 MB), which overflowed the goroutine stack
// before the bound, is an error; and a message that contains itself fails to
// marshal instead of recursing forever.
func TestNestingDepthBound(t *testing.T) {
	node := nodeDescriptor(t)
	chain := func(levels int) *Message {
		m := New(node).MustSet("id", int64(levels))
		for k := levels - 1; k >= 1; k-- {
			m = New(node).MustSet("id", int64(k)).MustSet("child", m)
		}
		return m
	}
	deepest, err := chain(maxDepth).Marshal()
	if err != nil {
		t.Fatalf("marshal at %d levels: %v", maxDepth, err)
	}
	got, err := Unmarshal(node, deepest)
	if err != nil {
		t.Fatalf("unmarshal at %d levels: %v", maxDepth, err)
	}
	levels := 0
	for m := got; m != nil; m = m.GetMessage("child") {
		levels++
	}
	if levels != maxDepth {
		t.Fatalf("decoded %d levels, want %d", levels, maxDepth)
	}
	if _, err := chain(maxDepth + 1).Marshal(); err != errTooDeep {
		t.Fatalf("marshal at %d levels: %v, want %v", maxDepth+1, err, errTooDeep)
	}
	if _, err := Unmarshal(node, nestedNodes(maxDepth)); err != nil {
		t.Fatalf("unmarshal of %d hand-encoded levels: %v", maxDepth, err)
	}
	if _, err := Unmarshal(node, nestedNodes(maxDepth+1)); err != errTooDeep {
		t.Fatalf("unmarshal at %d levels: %v, want %v", maxDepth+1, err, errTooDeep)
	}
	huge := nestedNodes(3_000_000)
	if _, err := Unmarshal(node, huge); err != errTooDeep {
		t.Fatalf("unmarshal of %d bytes nested 3M levels: %v, want %v", len(huge), err, errTooDeep)
	}
	self := New(node)
	self.MustSet("child", self)
	if _, err := self.Marshal(); err != errTooDeep {
		t.Fatalf("marshal of a message containing itself: %v, want %v", err, errTooDeep)
	}
}

// noteWire is a Note-shaped message: 7 fields, 4 of them strings, and the
// type it is.
func noteWire(t testing.TB) (*Descriptor, []byte) {
	note := MustDescriptor("Note",
		Field("id", 1, TypeInt64),
		Field("zone", 2, TypeString),
		Field("cat", 3, TypeString),
		Field("tag", 4, TypeString),
		Field("score", 5, TypeInt64),
		Field("bytes", 6, TypeInt64),
		Field("body", 7, TypeString),
	)
	body := "a body long enough that copying it would cost an allocation of its own"
	wire, err := New(note).
		MustSet("id", int64(4242)).
		MustSet("zone", "zone-3").
		MustSet("cat", "cat-1").
		MustSet("tag", "tag-17").
		MustSet("score", int64(917)).
		MustSet("bytes", int64(len(body))).
		MustSet("body", body).
		Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return note, wire
}

// TestUnmarshalAllocs pins what decoding a Note allocates. Unmarshal checks
// the bytes without allocating and returns the message, one allocation. The
// first access decodes: the slots are one allocation; each string is a view
// of the wire bytes, so the only allocation left per string is boxing its
// header into the slot, and an int64 is boxed only when it is 256 or more.
// The map-backed message took 13. A Partial decodes into a message it
// reuses, so it allocates only the boxes of what it keeps.
func TestUnmarshalAllocs(t *testing.T) {
	note, wire := noteWire(t)
	for _, c := range []struct {
		what  string
		first func(m *Message)
		want  float64
	}{
		{"untouched", func(*Message) {}, 1},
		// message, slots, 4 string headers, id and score
		{"read once", func(m *Message) { m.Get("zone") }, 8},
	} {
		got := testing.AllocsPerRun(100, func() {
			m, err := Unmarshal(note, wire)
			if err != nil {
				t.Fatal(err)
			}
			c.first(m)
		})
		if got != c.want {
			t.Fatalf("Unmarshal of a Note, %s: %v allocations, want %v", c.what, got, c.want)
		}
	}
	// A Partial checks the fields it skips without allocating; keeping one
	// int64 of 256 or more costs its box.
	for fields, want := range map[string]float64{"": 0, "score": 1} {
		p := NewPartial(note, fields)
		got := testing.AllocsPerRun(100, func() {
			if _, err := p.Decode(wire); err != nil {
				t.Fatal(err)
			}
		})
		if got != want {
			t.Fatalf("Partial keeping %q of a Note: %v allocations, want %v", fields, got, want)
		}
	}
}

// benchSink keeps the benchmarks' results alive.
var benchSink *Message

// BenchmarkUnmarshal is what a record nobody reads costs: the check, and the
// message that holds the checked bytes.
func BenchmarkUnmarshal(b *testing.B) {
	note, wire := noteWire(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := Unmarshal(note, wire)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = m
	}
}

// BenchmarkUnmarshalThenGet is what a record whose fields are read costs: the
// check, then the decode its first Get makes.
func BenchmarkUnmarshalThenGet(b *testing.B) {
	note, wire := noteWire(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := Unmarshal(note, wire)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := m.Get("body"); !ok {
			b.Fatal("no body")
		}
		benchSink = m
	}
}

// TestNestedDecodeIsLinear: a message nested maxDepth levels deep is checked
// once, by Unmarshal, and each level is decoded once, when it is first read,
// checking nothing again. Reading every level allocates two objects a level,
// its message and its slots, and takes about ten times what a chain a tenth
// as deep takes; a check repeated at every level would take a hundred times.
func TestNestedDecodeIsLinear(t *testing.T) {
	node := nodeDescriptor(t)
	readAll := func(data []byte) int {
		m, err := Unmarshal(node, data)
		if err != nil {
			t.Fatal(err)
		}
		levels := 1
		for m = m.GetMessage("child"); m != nil; m = m.GetMessage("child") {
			levels++
		}
		return levels
	}
	deep, shallow := nestedNodes(maxDepth), nestedNodes(maxDepth/10)
	if n := readAll(deep); n != maxDepth {
		t.Fatalf("read %d levels, want %d", n, maxDepth)
	}
	// The few past two a level are the runtime's own, made while it collects
	// the levels of the run before.
	if got := testing.AllocsPerRun(3, func() { readAll(deep) }); got > 2*maxDepth+10 {
		t.Fatalf("reading %d levels: %v allocations, want about %d", maxDepth, got, 2*maxDepth)
	}
	fastest := func(data []byte) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 5; i++ {
			start := time.Now()
			readAll(data)
			best = min(best, time.Since(start))
		}
		return best
	}
	d, s := fastest(deep), fastest(shallow)
	if ratio := float64(d) / float64(s); ratio > 40 {
		t.Fatalf("reading %d levels took %v, %.0f times the %v of %d levels; want about 10", maxDepth, d, ratio, s, maxDepth/10)
	}
}

// TestConcurrentFirstAccess: readers that share a message Unmarshal returned
// may make its first access, and a nested message's, at once. Run it under
// -race.
func TestConcurrentFirstAccess(t *testing.T) {
	example, nested := exampleDescriptor(t)
	wire, err := New(example).MustSet("id", int64(700)).MustAdd("elem", "x").MustAdd("elem", "y").
		MustSet("parent", New(nested).MustSet("a", int64(900)).MustSet("b", "nested")).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 200; round++ {
		m, err := Unmarshal(example, wire)
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			go func() {
				<-start
				if b, _ := m.GetMessage("parent").Get("b"); b != "nested" {
					errs <- fmt.Errorf("parent.b = %v", b)
					return
				}
				if got, err := m.Marshal(); err != nil || !bytes.Equal(got, wire) {
					errs <- fmt.Errorf("marshal: %x, %v; want %x", got, err, wire)
					return
				}
				errs <- nil
			}()
		}
		close(start)
		for g := 0; g < 8; g++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
}
