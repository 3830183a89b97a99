package message

import (
	"bytes"
	"testing"
)

// fuzzNode is the fixed type FuzzMessageUnmarshal decodes into: every scalar
// type, packed-capable repeated fields, a nested type, and fields that nest
// Node itself, so arbitrary bytes can nest as deep as they are long.
var fuzzNode = func() *Descriptor {
	leaf := MustDescriptor("Leaf", Field("s", 1, TypeString), RepeatedField("n", 2, TypeInt64))
	node := MustDescriptor("Node",
		Field("id", 1, TypeInt64),
		&FieldDescriptor{Name: "child", Number: 2, Type: TypeMessage, MessageTypeName: "Node"},
		Field("name", 3, TypeString),
		RepeatedField("tags", 4, TypeString),
		&FieldDescriptor{Name: "kids", Number: 5, Type: TypeMessage, Repeated: true, MessageTypeName: "Node"},
		RepeatedField("vals", 6, TypeInt64),
		Field("d", 7, TypeDouble),
		Field("f", 8, TypeFloat),
		Field("ok", 9, TypeBool),
		Field("u", 10, TypeUint64),
		Field("raw", 11, TypeBytes),
		Field("e", 12, TypeEnum),
		Field("i32", 13, TypeInt32),
		RepeatedField("ds", 14, TypeDouble),
		RepeatedField("fs", 15, TypeFloat),
		MessageField("leaf", 16, leaf),
		Field("far", 1<<29-1, TypeString),
	)
	reg := NewRegistry()
	for _, d := range []*Descriptor{leaf, node} {
		if err := reg.Add(d); err != nil {
			panic(err)
		}
	}
	if err := reg.Validate(); err != nil {
		panic(err)
	}
	return node
}()

// FuzzMessageUnmarshal holds Unmarshal to refMessage, the map-backed decoder it
// replaced, on arbitrary bytes: it never panics, it fails exactly where the
// reference fails, with the same error (apart from nesting past maxDepth,
// which only Unmarshal refuses), and a message it accepts agrees with
// the reference's field by field and marshals to the same bytes, which decode
// and marshal again to themselves. `go test` runs the committed corpus under
// testdata/fuzz; CI fuzzes for 30 s more.
func FuzzMessageUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(fuzzNode, data)
		r, rerr := refUnmarshal(fuzzNode, data)
		if err == errTooDeep && rerr == nil {
			return // nested past maxDepth, which the reference does not bound
		}
		if !sameErr(err, rerr) {
			t.Fatalf("%x: error %v, reference %v", data, err, rerr)
		}
		if err != nil {
			return
		}
		if diff := diffMessage(m, r); diff != "" {
			t.Fatalf("%x: %s", data, diff)
		}
		b, err := m.Marshal()
		if err != nil {
			t.Fatalf("%x: marshal: %v", data, err)
		}
		again, err := Unmarshal(fuzzNode, b)
		if err != nil {
			t.Fatalf("%x: decoding its own bytes %x: %v", data, b, err)
		}
		if b2, err := again.Marshal(); err != nil || !bytes.Equal(b, b2) {
			t.Fatalf("%x: marshals to %x, which re-marshals to %x (%v)", data, b, b2, err)
		}
	})
}
