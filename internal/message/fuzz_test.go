package message

import (
	"bytes"
	"math"
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

// FuzzDecodeOnly holds Partial.Decode to Unmarshal on arbitrary bytes and an
// arbitrary subset of Node's fields (bit i of sel keeps the field in slot i):
// it fails exactly where Unmarshal fails, with the same error; every kept
// field equals Unmarshal's; and the message holds no other field and no
// unknown field, though the same Partial decoded a message with every field
// set just before. `go test` runs the committed corpus under testdata/fuzz; CI
// fuzzes for 30 s more.
func FuzzDecodeOnly(f *testing.F) {
	full := New(fuzzNode)
	for _, fd := range fuzzNode.Fields() {
		var v interface{}
		switch fd.Type {
		case TypeMessage:
			v = New(fd.MessageType())
		case TypeString:
			v = "s"
		case TypeBytes:
			v = []byte{0}
		case TypeDouble:
			v = 1.5
		case TypeFloat:
			v = float32(2.5)
		case TypeBool:
			v = true
		case TypeUint64:
			v = uint64(1) << 63
		default:
			v = int64(-300)
		}
		if fd.Repeated {
			v = []interface{}{v}
		}
		full.MustSet(fd.Name, v)
	}
	primer, err := full.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, sel uint32, data []byte) {
		var kept []string
		for i, fd := range fuzzNode.Fields() {
			if sel>>i&1 == 1 {
				kept = append(kept, fd.Name)
			}
		}
		p := NewPartial(fuzzNode, kept...)
		if _, err := p.Decode(primer); err != nil {
			t.Fatalf("decoding a message with every field set: %v", err)
		}
		got, err := p.Decode(data)
		want, werr := Unmarshal(fuzzNode, data)
		if !sameErr(err, werr) {
			t.Fatalf("%x keeping %v: error %v, Unmarshal %v", data, kept, err, werr)
		}
		if err != nil {
			return
		}
		for i, fd := range fuzzNode.Fields() {
			gv, gok := got.Get(fd.Name)
			if sel>>i&1 == 0 {
				if gok {
					t.Fatalf("%x keeping %v: holds %s = %v", data, kept, fd.Name, gv)
				}
				continue
			}
			if wv, wok := want.Get(fd.Name); gok != wok || !sameDecoded(gv, wv) {
				t.Fatalf("%x keeping %v: %s = %v, %v; Unmarshal %v, %v", data, kept, fd.Name, gv, gok, wv, wok)
			}
		}
		if n := got.UnknownFieldCount(); n != 0 {
			t.Fatalf("%x keeping %v: holds %d unknown fields", data, kept, n)
		}
	})
}

// sameDecoded compares what Get returned from two Messages: equal dynamic
// types and values, floats by their bits, nested messages by their bytes.
func sameDecoded(a, b interface{}) bool {
	switch x := a.(type) {
	case *Message:
		y, ok := b.(*Message)
		return ok && x.Descriptor() == y.Descriptor() && Equal(x, y)
	case []interface{}:
		y, ok := b.([]interface{})
		if !ok || len(x) != len(y) || (x == nil) != (y == nil) {
			return false
		}
		for i := range x {
			if !sameDecoded(x[i], y[i]) {
				return false
			}
		}
		return true
	case []byte:
		y, ok := b.([]byte)
		return ok && bytes.Equal(x, y) && (x == nil) == (y == nil)
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case float32:
		y, ok := b.(float32)
		return ok && math.Float32bits(x) == math.Float32bits(y)
	}
	return a == b
}
