package message

import (
	"bytes"
	"fmt"
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
// and marshal again to themselves. Unmarshal only checks the bytes, so the
// input also picks the accessor that decodes them (firstAccess). `go test`
// runs the committed corpus under testdata/fuzz; CI fuzzes for 30 s more.
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
		if diff := firstAccess(m, r, data); diff != "" {
			t.Fatalf("%x: %s", data, diff)
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

// firstAccess makes the first access to m, which Unmarshal returned for data,
// with the accessor data picks by the sum of its bytes: Get of a field,
// Marshal, Clone, String, or Set of a field. It makes the same access to r,
// and describes how the two results differ, "" when they do not.
func firstAccess(m *Message, r *refMessage, data []byte) string {
	pick := 0
	for _, c := range data {
		pick += int(c)
	}
	fd := fuzzNode.Fields()[pick/5%len(fuzzNode.Fields())]
	switch pick % 5 {
	case 0:
		mv, mok := m.Get(fd.Name)
		if rv, rok := r.Get(fd.Name); mok != rok || !sameValue(mv, rv) {
			return fmt.Sprintf("first Get(%s) = %v, %v; want %v, %v", fd.Name, mv, mok, rv, rok)
		}
	case 1:
		mb, merr := m.Marshal()
		if rb, rerr := r.Marshal(); !sameErr(merr, rerr) || !bytes.Equal(mb, rb) {
			return fmt.Sprintf("first Marshal() = %x, %v; want %x, %v", mb, merr, rb, rerr)
		}
	case 2:
		if diff := diffMessage(m.Clone(), r.Clone()); diff != "" {
			return "first Clone(): " + diff
		}
	case 3:
		if ms, rs := m.String(), r.String(); ms != rs {
			return fmt.Sprintf("first String() = %q, want %q", ms, rs)
		}
	case 4:
		v, rv := fuzzValue(fd)
		merr, rerr := m.Set(fd.Name, v), r.Set(fd.Name, rv)
		if merr != nil || rerr != nil {
			return fmt.Sprintf("first Set(%s): %v; reference %v", fd.Name, merr, rerr)
		}
	}
	return ""
}

// fuzzValue is a value of field fd of a Node as Set takes it, and the same
// value as refMessage's Set takes it.
func fuzzValue(fd *FieldDescriptor) (v, ref interface{}) {
	switch fd.Type {
	case TypeMessage:
		v, ref = New(fd.MessageType()), newRef(fd.MessageType())
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
	if ref == nil {
		ref = v
	}
	if fd.Repeated {
		v, ref = []interface{}{v}, []interface{}{ref}
	}
	return v, ref
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
		v, _ := fuzzValue(fd)
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
