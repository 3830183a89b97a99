package core

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// FuzzRecordKeySplit holds splitRecordKey and tuple.Int64At, which read a
// record key by element boundaries, to unpacking it: on any bytes under the
// store's prefix they never panic, they accept exactly the keys whose
// unpacking yields (sub, pk..., suffix), and they return the same primary key
// and suffix. `go test` runs the committed corpus under testdata/fuzz; CI
// fuzzes for 30 s more.
func FuzzRecordKeySplit(f *testing.F) {
	s := &Store{space: subspace.FromTuple(tuple.Tuple{"tenant", int64(1)})}
	f.Fuzz(func(t *testing.T, b []byte) {
		key := append(s.space.Bytes(), b...)
		pk, suffix, err := s.splitRecordKey(key)
		ref, rerr := s.space.Unpack(key)
		if rerr == nil && len(ref) < 2 {
			rerr = errors.New("no suffix")
		}
		if (err == nil) != (rerr == nil) {
			t.Fatalf("%x: split error %v, unpack error %v", b, err, rerr)
		}
		if err != nil {
			return
		}
		got, err := tuple.Unpack(pk)
		if want := ref[1 : len(ref)-1]; err != nil || !sameElems(got, want) {
			t.Fatalf("%x: primary key %#v (%v), unpack gives %#v", b, got, err, want)
		}
		v, n, ok := tuple.Int64At(suffix)
		want, isInt := ref[len(ref)-1].(int64)
		if ok != isInt || ok && (v != want || n != len(suffix)) {
			t.Fatalf("%x: suffix %d, %d, %v; unpack gives %#v", b, v, n, ok, ref[len(ref)-1])
		}
		if cap(pk) != len(pk) {
			t.Fatalf("%x: the primary key exposes capacity past its elements", b)
		}
	})
}

// sameElems reports whether two decoded tuples hold the same elements of the
// same types, comparing floats by their bits so that NaN equals itself.
func sameElems(a, b tuple.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		switch x := a[i].(type) {
		case float32:
			y, ok := b[i].(float32)
			if !ok || math.Float32bits(x) != math.Float32bits(y) {
				return false
			}
		case float64:
			y, ok := b[i].(float64)
			if !ok || math.Float64bits(x) != math.Float64bits(y) {
				return false
			}
		case tuple.Tuple:
			y, ok := b[i].(tuple.Tuple)
			if !ok || !sameElems(x, y) {
				return false
			}
		default:
			if !reflect.DeepEqual(a[i], b[i]) {
				return false
			}
		}
	}
	return true
}

// FuzzEnvelopeView holds readEnvelope, which reads the (type name, wire
// bytes) envelope in place when it can, to unpacking it as assembleRecord did
// before: on any bytes it never panics, it fails exactly where unpacking
// fails, with the same error, and it returns the same name and wire bytes.
func FuzzEnvelopeView(f *testing.F) {
	f.Fuzz(func(t *testing.T, envelope []byte) {
		name, wire, err := readEnvelope(envelope)
		var refName string
		var refWire []byte
		var refErr error
		if tup, uerr := tuple.Unpack(envelope); uerr != nil || len(tup) != 2 {
			refErr = errCorruptEnvelope
		} else if n, ok := tup[0].(string); !ok {
			refErr = errCorruptTypeTag
		} else {
			refName = n
			refWire, _ = tup[1].([]byte)
		}
		if err != refErr {
			t.Fatalf("%x: error %v, unpacking gives %v", envelope, err, refErr)
		}
		if string(name) != refName || !bytes.Equal(wire, refWire) {
			t.Fatalf("%x: (%q, %x), unpacking gives (%q, %x)", envelope, name, wire, refName, refWire)
		}
	})
}
