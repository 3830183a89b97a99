package tuple

import (
	"bytes"
	"testing"
)

// FuzzElementLen holds ElementLen to decodeElement on arbitrary bytes: it
// never panics, it fails exactly where decoding the element fails, and
// otherwise it splits the input where decoding does. Whenever Unpack accepts
// the input, the element lengths sum to its length. The in-place readers
// Int64At, BytesAt and StringAt are held to decodeElement on every element
// too. `go test` runs the committed corpus under testdata/fuzz; CI fuzzes for
// 30 s more.
func FuzzElementLen(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		sum := 0
		for rest := b; len(rest) > 0; {
			n, err := ElementLen(rest)
			e, next, derr := decodeElement(rest, false)
			if (err == nil) != (derr == nil) {
				t.Fatalf("%x at %d: ElementLen error %v, decode error %v", b, sum, err, derr)
			}
			checkInPlace(t, rest, e, len(rest)-len(next), derr)
			if err != nil {
				break
			}
			if n != len(rest)-len(next) {
				t.Fatalf("%x at %d: ElementLen %d, decode consumed %d", b, sum, n, len(rest)-len(next))
			}
			sum += n
			rest = rest[n:]
		}
		if _, err := Unpack(b); err == nil && sum != len(b) {
			t.Fatalf("%x: Unpack accepts it but the element lengths sum to %d of %d", b, sum, len(b))
		}
	})
}

// checkInPlace holds the in-place readers to decodeElement's result e (of
// encoded length n, or derr) for the element at the start of b: each accepts
// exactly the elements of its type that it can read without decoding, and
// then returns the same value and length.
func checkInPlace(t *testing.T, b []byte, e interface{}, n int, derr error) {
	t.Helper()
	iv, in, iok := Int64At(b)
	ev, isInt := e.(int64)
	if iok != (derr == nil && isInt) || iok && (iv != ev || in != n) {
		t.Fatalf("%x: Int64At = %d, %d, %v; decode = %#v, %d, %v", b, iv, in, iok, e, n, derr)
	}
	bv, bn, bok := BytesAt(b)
	eb, isBytes := e.([]byte)
	if bok != (derr == nil && isBytes && bytes.IndexByte(eb, 0x00) < 0) || bok && (!bytes.Equal(bv, eb) || bn != n) {
		t.Fatalf("%x: BytesAt = %x, %d, %v; decode = %#v, %d, %v", b, bv, bn, bok, e, n, derr)
	}
	sv, sn, sok := StringAt(b)
	es, isString := e.(string)
	if sok != (derr == nil && isString && bytes.IndexByte([]byte(es), 0x00) < 0) || sok && (string(sv) != es || sn != n) {
		t.Fatalf("%x: StringAt = %q, %d, %v; decode = %#v, %d, %v", b, sv, sn, sok, e, n, derr)
	}
	if bok && cap(bv) != len(bv) || sok && cap(sv) != len(sv) {
		t.Fatalf("%x: an in-place view exposes capacity past its element", b)
	}
}
