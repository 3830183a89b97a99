package tuple

import "testing"

// FuzzElementLen holds ElementLen to decodeElement on arbitrary bytes: it
// never panics, it fails exactly where decoding the element fails, and
// otherwise it splits the input where decoding does. Whenever Unpack accepts
// the input, the element lengths sum to its length. `go test` runs the
// committed corpus under testdata/fuzz; CI fuzzes for 30 s more.
func FuzzElementLen(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		sum := 0
		for rest := b; len(rest) > 0; {
			n, err := ElementLen(rest)
			_, next, derr := decodeElement(rest, false)
			if (err == nil) != (derr == nil) {
				t.Fatalf("%x at %d: ElementLen error %v, decode error %v", b, sum, err, derr)
			}
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
