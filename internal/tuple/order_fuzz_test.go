package tuple

import (
	"bytes"
	"cmp"
	"math"
	"strings"
	"testing"
)

// FuzzTupleOrder holds the encoding to the order it promises: for any two
// tuples read from fuzzer bytes, bytes.Compare of their packed forms agrees in
// sign with compareTuples, which orders the elements themselves (Compare
// compares packed bytes, so it cannot be the reference). Unpacking a packed
// tuple gives one compareTuples finds equal to it. The elements are integers
// of every width and sign (uint64 past MaxInt64 among them), floats and
// doubles (-0 and NaNs among them), strings and bytes holding 0x00, nil,
// bools, UUIDs, versionstamps and nested tuples. `go test` runs the committed
// corpus under testdata/fuzz; CI fuzzes for 30 s more.
func FuzzTupleOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ta, tb := (&fuzzReader{a}).tuple(0), (&fuzzReader{b}).tuple(0)
		pa, pb := ta.Pack(), tb.Pack()
		if got, want := sign(bytes.Compare(pa, pb)), compareTuples(ta, tb); got != want {
			t.Fatalf("%v vs %v: packed bytes compare %d, elements %d", ta, tb, got, want)
		}
		if u, err := Unpack(pa); err != nil || compareTuples(u, ta) != 0 {
			t.Fatalf("%v packs to %x, which unpacks to %v (%v)", ta, pa, u, err)
		}
	})
}

// fuzzReader reads tuples from fuzzer bytes: a count, then per element a kind
// byte and the bytes its value needs. Bytes past the end read as zero.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *fuzzReader) uint(n int) uint64 {
	var u uint64
	for i := 0; i < n; i++ {
		u = u<<8 | uint64(r.byte())
	}
	return u
}

func (r *fuzzReader) bytes(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = r.byte()
	}
	return out
}

func (r *fuzzReader) tuple(depth int) Tuple {
	t := Tuple{}
	for n := r.byte() % 5; n > 0; n-- {
		t = append(t, r.elem(depth))
	}
	return t
}

// specials are the doubles whose order the encoding's bit tricks must get
// right; a float takes one of them when its first byte is below len(specials).
var specials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN()}

func (r *fuzzReader) elem(depth int) interface{} {
	switch r.byte() % 12 {
	case 0:
		return nil
	case 1:
		return r.bytes(int(r.byte() % 8))
	case 2:
		return string(r.bytes(int(r.byte() % 8)))
	case 3: // an integer of 0 to 8 bytes, negated when the top bit is set
		c := r.byte()
		v := int64(r.uint(int(c % 9)))
		if c&0x80 != 0 {
			v = -v
		}
		return v
	case 4:
		return uint64(1)<<63 | r.uint(8)
	case 5:
		return uint32(r.uint(4))
	case 6:
		if c := r.byte(); int(c) < len(specials) {
			return float32(specials[c])
		}
		return math.Float32frombits(uint32(r.uint(4)))
	case 7:
		if c := r.byte(); int(c) < len(specials) {
			return specials[c]
		}
		return math.Float64frombits(r.uint(8))
	case 8:
		return r.byte()&1 == 1
	case 9:
		var u UUID
		copy(u[:], r.bytes(16))
		return u
	case 10:
		var v Versionstamp
		copy(v.TransactionVersion[:], r.bytes(10))
		if !v.Complete() {
			v.TransactionVersion[9] = 0xFE // Pack refuses an incomplete one
		}
		v.UserVersion = uint16(r.uint(2))
		return v
	default:
		if depth >= 2 {
			return nil
		}
		return r.tuple(depth + 1)
	}
}

// compareTuples orders tuples element by element, a prefix first.
func compareTuples(a, b Tuple) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := compareElems(a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// typeRank orders the element types: nil, bytes, string, nested tuple,
// integer, float, double, bool, UUID, versionstamp.
func typeRank(e interface{}) int {
	switch e.(type) {
	case nil:
		return 0
	case []byte:
		return 1
	case string:
		return 2
	case Tuple:
		return 3
	case int64, uint64, uint32:
		return 4
	case float32:
		return 5
	case float64:
		return 6
	case bool:
		return 7
	case UUID:
		return 8
	case Versionstamp:
		return 9
	}
	panic("unexpected element type")
}

// compareElems orders two elements by type rank, then by value: integers by
// value whatever their Go type, floats by IEEE 754's totalOrder (-NaN < -Inf <
// ... < -0 < +0 < ... < +Inf < +NaN), false before true, and strings, bytes,
// UUIDs and versionstamps bytewise.
func compareElems(a, b interface{}) int {
	if ra, rb := typeRank(a), typeRank(b); ra != rb {
		return cmp.Compare(ra, rb)
	}
	switch x := a.(type) {
	case nil:
		return 0
	case []byte:
		return bytes.Compare(x, b.([]byte))
	case string:
		return strings.Compare(x, b.(string))
	case Tuple:
		return compareTuples(x, b.(Tuple))
	case float32:
		return totalOrder(uint64(math.Float32bits(x)), uint64(math.Float32bits(b.(float32))), 31)
	case float64:
		return totalOrder(math.Float64bits(x), math.Float64bits(b.(float64)), 63)
	case bool:
		y := b.(bool)
		if x == y {
			return 0
		}
		if !x {
			return -1
		}
		return 1
	case UUID:
		y := b.(UUID)
		return bytes.Compare(x[:], y[:])
	case Versionstamp:
		y := b.(Versionstamp)
		if c := bytes.Compare(x.TransactionVersion[:], y.TransactionVersion[:]); c != 0 {
			return c
		}
		return cmp.Compare(x.UserVersion, y.UserVersion)
	}
	an, am := intValue(a)
	bn, bm := intValue(b)
	switch {
	case an != bn && an:
		return -1
	case an != bn:
		return 1
	case an:
		return cmp.Compare(bm, am)
	}
	return cmp.Compare(am, bm)
}

// intValue splits an integer element into its sign and magnitude, so values
// of every Go type and width compare as integers.
func intValue(e interface{}) (neg bool, mag uint64) {
	switch x := e.(type) {
	case int64:
		if x < 0 {
			return true, uint64(-(x + 1)) + 1
		}
		return false, uint64(x)
	case uint64:
		return false, x
	case uint32:
		return false, uint64(x)
	}
	panic("not an integer")
}

// totalOrder is IEEE 754's totalOrder on two floats' bits, whose sign is bit
// bit: by sign, then by the magnitude's bits, which order non-negative floats
// by value and put NaNs past the infinities, by payload.
func totalOrder(x, y uint64, bit uint) int {
	nx, ny := x>>bit == 1, y>>bit == 1
	if nx != ny {
		if nx {
			return -1
		}
		return 1
	}
	c := cmp.Compare(x&^(1<<bit), y&^(1<<bit))
	if nx {
		return -c
	}
	return c
}
