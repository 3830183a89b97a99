package tuple

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, in Tuple) Tuple {
	t.Helper()
	packed := in.Pack()
	out, err := Unpack(packed)
	if err != nil {
		t.Fatalf("Unpack(%x): %v", packed, err)
	}
	return out
}

func TestPackUnpackScalars(t *testing.T) {
	cases := []Tuple{
		{nil},
		{int64(0)},
		{int64(1)},
		{int64(-1)},
		{int64(255)},
		{int64(256)},
		{int64(-255)},
		{int64(-256)},
		{int64(math.MaxInt64)},
		{int64(math.MinInt64 + 1)},
		{"hello"},
		{""},
		{"with\x00null"},
		{[]byte{}},
		{[]byte{0x00, 0xFF, 0x00}},
		{true},
		{false},
		{float64(3.14)},
		{float64(-3.14)},
		{float64(0)},
		{float32(1.5)},
		{UUID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}},
	}
	for _, in := range cases {
		out := roundTrip(t, in)
		if !reflect.DeepEqual(normalize(in), normalize(out)) {
			t.Errorf("round trip %v -> %v", in, out)
		}
	}
}

// normalize maps empty non-nil byte slices to a canonical form for comparison.
func normalize(t Tuple) Tuple {
	out := make(Tuple, len(t))
	for i, e := range t {
		switch v := e.(type) {
		case []byte:
			if len(v) == 0 {
				out[i] = []byte(nil)
			} else {
				out[i] = v
			}
		case Tuple:
			out[i] = normalize(v)
		default:
			out[i] = e
		}
	}
	return out
}

func TestPackUnpackCompound(t *testing.T) {
	in := Tuple{"users", int64(42), Tuple{"nested", int64(-7), nil}, []byte{1, 2}, true}
	out := roundTrip(t, in)
	if !reflect.DeepEqual(normalize(in), normalize(out)) {
		t.Fatalf("round trip %v -> %v", in, out)
	}
}

func TestNestedNull(t *testing.T) {
	in := Tuple{Tuple{nil, "a", nil}}
	out := roundTrip(t, in)
	if !reflect.DeepEqual(normalize(in), normalize(out)) {
		t.Fatalf("round trip %v -> %v", in, out)
	}
}

func TestIntWidths(t *testing.T) {
	vals := []int64{0, 1, -1, 127, 128, -127, -128, 1 << 15, -(1 << 15), 1 << 23,
		1 << 31, -(1 << 31), 1 << 47, math.MaxInt64, math.MinInt64 + 1}
	for _, v := range vals {
		out := roundTrip(t, Tuple{v})
		if out[0].(int64) != v {
			t.Errorf("int64 %d decoded as %v", v, out[0])
		}
	}
}

func TestLargeUint64(t *testing.T) {
	v := uint64(math.MaxUint64)
	out := roundTrip(t, Tuple{v})
	if got, ok := out[0].(uint64); !ok || got != v {
		t.Fatalf("uint64 max decoded as %T %v", out[0], out[0])
	}
}

func TestOrderPreservation(t *testing.T) {
	tuples := []Tuple{
		{nil},
		{[]byte{0x00}},
		{[]byte{0x01}},
		{""},
		{"a"},
		{"a", int64(1)},
		{"a", int64(2)},
		{"b"},
		{int64(math.MinInt64 + 1)},
		{int64(-1000000)},
		{int64(-256)},
		{int64(-1)},
		{int64(0)},
		{int64(1)},
		{int64(255)},
		{int64(70000)},
		{int64(math.MaxInt64)},
		{float64(math.Inf(-1))},
		{float64(-1e10)},
		{float64(-1)},
		{float64(0)},
		{float64(1)},
		{float64(math.Inf(1))},
		{false},
		{true},
	}
	// Within each type class, packed order must match listed order.
	for i := 1; i < len(tuples); i++ {
		a, b := tuples[i-1], tuples[i]
		if sameTypeClass(a[0], b[0]) {
			if bytes.Compare(a.Pack(), b.Pack()) >= 0 {
				t.Errorf("order violated: %v should pack before %v", a, b)
			}
		}
	}
}

func sameTypeClass(a, b interface{}) bool {
	class := func(x interface{}) int {
		switch x.(type) {
		case nil:
			return 0
		case []byte:
			return 1
		case string:
			return 2
		case int64:
			return 3
		case float64:
			return 4
		case bool:
			return 5
		}
		return 6
	}
	return class(a) == class(b)
}

func TestIntOrderProperty(t *testing.T) {
	f := func(a, b int64) bool {
		// MinInt64 has no positive counterpart; skip to stay in supported range.
		if a == math.MinInt64 || b == math.MinInt64 {
			return true
		}
		pa, pb := (Tuple{a}).Pack(), (Tuple{b}).Pack()
		switch {
		case a < b:
			return bytes.Compare(pa, pb) < 0
		case a > b:
			return bytes.Compare(pa, pb) > 0
		default:
			return bytes.Equal(pa, pb)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestStringOrderProperty(t *testing.T) {
	f := func(a, b string) bool {
		pa, pb := (Tuple{a}).Pack(), (Tuple{b}).Pack()
		want := bytes.Compare([]byte(a), []byte(b))
		got := bytes.Compare(pa, pb)
		return sign(want) == sign(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		in := randomTuple(rng, 3)
		out := roundTrip(t, in)
		if !reflect.DeepEqual(normalize(in), normalize(out)) {
			t.Fatalf("round trip %v -> %v", in, out)
		}
		// ElementLen splits the packing into the packings of the elements.
		rest := in.Pack()
		for _, e := range in {
			n, err := ElementLen(rest)
			if want := len(Tuple{e}.Pack()); err != nil || n != want {
				t.Fatalf("%v: ElementLen of %v = %d, %v; want %d", in, e, n, err, want)
			}
			rest = rest[n:]
		}
	}
}

func randomTuple(rng *rand.Rand, depth int) Tuple {
	n := rng.Intn(5)
	t := make(Tuple, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(8) {
		case 0:
			t = append(t, nil)
		case 1:
			b := make([]byte, rng.Intn(10))
			rng.Read(b)
			t = append(t, b)
		case 2:
			b := make([]byte, rng.Intn(10))
			for j := range b {
				b[j] = byte('a' + rng.Intn(26))
			}
			t = append(t, string(b))
		case 3:
			t = append(t, rng.Int63()-rng.Int63())
		case 4:
			t = append(t, rng.NormFloat64())
		case 5:
			t = append(t, rng.Intn(2) == 0)
		case 6:
			var u UUID
			rng.Read(u[:])
			t = append(t, u)
		case 7:
			if depth > 0 {
				t = append(t, randomTuple(rng, depth-1))
			} else {
				t = append(t, int64(rng.Intn(100)))
			}
		}
	}
	return t
}

func TestTupleRange(t *testing.T) {
	prefixT := Tuple{"users", int64(1)}
	begin, end := prefixT.Range()
	inside := Tuple{"users", int64(1), "x"}.Pack()
	outsideLow := Tuple{"users", int64(0), "x"}.Pack()
	outsideHigh := Tuple{"users", int64(2)}.Pack()
	if !(bytes.Compare(begin, inside) <= 0 && bytes.Compare(inside, end) < 0) {
		t.Errorf("inside key not within range")
	}
	if bytes.Compare(outsideLow, begin) >= 0 {
		t.Errorf("low key not excluded")
	}
	if bytes.Compare(outsideHigh, end) < 0 {
		t.Errorf("high key not excluded")
	}
	// The bare prefix itself is excluded (it has no next element).
	if p := prefixT.Pack(); bytes.Compare(p, begin) >= 0 {
		t.Errorf("bare prefix should sort before range begin")
	}
}

func TestStrinc(t *testing.T) {
	got, err := Strinc([]byte{0x01, 0x02, 0xFF})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0x01, 0x03}) {
		t.Fatalf("Strinc: got %x", got)
	}
	if _, err := Strinc([]byte{0xFF, 0xFF}); err == nil {
		t.Fatal("Strinc of all-0xFF should fail")
	}
}

func TestVersionstamp(t *testing.T) {
	v := IncompleteVersionstamp(5)
	if v.Complete() {
		t.Fatal("incomplete versionstamp reported complete")
	}
	if _, err := (Tuple{v}).PackWithVersionstamp(nil); err != nil {
		t.Fatalf("PackWithVersionstamp: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Pack of incomplete versionstamp should panic")
		}
	}()
	_ = (Tuple{v}).Pack()
}

func TestPackWithVersionstampOffset(t *testing.T) {
	v := IncompleteVersionstamp(9)
	packed, err := Tuple{"sync", v}.PackWithVersionstamp([]byte{0xAA})
	if err != nil {
		t.Fatal(err)
	}
	// Offset is the last 4 bytes, little endian; the placeholder must be
	// 10 bytes of 0xFF at that offset.
	off := int(uint32(packed[len(packed)-4]) | uint32(packed[len(packed)-3])<<8 |
		uint32(packed[len(packed)-2])<<16 | uint32(packed[len(packed)-1])<<24)
	for i := 0; i < 10; i++ {
		if packed[off+i] != 0xFF {
			t.Fatalf("placeholder byte %d at offset %d is %x", i, off, packed[off+i])
		}
	}
}

func TestCompleteVersionstampRoundTrip(t *testing.T) {
	var v Versionstamp
	copy(v.TransactionVersion[:], []byte{0, 0, 0, 0, 0, 0, 0, 42, 0, 1})
	v.UserVersion = 7
	out := roundTrip(t, Tuple{v})
	got := out[0].(Versionstamp)
	if got != v {
		t.Fatalf("versionstamp round trip: %v != %v", got, v)
	}
}

func TestVersionstampOrdering(t *testing.T) {
	mk := func(commit uint64, user uint16) Versionstamp {
		var v Versionstamp
		for i := 0; i < 8; i++ {
			v.TransactionVersion[7-i] = byte(commit >> (8 * uint(i)))
		}
		v.UserVersion = user
		return v
	}
	vs := []Versionstamp{mk(1, 0), mk(1, 1), mk(2, 0), mk(100, 65535), mk(101, 0)}
	var packed [][]byte
	for _, v := range vs {
		packed = append(packed, Tuple{v}.Pack())
	}
	if !sort.SliceIsSorted(packed, func(i, j int) bool { return bytes.Compare(packed[i], packed[j]) < 0 }) {
		t.Fatal("versionstamps do not sort by (commit, user) order")
	}
}

func TestCompareAndEqual(t *testing.T) {
	a := Tuple{"a", int64(1)}
	b := Tuple{"a", int64(2)}
	if Compare(a, b) >= 0 {
		t.Error("a should compare before b")
	}
	if !Equal(a, Tuple{"a", int64(1)}) {
		t.Error("equal tuples reported unequal")
	}
}

func TestAppendDoesNotAlias(t *testing.T) {
	base := make(Tuple, 1, 4)
	base[0] = "a"
	x := base.Append("x")
	y := base.Append("y")
	if x[1] == y[1] {
		t.Fatal("Append aliased underlying array")
	}
}

func TestUnpackErrors(t *testing.T) {
	bad := [][]byte{
		{0x01, 'a'},       // unterminated bytes
		{0x02},            // unterminated string
		{0x05, 0x02, 'a'}, // unterminated nested
		{0x99},            // unknown code
		{0x1C, 0x01},      // truncated int
		{0x21, 0x00},      // truncated double
		{0x30, 0x01},      // truncated uuid
	}
	for _, b := range bad {
		if _, err := Unpack(b); err == nil {
			t.Errorf("Unpack(%x) should fail", b)
		}
	}
}

// TestAppendsMatchPack: the unboxed appends encode what Pack does, for the
// elements that escape (a zero byte, a nested null) and every int width.
func TestAppendsMatchPack(t *testing.T) {
	prefix := []byte{0xAA}
	for _, s := range []string{"", "a", "a\x00b", "\x00\x00", "whale"} {
		if got, want := AppendString(prefix, s), append(prefix, Tuple{s}.Pack()...); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %x, want %x", s, got, want)
		}
	}
	for _, v := range []int64{0, 1, -1, 255, 256, -256, 1 << 40, math.MaxInt64, math.MinInt64} {
		if got, want := AppendInt64(prefix, v), append(prefix, Tuple{v}.Pack()...); !bytes.Equal(got, want) {
			t.Errorf("AppendInt64(%d) = %x, want %x", v, got, want)
		}
	}
	for _, n := range []Tuple{{}, {int64(7)}, {"a\x00", nil, int64(-3)}, {Tuple{nil, "x"}, []byte{0}}} {
		if got, want := AppendNested(prefix, n), append(prefix, Tuple{n}.Pack()...); !bytes.Equal(got, want) {
			t.Errorf("AppendNested(%v) = %x, want %x", n, got, want)
		}
	}
}
