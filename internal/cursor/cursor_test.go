package cursor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"
)

func drain(t *testing.T, c Cursor[string]) ([]string, NoNextReason, []byte) {
	t.Helper()
	vals, reason, cont, err := Collect(c)
	if err != nil {
		t.Fatal(err)
	}
	return vals, reason, cont
}

func TestSliceCursorAndContinuation(t *testing.T) {
	items := []string{"a", "b", "c", "d"}
	c := FromSlice(items, nil)
	r, err := c.Next()
	if err != nil || !r.OK || r.Value != "a" {
		t.Fatalf("first: %+v %v", r, err)
	}
	// Resume from the continuation after "a".
	c2 := FromSlice(items, r.Continuation)
	vals, reason, _ := drain(t, c2)
	if fmt.Sprint(vals) != "[b c d]" || reason != SourceExhausted {
		t.Fatalf("resumed: %v %v", vals, reason)
	}
}

func TestMapAndFilter(t *testing.T) {
	c := FromSlice([]string{"a", "bb", "ccc", "dddd"}, nil)
	f := Filter(c, func(s string) (bool, error) { return len(s)%2 == 0, nil })
	m := Map(f, func(s string) (string, error) { return s + "!", nil })
	vals, reason, _ := drainAny(t, m)
	if fmt.Sprint(vals) != "[bb! dddd!]" || reason != SourceExhausted {
		t.Fatalf("map/filter: %v", vals)
	}
}

func drainAny(t *testing.T, c Cursor[string]) ([]string, NoNextReason, []byte) {
	t.Helper()
	return drain(t, c)
}

func TestLimitWithResume(t *testing.T) {
	items := []string{"a", "b", "c", "d", "e"}
	c := Limit(FromSlice(items, nil), 2)
	vals, reason, cont := drain(t, c)
	if fmt.Sprint(vals) != "[a b]" || reason != ReturnLimitReached {
		t.Fatalf("page 1: %v %v", vals, reason)
	}
	// The continuation resumes exactly after the last returned row.
	c2 := Limit(FromSlice(items, cont), 2)
	vals, _, cont = drain(t, c2)
	if fmt.Sprint(vals) != "[c d]" {
		t.Fatalf("page 2: %v", vals)
	}
	c3 := Limit(FromSlice(items, cont), 2)
	vals, reason, _ = drain(t, c3)
	if fmt.Sprint(vals) != "[e]" || reason != SourceExhausted {
		t.Fatalf("page 3: %v %v", vals, reason)
	}
}

// TestLimitRepeatsTheSourceHalt: once the source halts under a limit it has
// not spent, every later call returns that same halt, as Cursor's contract
// says, not a return-limit-reached halt at the last value.
func TestLimitRepeatsTheSourceHalt(t *testing.T) {
	c := Limit(FromSlice([]int{1, 2}, nil), 5)
	for i := 1; i <= 2; i++ {
		if r, err := c.Next(); err != nil || !r.OK || r.Value != i {
			t.Fatalf("call %d: %+v %v", i, r, err)
		}
	}
	for call := 3; call <= 4; call++ {
		r, err := c.Next()
		if err != nil || r.OK || r.Reason != SourceExhausted || r.Continuation != nil {
			t.Fatalf("call %d: %+v %v, want source-exhausted with no continuation", call, r, err)
		}
	}
}

func keyOf(s string) []byte { return []byte(s) }

func TestUnionDedup(t *testing.T) {
	a := []string{"a", "c", "e"}
	b := []string{"b", "c", "d"}
	u, err := Union(nil, keyOf,
		func(cont []byte) Cursor[string] { return FromSlice(a, cont) },
		func(cont []byte) Cursor[string] { return FromSlice(b, cont) },
	)
	if err != nil {
		t.Fatal(err)
	}
	vals, reason, _ := drain(t, u)
	if fmt.Sprint(vals) != "[a b c d e]" || reason != SourceExhausted {
		t.Fatalf("union: %v %v", vals, reason)
	}
}

func TestUnionResume(t *testing.T) {
	a := []string{"a", "c", "e", "g"}
	b := []string{"b", "c", "f"}
	build := func(cont []byte) (Cursor[string], error) {
		return Union(cont, keyOf,
			func(c []byte) Cursor[string] { return FromSlice(a, c) },
			func(c []byte) Cursor[string] { return FromSlice(b, c) },
		)
	}
	u, err := build(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Take three values, then resume from the continuation.
	var cont []byte
	var got []string
	for i := 0; i < 3; i++ {
		r, err := u.Next()
		if err != nil || !r.OK {
			t.Fatalf("step %d: %+v %v", i, r, err)
		}
		got = append(got, r.Value)
		cont = r.Continuation
	}
	u2, err := build(cont)
	if err != nil {
		t.Fatal(err)
	}
	rest, reason, _ := drain(t, u2)
	all := append(got, rest...)
	if fmt.Sprint(all) != "[a b c e f g]" || reason != SourceExhausted {
		t.Fatalf("union resume: %v %v", all, reason)
	}
}

func TestIntersection(t *testing.T) {
	a := []string{"a", "b", "d", "f", "g"}
	b := []string{"b", "c", "d", "g"}
	c3 := []string{"b", "d", "e", "g", "h"}
	ic, err := Intersection(nil, keyOf,
		func(cont []byte) Cursor[string] { return FromSlice(a, cont) },
		func(cont []byte) Cursor[string] { return FromSlice(b, cont) },
		func(cont []byte) Cursor[string] { return FromSlice(c3, cont) },
	)
	if err != nil {
		t.Fatal(err)
	}
	vals, reason, _ := drain(t, ic)
	if fmt.Sprint(vals) != "[b d g]" || reason != SourceExhausted {
		t.Fatalf("intersection: %v %v", vals, reason)
	}
}

func TestIntersectionResume(t *testing.T) {
	a := []string{"a", "b", "d", "f"}
	b := []string{"b", "d", "e", "f"}
	build := func(cont []byte) (Cursor[string], error) {
		return Intersection(cont, keyOf,
			func(c []byte) Cursor[string] { return FromSlice(a, c) },
			func(c []byte) Cursor[string] { return FromSlice(b, c) },
		)
	}
	ic, _ := build(nil)
	r, err := ic.Next()
	if err != nil || !r.OK || r.Value != "b" {
		t.Fatalf("first: %+v", r)
	}
	ic2, _ := build(r.Continuation)
	vals, _, _ := drain(t, ic2)
	if fmt.Sprint(vals) != "[d f]" {
		t.Fatalf("resumed intersection: %v", vals)
	}
}

func TestConcat(t *testing.T) {
	build := func(cont []byte) (Cursor[string], error) {
		return Concat(cont,
			func(c []byte) Cursor[string] { return FromSlice([]string{"a", "b"}, c) },
			func(c []byte) Cursor[string] { return FromSlice([]string{"c"}, c) },
		)
	}
	c, err := build(nil)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := c.Next()
	if r.Value != "a" {
		t.Fatalf("concat first: %+v", r)
	}
	c2, _ := build(r.Continuation)
	vals, reason, _ := drain(t, c2)
	if fmt.Sprint(vals) != "[b c]" || reason != SourceExhausted {
		t.Fatalf("concat resume: %v", vals)
	}
}

func TestLimiterRecords(t *testing.T) {
	l := NewLimiter(3, 0, time.Time{}, nil)
	for i := 0; i < 3; i++ {
		if reason, ok := l.TryRecord(10); !ok {
			t.Fatalf("record %d rejected: %v", i, reason)
		}
	}
	if reason, ok := l.TryRecord(10); ok || reason != ScanLimitReached {
		t.Fatalf("4th record admitted: %v %v", reason, ok)
	}
}

func TestLimiterBytes(t *testing.T) {
	l := NewLimiter(0, 100, time.Time{}, nil)
	if _, ok := l.TryRecord(60); !ok {
		t.Fatal("first rejected")
	}
	if _, ok := l.TryRecord(60); !ok {
		t.Fatal("second rejected (byte limit counts after admission)")
	}
	if reason, ok := l.TryRecord(1); ok || reason != ByteLimitReached {
		t.Fatalf("third admitted: %v", reason)
	}
}

func TestLimiterTime(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	l := NewLimiter(0, 0, time.Unix(10, 0), clock)
	if _, ok := l.TryRecord(1); !ok {
		t.Fatal("before deadline rejected")
	}
	now = time.Unix(11, 0)
	if reason, ok := l.TryRecord(1); ok || reason != TimeLimitReached {
		t.Fatalf("after deadline admitted: %v", reason)
	}
}

func TestOutOfBand(t *testing.T) {
	if SourceExhausted.OutOfBand() || ReturnLimitReached.OutOfBand() {
		t.Fatal("in-band reasons misclassified")
	}
	if !ScanLimitReached.OutOfBand() || !TimeLimitReached.OutOfBand() || !ByteLimitReached.OutOfBand() {
		t.Fatal("out-of-band reasons misclassified")
	}
}

func TestUnionPropagatesOutOfBandHalt(t *testing.T) {
	// A child that halts with ScanLimitReached after one value.
	mkLimited := func(cont []byte) Cursor[string] {
		emitted := len(cont) > 0
		return Func[string](func() (Result[string], error) {
			if !emitted {
				emitted = true
				return Result[string]{Value: "a", OK: true, Continuation: []byte("x")}, nil
			}
			return Result[string]{OK: false, Reason: ScanLimitReached, Continuation: []byte("x")}, nil
		})
	}
	u, err := Union(nil, keyOf,
		mkLimited,
		func(cont []byte) Cursor[string] { return FromSlice([]string{"b", "z"}, cont) },
	)
	if err != nil {
		t.Fatal(err)
	}
	vals, reason, cont := drain(t, u)
	if reason != ScanLimitReached {
		t.Fatalf("reason: %v (vals %v)", reason, vals)
	}
	if cont == nil {
		t.Fatal("out-of-band halt must carry a continuation")
	}
}

// TestFromSliceChecksItsContinuation: a position is one shortest uvarint no
// greater than the slice's length. One- and two-byte continuations used to
// panic, reading three bytes of every continuation.
func TestFromSliceChecksItsContinuation(t *testing.T) {
	items := []string{"a", "b", "c", "d"}
	for _, tc := range []struct {
		cont []byte
		want string // "" for a corrupt continuation
	}{
		{[]byte{1}, "[b c d]"},
		{[]byte{4}, "[]"},
		{[]byte{5}, ""},          // past the end
		{[]byte{0x80}, ""},       // truncated
		{[]byte{0x80, 0x01}, ""}, // 128, past the end
		{[]byte{0x81, 0x00}, ""}, // 1, not in its shortest form
		{[]byte{0x02, 0x00}, ""}, // trailing bytes
	} {
		vals, _, _, err := Collect(FromSlice(items, tc.cont))
		if tc.want == "" {
			if !errors.Is(err, ErrCorruptContinuation) {
				t.Errorf("FromSlice(%x) = %v, %v; want a corrupt continuation", tc.cont, vals, err)
			}
		} else if err != nil || fmt.Sprint(vals) != tc.want {
			t.Errorf("FromSlice(%x) = %v, %v; want %s", tc.cont, vals, err, tc.want)
		}
	}
}

// TestCompositeContinuationsAreChecked: a union, intersection or concat
// resumed from bytes it did not write fails as corrupt before building a
// child.
func TestCompositeContinuationsAreChecked(t *testing.T) {
	built := 0
	child := func(c []byte) Cursor[string] { built++; return FromSlice([]string{"a"}, c) }
	union := func(c []byte) (Cursor[string], error) { return Union(c, keyOf, child, child) }
	intersection := func(c []byte) (Cursor[string], error) { return Intersection(c, keyOf, child, child) }
	concat := func(c []byte) (Cursor[string], error) { return Concat(c, child, child) }
	two := AppendPart(AppendPart([]byte{kindUnion}, []byte{1}), nil)
	for _, tc := range []struct {
		name   string
		decode func([]byte) (Cursor[string], error)
		cont   []byte
	}{
		{"union as intersection", intersection, two},
		{"union with one child", union, two[:3]},
		{"union with three children", union, append(append([]byte{}, two...), 0)},
		{"union with a truncated part", union, []byte{kindUnion, 3, 'x'}},
		{"union in JSON", union, []byte(`[{"c":"AQ=="},{"d":true}]`)},
		{"concat past its children", concat, AppendPart([]byte{kindConcat, 2}, []byte{1})},
		{"concat with no part", concat, []byte{kindConcat, 0, 0}},
		{"concat with trailing bytes", concat, AppendPart([]byte{kindConcat, 0}, []byte{1, 0})[:4:4]},
		{"concat in JSON", concat, []byte(`{"i":1}`)},
		{"a key", union, []byte("\x02app\x00\x15\x01")},
	} {
		if c, err := tc.decode(tc.cont); !errors.Is(err, ErrCorruptContinuation) || built != 0 {
			t.Errorf("%s (%x): %v, %v, %d children built; want a corrupt continuation and none", tc.name, tc.cont, c, err, built)
		}
		built = 0
	}
	// Frames it wrote resume: a done child is not built again.
	u, err := union([]byte{kindUnion, 2, 1, 0})
	if vals, _, _, cerr := Collect(u); err != nil || cerr != nil || fmt.Sprint(vals) != "[]" || built != 1 {
		t.Errorf("union resumed past a, with its second child done: %v, %v %v, %d built", vals, err, cerr, built)
	}
}

// FuzzContinuationFrame: any bytes handed to the union, intersection and
// concat decoders over zero to three children, or read as the façade's frame
// (a skip count of at most skip, then the plan's part), either fail with
// ErrCorruptContinuation or decode to parts that encode back to the same
// bytes, and never panic. So a frame of another kind, with a part too many or
// too few, with trailing bytes or with a count above skip fails.
func FuzzContinuationFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, cont []byte, children uint8, skip uint16) {
		n := int(children % 4)
		handed := make([][]byte, n) // what each child was built from
		built := make([]bool, n)
		builders := make([]func([]byte) Cursor[string], n)
		for i := range builders {
			builders[i] = func(c []byte) Cursor[string] {
				handed[i], built[i] = c, true
				return FromSlice[string](nil, nil)
			}
		}
		check := func(what string, err error, encode func() []byte) {
			if err != nil {
				if !errors.Is(err, ErrCorruptContinuation) {
					t.Fatalf("%s(%x) over %d children: %v, want a corrupt continuation", what, cont, n, err)
				}
				return
			}
			if len(cont) == 0 {
				return
			}
			if enc := encode(); !bytes.Equal(enc, cont) {
				t.Fatalf("%s(%x) over %d children encodes back to %x", what, cont, n, enc)
			}
		}
		u, err := Union(cont, keyOf, builders...)
		check("Union", err, func() []byte { return u.(*merge[string]).composite() })
		i, err := Intersection(cont, keyOf, builders...)
		check("Intersection", err, func() []byte { return i.(*merge[string]).composite() })
		clear(built)
		_, err = Concat(cont, builders...)
		check("Concat", err, func() []byte {
			at := slices.Index(built, true)
			return AppendPart(binary.AppendUvarint([]byte{kindConcat}, uint64(at)), handed[at])
		})
		r := ReadFrame(cont, 'q')
		count := r.Uvarint(uint64(skip) + 1)
		plan, ok := r.Part()
		check("the façade's frame", r.Close(), func() []byte {
			if count > uint64(skip) {
				t.Fatalf("(%x) read a count of %d, above %d", cont, count, skip)
			}
			frame := binary.AppendUvarint([]byte{'q'}, count)
			if !ok {
				return append(frame, 0)
			}
			return AppendPart(frame, plan)
		})
	})
}
