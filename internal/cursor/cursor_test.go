package cursor

import (
	"fmt"
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
