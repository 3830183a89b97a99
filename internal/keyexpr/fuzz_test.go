package keyexpr

import (
	"bytes"
	"testing"
)

// malformedExprs are persisted expressions that once crashed the decoder (a
// nil child) or index evaluation (a split point outside the child's columns).
// The same six shapes are the committed corpus of FuzzKeyExprUnmarshal.
var malformedExprs = []string{
	`{"kind":"nest","name":"a"}`,
	`{"kind":"grouping"}`,
	`{"kind":"keywithvalue"}`,
	`{"kind":"then","children":[null]}`,
	`{"kind":"grouping","child":{"kind":"field","name":"v"},"grouped":-3}`,
	`{"kind":"keywithvalue","child":{"kind":"field","name":"v"},"split":99}`,
}

// TestUnmarshalRejectsMalformed: each shape is a decode error, not a panic.
func TestUnmarshalRejectsMalformed(t *testing.T) {
	for _, s := range malformedExprs {
		if e, err := Unmarshal([]byte(s)); err == nil {
			t.Errorf("%s decoded to %s; want a decode error", s, e)
		}
	}
}

// FuzzKeyExprUnmarshal decodes arbitrary bytes as a persisted expression.
// Unmarshal must never panic, and whatever decodes must round-trip: Marshal,
// Unmarshal and Marshal again give identical bytes. `go test` runs the
// committed corpus under testdata/fuzz; CI fuzzes for 30 s more.
func FuzzKeyExprUnmarshal(f *testing.F) {
	for _, e := range []Expression{
		Then(Field("a"), Nest("p", FieldFan("kids", FanOut)), RecordType()),
		GroupBy(Field("v"), Field("g")),
		KeyWithValue(Then(Field("a"), Field("b")), 1),
		Then(Version(), Literal(int64(7)), Literal("s"), Empty()),
	} {
		data, err := Marshal(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Unmarshal(data)
		if err != nil {
			return
		}
		once, err := Marshal(e)
		if err != nil {
			t.Fatalf("%q decoded to %s, which does not marshal: %v", data, e, err)
		}
		again, err := Unmarshal(once)
		if err != nil {
			t.Fatalf("%q decoded to %s, whose bytes %s do not decode: %v", data, e, once, err)
		}
		twice, err := Marshal(again)
		if err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("%q: marshal round trip changed %s to %s (%v)", data, once, twice, err)
		}
	})
}
