package keyexpr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"recordlayer/internal/message"
	"recordlayer/internal/tuple"
)

// The packer's test schema: a record type P with a field of every scalar
// type, repeated scalars, a nested message and a repeated one; Q, which lacks
// most of P's fields, so that an expression over P meets missing fields.
var (
	packInner = message.MustDescriptor("PackInner", message.Field("a", 1, message.TypeInt64))
	packSub   = message.MustDescriptor("PackSub",
		message.Field("a", 1, message.TypeInt64),
		message.Field("b", 2, message.TypeString),
		message.RepeatedField("tags", 3, message.TypeString),
		message.RepeatedMessageField("inner", 4, packInner),
		message.MessageField("one", 5, packInner),
	)
	packP = message.MustDescriptor("P",
		message.Field("i", 1, message.TypeInt64),
		message.Field("u", 2, message.TypeUint64),
		message.Field("s", 3, message.TypeString),
		message.Field("by", 4, message.TypeBytes),
		message.Field("b", 5, message.TypeBool),
		message.Field("d", 6, message.TypeDouble),
		message.Field("f", 7, message.TypeFloat),
		message.RepeatedField("ri", 8, message.TypeInt64),
		message.RepeatedField("rs", 9, message.TypeString),
		message.MessageField("sub", 10, packSub),
		message.RepeatedMessageField("rsub", 11, packSub),
	)
	packQ = message.MustDescriptor("Q", message.Field("i", 1, message.TypeInt64))
)

const packFn = "keyexpr_packer_test"

func init() {
	// A registered function that fans out over ri, emits a version column,
	// and returns an integer of another type than int64.
	RegisterFunction(packFn, 3, func(ctx *Context) ([]tuple.Tuple, error) {
		m := ctx.Message
		if m == nil {
			return []tuple.Tuple{{nil, uint32(0), tuple.IncompleteVersionstamp(ctx.PendingUserVersion)}}, nil
		}
		if s, _ := m.Get("s"); s == "fail" {
			return nil, fmt.Errorf("keyexpr test function: asked to fail")
		}
		var out []tuple.Tuple
		for _, v := range m.GetRepeated("ri") {
			vs := tuple.IncompleteVersionstamp(ctx.PendingUserVersion)
			if ctx.HasVersion {
				vs = ctx.Version
			}
			out = append(out, tuple.Tuple{v, uint32(7), vs})
		}
		return out, nil
	})
}

// packerCorpus is every expression shape the metadata uses, and the shapes
// that meet each of Evaluate's errors: fields missing from the record type,
// fan types that do not fit the field, nests through non-messages, products
// with an empty factor before a failing one, two incomplete versionstamps in
// one key, and splits inside a nest.
func packerCorpus() []Expression {
	return []Expression{
		Field("i"), Field("u"), Field("s"), Field("by"), Field("b"), Field("d"), Field("f"),
		FieldFan("ri", FanOut), FieldFan("rs", FanOut), FieldFan("ri", FanConcatenate), FieldFan("rs", FanConcatenate),
		Field("missing"), Field("ri"), FieldFan("i", FanOut), FieldFan("s", FanConcatenate), Field("sub"),
		FieldFan("rsub", FanOut), FieldFan("rsub", FanConcatenate),
		Nest("sub", Field("a")), Nest("sub", Then(Field("a"), Field("b"))),
		Nest("sub", FieldFan("tags", FanOut)), Nest("sub", FieldFan("tags", FanConcatenate)),
		NestFan("rsub", FanOut, Field("a")), NestFan("rsub", FanOut, Then(Field("b"), FieldFan("tags", FanOut))),
		Nest("sub", NestFan("inner", FanOut, Field("a"))), NestFan("rsub", FanOut, NestFan("inner", FanOut, Field("a"))),
		Nest("sub", Nest("one", Field("a"))), NestFan("rsub", FanOut, Nest("one", Field("a"))),
		Nest("i", Field("a")), NestFan("sub", FanOut, Field("a")), Nest("rsub", Field("a")), NestFan("rsub", FanConcatenate, Field("a")),
		Nest("sub", Field("missing")), NestFan("rsub", FanOut, Field("missing")),
		Then(Field("s"), Field("i")), Then(Field("i"), FieldFan("ri", FanOut), FieldFan("rs", FanOut)),
		Then(FieldFan("ri", FanOut), Field("missing")), Then(FieldFan("rs", FanOut), Nest("sub", FieldFan("tags", FanOut))),
		Then(Nest("sub", Then(Field("a"), FieldFan("tags", FanOut))), FieldFan("ri", FanOut)),
		GroupBy(Field("i"), Field("s")), GroupBy(Field("u"), Field("s")), Ungrouped(Field("i")), Ungrouped(Field("d")),
		GroupBy(Empty(), FieldFan("rs", FanOut)), GroupBy(Field("i"), Nest("sub", Then(Field("a"), Field("b")))),
		GroupBy(FieldFan("ri", FanOut), Field("b")),
		KeyWithValue(Then(Field("s"), Field("i"), Field("d")), 1), KeyWithValue(Nest("sub", Then(Field("a"), Field("b"))), 1),
		KeyWithValue(Then(FieldFan("rs", FanOut), Field("i")), 2), KeyWithValue(Field("s"), 0),
		Version(), Then(Field("s"), Version()), Then(Version(), Version()), Then(Version(), Literal(int64(7)), Literal("s"), Empty()),
		RecordType(), Then(RecordType(), Field("i")), Then(Field("a"), Nest("p", FieldFan("kids", FanOut)), RecordType()),
		Literal(int64(7)), Literal("x"), Literal(uint64(math.MaxUint64)), Then(Literal(int64(3)), Empty(), Field("b")),
		Empty(), Then(), Then(Empty(), Empty()),
		MustFunction(packFn), Then(Field("s"), MustFunction(packFn)), NestFan("rsub", FanOut, MustFunction(packFn)),
		GroupBy(MustFunction(packFn), Field("i")), GroupBy(Field("i"), RecordType()),
	}
}

// randPackMessage draws a record of P (or now and then of Q): every field set
// or not, repeated fields of 0, 1 or 3 elements with duplicates, strings and
// bytes with zero bytes in them, integers of every width and sign.
func randPackMessage(r *rand.Rand) *message.Message {
	if r.Intn(12) == 0 {
		return message.New(packQ).MustSet("i", randInt(r))
	}
	m := message.New(packP)
	set := func(name string, v func() interface{}) {
		if r.Intn(3) > 0 {
			m.MustSet(name, v())
		}
	}
	set("i", func() interface{} { return randInt(r) })
	set("u", func() interface{} { return uint64(randInt(r)) ^ uint64(r.Intn(2))<<63 })
	set("s", func() interface{} { return randString(r) })
	set("by", func() interface{} { return []byte(randString(r)) })
	set("b", func() interface{} { return r.Intn(2) == 0 })
	set("d", func() interface{} { return r.NormFloat64() * 1e6 })
	set("f", func() interface{} { return float32(r.NormFloat64()) })
	for i, n := 0, []int{0, 1, 3}[r.Intn(3)]; i < n; i++ {
		m.MustAdd("ri", int64(r.Intn(3))-1) // duplicates are likely
	}
	for i, n := 0, []int{0, 1, 3}[r.Intn(3)]; i < n; i++ {
		m.MustAdd("rs", []string{"a", "b", "a\x00"}[r.Intn(3)])
	}
	if r.Intn(3) > 0 {
		m.MustSet("sub", randPackSub(r))
	}
	for i, n := 0, []int{0, 1, 3}[r.Intn(3)]; i < n; i++ {
		m.MustAdd("rsub", randPackSub(r))
	}
	return m
}

func randPackSub(r *rand.Rand) *message.Message {
	m := message.New(packSub)
	if r.Intn(3) > 0 {
		m.MustSet("a", randInt(r))
	}
	if r.Intn(3) > 0 {
		m.MustSet("b", randString(r))
	}
	for i, n := 0, []int{0, 1, 3}[r.Intn(3)]; i < n; i++ {
		m.MustAdd("tags", []string{"x", "y"}[r.Intn(2)])
	}
	for i, n := 0, []int{0, 1, 3}[r.Intn(3)]; i < n; i++ {
		m.MustAdd("inner", message.New(packInner).MustSet("a", int64(r.Intn(2))))
	}
	if r.Intn(2) == 0 {
		m.MustSet("one", message.New(packInner).MustSet("a", randInt(r)))
	}
	return m
}

func randInt(r *rand.Rand) int64 {
	edges := []int64{0, 1, -1, 255, -256, math.MaxInt64, math.MinInt64}
	if r.Intn(2) == 0 {
		return edges[r.Intn(len(edges))]
	}
	return r.Int63n(1<<uint(r.Intn(62)+1)) - 1<<uint(r.Intn(40))
}

func randString(r *rand.Rand) string {
	return []string{"", "fail", "zone-1", "a\x00b", "\x00", "ünï"}[r.Intn(6)]
}

// randPackContext draws the environment of an evaluation: a record type key
// or none, and a version that is complete, incomplete (a record saved earlier
// in the transaction) or not yet assigned.
func randPackContext(r *rand.Rand, m *message.Message) *Context {
	ctx := &Context{Message: m, PendingUserVersion: uint16(r.Intn(1 << 16))}
	if r.Intn(6) > 0 {
		ctx.RecordTypeKey = []interface{}{"P", int64(3)}[r.Intn(2)]
	}
	switch r.Intn(3) {
	case 0:
		ctx.HasVersion = true
		ctx.Version, _ = tuple.VersionstampFromBytes([]byte{0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 3})
	case 1:
		ctx.HasVersion = true
		ctx.Version = tuple.IncompleteVersionstamp(4)
	}
	return ctx
}

// checkPacker compares the packer with Pack(Evaluate(…)) for one record:
// the same error, or the same keys byte for byte and in order, split at the
// same place, with the same incomplete versionstamp.
func checkPacker(t *testing.T, e Expression, ctx *Context) {
	t.Helper()
	want, werr := e.Evaluate(ctx)
	got, gerr := Compile(e).Pack(NewKeys(nil, nil), ctx)
	if werr != nil || gerr != nil {
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Fatalf("%s over %v: Evaluate fails with %v, the packer with %v", e, ctx.Message, werr, gerr)
		}
		return
	}
	if got.Len() != len(want) {
		t.Fatalf("%s over %v: %d keys, Evaluate gives %d: %v", e, ctx.Message, got.Len(), len(want), want)
	}
	split := -1
	switch x := e.(type) {
	case GroupingExpression:
		split = x.GroupingCount()
	case KeyWithValueExpression:
		split = x.KeyColumns()
	}
	for i, tup := range want {
		wantKey, wantStamp, wantErr := packRef(tup)
		stamp, err := got.Incomplete(i)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s key %d (%v): incomplete stamp error %v, want %v", e, i, tup, err, wantErr)
		}
		if err != nil {
			continue // no versionstamped key holds two stamps
		}
		if stamp != wantStamp {
			t.Fatalf("%s key %d (%v): incomplete stamp at %d, want %d", e, i, tup, stamp, wantStamp)
		}
		if !bytes.Equal(got.Key(i), wantKey) {
			t.Fatalf("%s key %d: %x, want %x (%v)", e, i, got.Key(i), wantKey, tup)
		}
		if split < 0 {
			if len(got.Tail(i)) != 0 {
				t.Fatalf("%s key %d: tail %x with no split", e, i, got.Tail(i))
			}
			continue
		}
		head, _, _ := packRef(tup[:split])
		if !bytes.Equal(got.Head(i), head) {
			t.Fatalf("%s key %d: head %x, want %x (%v)", e, i, got.Head(i), head, tup)
		}
		if len(tup) == split+1 {
			w, wok := tup[split].(int64)
			if g, gok := got.TailInt64(i); gok != wok || g != w {
				t.Fatalf("%s key %d: tail int64 %d, %v, want %d, %v (%T)", e, i, g, gok, w, wok, tup[split])
			}
		}
	}
}

// packRef packs an evaluated tuple as the maintainers did: Pack, or, for a
// tuple holding an incomplete versionstamp, PackWithVersionstamp's key and
// placeholder offset (-1 when there is none).
func packRef(t tuple.Tuple) ([]byte, int, error) {
	if !t.HasIncompleteVersionstamp() {
		return t.Pack(), -1, nil
	}
	b, err := t.PackWithVersionstamp(nil)
	if err != nil {
		return nil, 0, err
	}
	n := len(b) - 4
	return b[:n], int(binary.LittleEndian.Uint32(b[n:])), nil
}

// TestPackerMatchesEvaluate: over seeded records with missing, repeated,
// duplicated, mistyped and unset nested fields, every expression shape of the
// corpus packs exactly the keys Pack(Evaluate(…)) does, and fails exactly
// where Evaluate fails.
func TestPackerMatchesEvaluate(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	corpus := packerCorpus()
	for n := 0; n < 600; n++ {
		ctx := randPackContext(r, randPackMessage(r))
		for _, e := range corpus {
			checkPacker(t, e, ctx)
		}
	}
	for _, e := range corpus { // an absent record: every field unset
		checkPacker(t, e, &Context{RecordTypeKey: "P"})
	}
}

// TestHasSearchesManyKeys: Has finds every key a fan-out packed, and no key
// that differs from all of them, a prefix or an extension of one included.
func TestHasSearchesManyKeys(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	p := Compile(Then(FieldFan("rs", FanOut), FieldFan("ri", FanOut)))
	for _, n := range []int{3, 5, 9, 40} {
		m := message.New(packP)
		for i := 0; i < n; i++ {
			m.MustAdd("rs", randString(r)).MustAdd("ri", int64(r.Intn(n)))
		}
		keys, err := p.Pack(NewKeys(nil, nil), &Context{Message: m})
		if err != nil {
			t.Fatal(err)
		}
		probe := keys.Key(0)
		for i := 0; i < keys.Len(); i++ {
			if !keys.Has(keys.Key(i)) {
				t.Fatalf("%d keys: key %d (%x) not found", keys.Len(), i, keys.Key(i))
			}
		}
		for _, absent := range [][]byte{nil, {0x00}, {0xff}, append(append([]byte(nil), probe...), 0x00), probe[:len(probe)-1]} {
			linear := false
			for i := 0; i < keys.Len(); i++ {
				linear = linear || bytes.Equal(keys.Key(i), absent)
			}
			if keys.Has(absent) != linear {
				t.Fatalf("%d keys: Has(%x) = %v, comparing each says %v", keys.Len(), absent, !linear, linear)
			}
		}
	}
}

// TestPackAllocs: a record's keys pack into stack arrays with no allocation.
func TestPackAllocs(t *testing.T) {
	p := Compile(Then(Field("s"), Field("i"), Version()))
	m := message.New(packP).MustSet("s", "zone-3").MustSet("i", int64(1234))
	got := testing.AllocsPerRun(100, func() {
		var buf [64]byte
		var spans [2]KeySpan
		ctx := Context{Message: m, PendingUserVersion: 3}
		if _, err := p.Pack(NewKeys(buf[:], spans[:]), &ctx); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("packing one key allocates %v times, want 0", got)
	}
}

// FuzzKeyPacker holds the packer to Pack(Evaluate(…)) over arbitrary records:
// the first byte picks an expression of the corpus, the second the context,
// and the rest is a P record's wire bytes. `go test` runs the committed corpus
// under testdata/fuzz; CI fuzzes for 30 s more.
func FuzzKeyPacker(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		wire, err := randPackMessage(r).Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte{byte(r.Intn(256)), byte(r.Intn(256))}, wire...))
	}
	corpus := packerCorpus()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		m, err := message.Unmarshal(packP, data[2:])
		if err != nil {
			return
		}
		ctx := randPackContext(rand.New(rand.NewSource(int64(data[1]))), m)
		checkPacker(t, corpus[int(data[0])%len(corpus)], ctx)
	})
}
