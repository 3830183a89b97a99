package plan

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"recordlayer/internal/core"
	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/query"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// everyDesc declares a field of every scalar type, a repeated field and a
// nested message: what a covering row may be asked to hold.
func everyDesc() *message.Descriptor {
	sub := message.MustDescriptor("Sub", message.Field("x", 1, message.TypeInt64))
	return message.MustDescriptor("Every",
		message.Field("id", 1, message.TypeInt64),
		message.Field("i32", 2, message.TypeInt32),
		message.Field("en", 3, message.TypeEnum),
		message.Field("u64", 4, message.TypeUint64),
		message.Field("d", 5, message.TypeDouble),
		message.Field("f", 6, message.TypeFloat),
		message.Field("b", 7, message.TypeBool),
		message.Field("s", 8, message.TypeString),
		message.Field("by", 9, message.TypeBytes),
		message.RepeatedField("rep", 10, message.TypeInt64),
		message.MessageField("sub", 11, sub),
	)
}

// everySchema indexes every scalar field: s and i32 in the key, the rest as
// KeyWithValue columns, and id as the primary key.
func everySchema() *metadata.MetaData {
	return metadata.NewBuilder(1).
		AddRecordType(everyDesc(), keyexpr.Field("id")).
		AddIndex(&metadata.Index{Name: "cov_every", Type: metadata.IndexValue,
			Expression: keyexpr.KeyWithValue(keyexpr.Then(
				keyexpr.Field("s"), keyexpr.Field("i32"), keyexpr.Field("en"), keyexpr.Field("u64"),
				keyexpr.Field("d"), keyexpr.Field("f"), keyexpr.Field("b"), keyexpr.Field("by")), 2)}, "Every").
		MustBuild()
}

// referenceRow is how a covering row was built before rows were transcoded:
// each part of the entry unpacked, and each field Set on a new message from
// its element.
func referenceRow(rt *metadata.RecordType, fields []FieldSource, key, value, pk []byte) (*message.Message, error) {
	unpack := func(b []byte) tuple.Tuple {
		t, _ := tuple.Unpack(b)
		return t
	}
	parts := map[FieldSourceKind]tuple.Tuple{FromIndexKey: unpack(key), FromIndexValue: unpack(value), FromPrimaryKey: unpack(pk)}
	msg := message.New(rt.Descriptor)
	for _, fs := range fields {
		src := parts[fs.From]
		if fs.Pos >= len(src) || src[fs.Pos] == nil {
			continue
		}
		if err := setFromTuple(msg, fs.Field, src[fs.Pos]); err != nil {
			return nil, fmt.Errorf("plan: covering reconstruction of %s.%s: %v", rt.Name, fs.Field, err)
		}
	}
	return msg, nil
}

// setFromTuple assigns a tuple element to a message field, bridging the few
// representation gaps between tuple decoding and message canonical types
// (small uint64 values decode from tuples as int64).
func setFromTuple(msg *message.Message, name string, v interface{}) error {
	if fd, ok := msg.Descriptor().FieldByName(name); ok && fd.Type == message.TypeUint64 {
		if iv, ok := v.(int64); ok && iv >= 0 {
			v = uint64(iv)
		}
	}
	return msg.Set(name, v)
}

// checkCoveredRow fails unless coveredMessage builds the row referenceRow
// builds from the same packed parts, or fails with its error.
func checkCoveredRow(t *testing.T, rt *metadata.RecordType, fields []FieldSource, key, value, pk []byte) {
	t.Helper()
	fds := make([]*message.FieldDescriptor, len(fields))
	for i, fs := range fields {
		fds[i], _ = rt.Descriptor.FieldByName(fs.Field)
	}
	got, err := coveredMessage(rt, fields, fds, key, value, pk)
	want, werr := referenceRow(rt, fields, key, value, pk)
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("fields %v of %s | %s | %s: error %v, reference %v",
			fields, tuple.Describe(key), tuple.Describe(value), tuple.Describe(pk), err, werr)
	}
	if err == nil && !message.Equal(got, want) {
		t.Fatalf("fields %v of %s | %s | %s: row %v, reference %v",
			fields, tuple.Describe(key), tuple.Describe(value), tuple.Describe(pk), got, want)
	}
}

// everyElement is one tuple element of every type, and the edges of each:
// null, integers at both ends of int64, uint64 above it, floats, bools,
// strings and bytes with and without a zero byte, and the types no field
// holds.
var everyElement = []interface{}{
	nil, int64(0), int64(1), int64(-1), int64(300), int64(math.MaxInt64), int64(math.MinInt64),
	uint64(7), uint64(math.MaxInt64) + 1, uint64(math.MaxUint64),
	float32(1.5), float32(-0.25), 2.25, math.Inf(-1), true, false,
	"", "plain", "a\x00b", []byte{}, []byte("raw"), []byte{0, 0xff, 0},
	tuple.Tuple{int64(1), "x"}, tuple.UUID{1, 2, 3}, tuple.Versionstamp{UserVersion: 9},
}

// TestCoveredRowsMatchReference: for every field of every type (and a name
// the type lacks), every element type, read from the key, the value or the
// primary key at a position past others, the transcoded row is Equal to the
// reference's and fails with its error; so is a row reading all of them.
func TestCoveredRowsMatchReference(t *testing.T) {
	rt, _ := everySchema().RecordType("Every")
	names := []string{"id", "i32", "en", "u64", "d", "f", "b", "s", "by", "rep", "sub", "nope"}
	filler := tuple.Tuple{"z\x00z", int64(-5)}
	for _, name := range names {
		for _, e := range everyElement {
			key := append(filler[:1:1], e).Pack()
			value := tuple.Tuple{e}.Pack()
			pk := append(filler[:2:2], e).Pack()
			for _, fs := range []FieldSource{{name, FromIndexKey, 1}, {name, FromIndexValue, 0}, {name, FromPrimaryKey, 2}, {name, FromIndexValue, 3}} {
				checkCoveredRow(t, rt, []FieldSource{fs}, key, value, pk)
			}
		}
	}
	// A whole row: key (s, i32), value (en, u64, d, f, b, by), primary key id.
	var fields []FieldSource
	for i, name := range []string{"s", "i32"} {
		fields = append(fields, FieldSource{name, FromIndexKey, i})
	}
	for i, name := range []string{"en", "u64", "d", "f", "b", "by"} {
		fields = append(fields, FieldSource{name, FromIndexValue, i})
	}
	fields = append(fields, FieldSource{"id", FromPrimaryKey, 0})
	for _, row := range []struct{ key, value, pk tuple.Tuple }{
		{tuple.Tuple{"a\x00b", int64(-3)}, tuple.Tuple{int64(2), uint64(math.MaxUint64), 0.5, float32(2), true, []byte{0}}, tuple.Tuple{int64(1)}},
		{tuple.Tuple{nil, nil}, tuple.Tuple{nil, nil, nil, nil, nil, nil}, tuple.Tuple{int64(2)}},
		{tuple.Tuple{"", int64(0)}, nil, tuple.Tuple{int64(math.MinInt64)}},
	} {
		checkCoveredRow(t, rt, fields, row.key.Pack(), row.value.Pack(), row.pk.Pack())
	}
}

// TestCoveredRowAllocs: a row of integers and strings is its wire bytes and
// its message, and nothing else until a field is read.
func TestCoveredRowAllocs(t *testing.T) {
	rt, _ := everySchema().RecordType("Every")
	fields := []FieldSource{{"s", FromIndexKey, 0}, {"i32", FromIndexKey, 1}, {"id", FromPrimaryKey, 0}}
	fds := make([]*message.FieldDescriptor, len(fields))
	for i, fs := range fields {
		fds[i], _ = rt.Descriptor.FieldByName(fs.Field)
	}
	key, pk := tuple.Tuple{"zone07", int64(4242)}.Pack(), tuple.Tuple{int64(99)}.Pack()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := coveredMessage(rt, fields, fds, key, nil, pk); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Errorf("a covered row allocates %v times, want 2", n)
	}
}

// TestCoveringPlanEveryTypeMatchesReference runs a covering plan over an
// index of every scalar type, records with unset fields, zero bytes and a
// uint64 above int64 among them, and checks each row against the reference
// built from the same index entry.
func TestCoveringPlanEveryTypeMatchesReference(t *testing.T) {
	md := everySchema()
	env := &planEnv{db: fdb.Open(nil), md: md, sp: subspace.FromTuple(tuple.Tuple{"every"})}
	_, err := env.db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		s, err := core.Open(tr, md, env.sp, core.OpenOptions{CreateIfMissing: true})
		if err != nil {
			return nil, err
		}
		for id := int64(1); id <= 12; id++ {
			m := message.New(everyDesc()).MustSet("id", id).MustSet("s", fmt.Sprintf("s%d\x00%d", id%3, id))
			if id%4 != 0 {
				m.MustSet("i32", int32(-id)).MustSet("en", id%3).MustSet("u64", uint64(math.MaxUint64)-uint64(id%2)*uint64(math.MaxUint32)).
					MustSet("d", float64(id)/4).MustSet("f", float32(id)/8).MustSet("b", id%2 == 0).
					MustSet("by", []byte{byte(id), 0, byte(id)})
			}
			if _, err := s.SaveRecord(m); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	projection := []string{"id", "i32", "en", "u64", "d", "f", "b", "s", "by"}
	p, err := New(md, Config{}).Plan(query.RecordQuery{RecordTypes: []string{"Every"},
		Filter: query.Field("s").GreaterOrEqual("s1")}.Select(projection...))
	if err != nil {
		t.Fatal(err)
	}
	cov, ok := p.(*Bound).Shape.(*CoveringIndexScanPlan)
	if !ok {
		t.Fatalf("plan = %s, want a covering scan", p)
	}
	recs, reason, _ := env.collectRecords(t, p, ExecuteOptions{})
	rt, _ := md.RecordType("Every")
	_, err = env.db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		s, err := core.Open(tr, md, env.sp, core.OpenOptions{})
		if err != nil {
			return nil, err
		}
		c, err := s.ScanIndex("cov_every", index.TupleRange{Low: tuple.Tuple{"s1"}, LowInclusive: true}, index.ScanOptions{})
		if err != nil {
			return nil, err
		}
		entries, _, _, err := cursor.Collect(c)
		if err != nil {
			return nil, err
		}
		if reason != cursor.SourceExhausted || len(recs) != len(entries) || len(recs) != 8 {
			t.Fatalf("%d rows (%v) for %d entries, want 8", len(recs), reason, len(entries))
		}
		for i, e := range entries {
			key, value := e.PackedColumns()
			want, err := referenceRow(rt, cov.Fields, key, value, e.PackedPrimaryKey())
			if err != nil {
				t.Fatal(err)
			}
			if !message.Equal(recs[i].Message, want) || tuple.Compare(recs[i].PrimaryKey, e.PrimaryKey()) != 0 {
				t.Errorf("row %d: %v %v, reference %v", i, recs[i].PrimaryKey, recs[i].Message, want)
			}
			if i == 0 && !strings.Contains(want.String(), "u64") {
				t.Errorf("row 0 lacks its uint64: %v", want)
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// FuzzCoveringRow: whatever three well-formed packed tuples an entry holds
// and whichever fields read them where, the transcoded row is Equal to the
// reference's, or fails with its error. layout's bytes pick the fields: a
// name by the byte, its source by the byte / 16, its position by the byte / 48.
func FuzzCoveringRow(f *testing.F) {
	rt, _ := everySchema().RecordType("Every")
	names := []string{"id", "i32", "en", "u64", "d", "f", "b", "s", "by", "rep", "sub", "nope"}
	for _, e := range everyElement {
		f.Add(tuple.Tuple{e, e}.Pack(), tuple.Tuple{e}.Pack(), tuple.Tuple{int64(1), e}.Pack(), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 60, 70, 100, 110})
	}
	f.Fuzz(func(t *testing.T, key, value, pk, layout []byte) {
		for _, b := range [][]byte{key, value, pk} {
			if _, err := tuple.Count(b); err != nil {
				return // an entry's decoder refuses it before a row is built
			}
		}
		var fields []FieldSource
		for _, c := range layout[:min(len(layout), 16)] {
			fields = append(fields, FieldSource{names[int(c)%len(names)], FieldSourceKind(c / 16 % 3), int(c / 48)})
		}
		checkCoveredRow(t, rt, fields, key, value, pk)
	})
}
