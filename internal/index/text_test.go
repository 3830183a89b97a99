package index

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/tuple"
)

// words returns n distinct words, prefix00 prefix01 ...
func words(prefix string, n int) string {
	w := make([]string, n)
	for i := range w {
		w[i] = fmt.Sprintf("%s%02d", prefix, i)
	}
	return strings.Join(w, " ")
}

// TestTextUpdateAllocs bounds what a TEXT update allocates per token it
// rewrites: record 1's 24-word text is replaced by 24 other words, a delete
// and an insert per token, into bunches that other records share, in a fresh
// transaction each run. Everything is counted: the transaction, the record's
// evaluation and tokenization, the boundary reads and their conflict ranges,
// the overlay and the writes. It is 10.9 per token on Go 1.24 (linux/amd64),
// 11.4 under -race; it was 23.6 when each op packed its range, key and
// successor separately, the maintainer grouped tokens in maps and the overlay
// keyed its writes by string. The bound of 13 leaves room for another Go
// version, not for a per-token map or a second pack.
func TestTextUpdateAllocs(t *testing.T) {
	const tokens, bound = 24, 13.0
	ix := &metadata.Index{Name: "by_name_text", Type: metadata.IndexText, Expression: keyexpr.Field("name")}
	m, err := NewMaintainer(ix)
	if err != nil {
		t.Fatal(err)
	}
	db, mkCtx := ctxFor(t, ix)
	before, after := words("alpha", tokens), words("beta", tokens)
	_, err = db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		for id := int64(0); id < 4; id++ {
			if err := Update(m, mkCtx(tr), nil, rec(id, before, 0)); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	old, new := rec(1, before, 0), rec(1, after, 0)
	update := func() {
		tr := db.CreateTransaction()
		if err := Update(m, mkCtx(tr), old, new); err != nil {
			t.Fatal(err)
		}
		tr.Cancel()
	}
	update()
	perToken := testing.AllocsPerRun(50, update) / (2 * tokens)
	if perToken > bound {
		t.Errorf("a TEXT update allocates %.1f times per token rewritten, bound %.0f", perToken, bound)
	}
	t.Logf("a TEXT update allocates %.1f times per token rewritten", perToken)
}

// TestPositions groups a text into its tokens in byte order, each with its
// offsets in ascending order.
func TestPositions(t *testing.T) {
	ix := &metadata.Index{Name: "by_name_text", Type: metadata.IndexText, Expression: keyexpr.Field("name")}
	m, err := NewMaintainer(ix)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.(*TextMaintainer).positions(rec(1, "the whale the sea the whale", 0), ix)
	if err != nil {
		t.Fatal(err)
	}
	want := []tokenOffsets{{"sea", []int64{3}}, {"the", []int64{0, 2, 4}}, {"whale", []int64{1, 5}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("positions = %v, want %v", got, want)
	}
	for _, p := range got {
		if cap(p.offsets) != len(p.offsets) {
			t.Errorf("%s: offsets have spare capacity %d", p.token, cap(p.offsets)-len(p.offsets))
		}
	}
}

// TestTextRepeatedFieldOffsets pins what a TEXT index over a repeated string
// field stores: each entry is tokenized from offset 0, and a token in two
// entries keeps the first entry's offsets, ascending, then the second's.
func TestTextRepeatedFieldOffsets(t *testing.T) {
	desc := message.MustDescriptor("Log",
		message.Field("id", 1, message.TypeInt64),
		message.RepeatedField("lines", 2, message.TypeString),
	)
	rt := &metadata.RecordType{Name: "Log", Descriptor: desc, PrimaryKey: keyexpr.Field("id")}
	ix := &metadata.Index{Name: "lines_text", Type: metadata.IndexText, Expression: keyexpr.FieldFan("lines", keyexpr.FanOut)}
	m, err := NewMaintainer(ix)
	if err != nil {
		t.Fatal(err)
	}
	db, mkCtx := ctxFor(t, ix)
	lines := []interface{}{"sea whale whale", "whale sea"}
	r := &Record{Type: rt, Message: message.New(desc).MustSet("id", int64(1)).MustSet("lines", lines), PrimaryKey: tuple.Tuple{int64(1)}}
	_, err = db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		ctx := mkCtx(tr)
		if err := Update(m, ctx, nil, r); err != nil {
			return nil, err
		}
		tm := m.(*TextMaintainer)
		for token, want := range map[string][]int64{"whale": {1, 2, 0}, "sea": {0, 1}} {
			got, err := tm.ScanToken(ctx, token)
			if err != nil {
				return nil, err
			}
			if len(got) != 1 || !reflect.DeepEqual(got[0].Offsets, want) {
				t.Errorf("%s: postings %v, want offsets %v", token, got, want)
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
