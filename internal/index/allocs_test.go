package index

import (
	"testing"

	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// TestMaintainerUpdateAllocs pins what updating one record allocates in the
// benchmark's ck_mix indexes — VALUE(zone, id), SUM(bytes) by zone and
// VERSION(zone, version()) — with the transaction it runs in: an update that
// changes zone and bytes, which rewrites an entry of each, and one that
// changes neither, which rewrites only the version entry. They are 39 and 17
// on Go 1.24 (linux/amd64), most of them the transaction's own; the bounds
// leave about 10 % for another toolchain. They were 113 and 82 when each
// index's keys were evaluated into boxed tuples, then packed, and diffed
// through two maps of strings.
func TestMaintainerUpdateAllocs(t *testing.T) {
	note := message.MustDescriptor("Note",
		message.Field("id", 1, message.TypeInt64),
		message.Field("zone", 2, message.TypeString),
		message.Field("bytes", 3, message.TypeInt64),
	)
	rt := &metadata.RecordType{Name: "Note", Descriptor: note, PrimaryKey: keyexpr.Field("id")}
	var ms []Maintainer
	var ctxs []Context
	for i, ix := range []*metadata.Index{
		{Name: "by_value", Type: metadata.IndexValue, Expression: keyexpr.Then(keyexpr.Field("zone"), keyexpr.Field("id"))},
		{Name: "zone_bytes", Type: metadata.IndexSum, Expression: keyexpr.GroupBy(keyexpr.Field("bytes"), keyexpr.Field("zone"))},
		{Name: "by_version", Type: metadata.IndexVersion, Expression: keyexpr.Then(keyexpr.Field("zone"), keyexpr.Version())},
	} {
		m, err := NewMaintainer(ix)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
		ctxs = append(ctxs, Context{Index: ix, Space: subspace.FromTuple(tuple.Tuple{"ix", int64(i)})})
	}
	stored, _ := tuple.VersionstampFromBytes([]byte{0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 3})
	record := func(zone string, bytes int64, old bool) *Record {
		r := &Record{Type: rt, PrimaryKey: tuple.Tuple{int64(4711)},
			Message: message.New(note).MustSet("id", int64(4711)).MustSet("zone", zone).MustSet("bytes", bytes)}
		if old {
			r.Version, r.HasVersion = stored, true
		} else {
			r.PendingUserVersion = 2
		}
		return r
	}
	db := fdb.Open(nil)
	for _, c := range []struct {
		name     string
		old, new *Record
		bound    float64
	}{
		{"zone and bytes change", record("zone-3", 512, true), record("zone-5", 640, false), 43},
		{"neither changes", record("zone-3", 512, true), record("zone-3", 512, false), 19},
	} {
		update := func() {
			tr := db.CreateTransaction()
			for i, m := range ms {
				ctx := ctxs[i]
				ctx.Tr = tr
				if err := Update(m, &ctx, c.old, c.new); err != nil {
					t.Fatal(err)
				}
			}
			tr.Cancel()
		}
		update()
		got := testing.AllocsPerRun(200, update)
		if got > c.bound {
			t.Errorf("%s: an update of three ck_mix indexes allocates %v times, bound %v", c.name, got, c.bound)
		}
		t.Logf("%s: an update of three ck_mix indexes allocates %v times", c.name, got)
	}
}
