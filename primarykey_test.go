package recordlayer

import (
	"context"
	"reflect"
	"testing"

	"recordlayer/internal/core"
	"recordlayer/internal/cursor"
	"recordlayer/internal/directory"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/keyspace"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/tuple"
)

// TestSavedPrimaryKeyIsDecoded: a saved record reports its primary key in
// its decoded form, as a loaded or scanned record does. A uint64 key field
// packs as a tuple integer, so it comes back as an int64, not a uint64.
func TestSavedPrimaryKeyIsDecoded(t *testing.T) {
	item := message.MustDescriptor("Item",
		message.Field("id", 1, message.TypeUint64),
		message.Field("name", 2, message.TypeString),
	)
	md := metadata.NewBuilder(1).AddRecordType(item, keyexpr.Field("id")).MustBuild()
	ks, err := keyspace.New(directory.NewLayer(), keyspace.NewDirectory("tenant", keyspace.TypeInt64))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewStoreProvider(md, ks, []string{"tenant"}, ProviderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db, ctx := fdb.Open(nil), context.Background()
	tr := db.CreateTransaction()
	s, err := p.Open(ctx, tr, int64(1))
	if err != nil {
		t.Fatal(err)
	}
	msg := message.New(item).MustSet("id", uint64(42)).MustSet("name", "answer")
	want := tuple.Tuple{int64(42)}
	_, pk, err := s.PrimaryKeyFor(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pk, want) {
		t.Fatalf("PrimaryKeyFor = %#v, want %#v", pk, want)
	}
	saved, err := s.SaveRecord(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(saved.PrimaryKey, want) {
		t.Fatalf("saved PrimaryKey = %#v, want %#v", saved.PrimaryKey, want)
	}
	loaded, err := s.LoadRecordByKey(want)
	if err != nil || loaded == nil {
		t.Fatalf("load: %v, %v", loaded, err)
	}
	scanned, _, _, err := cursor.Collect(s.ScanRecords(core.ScanOptions{}))
	if err != nil || len(scanned) != 1 {
		t.Fatalf("scan: %d records, %v", len(scanned), err)
	}
	for name, got := range map[string]tuple.Tuple{"loaded": loaded.PrimaryKey, "scanned": scanned[0].PrimaryKey} {
		if !reflect.DeepEqual(got, saved.PrimaryKey) {
			t.Fatalf("%s PrimaryKey = %#v, saved says %#v", name, got, saved.PrimaryKey)
		}
	}
}
