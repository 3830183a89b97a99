package recordlayer

import (
	"context"
	"strings"
	"testing"

	"recordlayer/internal/directory"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/keyspace"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
)

// warmProvider opens Doc stores, with one VALUE index, at
// /app:warm/container:<interned>/user:<int64>.
func warmProvider(t *testing.T) *StoreProvider {
	t.Helper()
	doc := message.MustDescriptor("Doc",
		message.Field("id", 1, message.TypeInt64),
		message.Field("score", 2, message.TypeInt64),
		message.Field("body", 3, message.TypeString),
	)
	md := metadata.NewBuilder(1).
		AddRecordType(doc, keyexpr.Field("id")).
		AddIndex(&metadata.Index{Name: "by_score", Type: metadata.IndexValue, Expression: keyexpr.Field("score")}).
		MustBuild()
	ks, err := keyspace.New(directory.NewLayer(),
		keyspace.NewConstant("app", "warm").Add(
			keyspace.NewInterned("container").Add(
				keyspace.NewDirectory("user", keyspace.TypeInt64))))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewStoreProvider(md, ks, []string{"app", "container", "user"}, ProviderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWarmUpdateAllocs pins what one warm tenant update allocates: open the
// store through a provider whose directory and state caches are warm, on a
// path through an interned directory, save one existing unsplit record with
// one VALUE index, commit. It is 74 on Go 1.24 (linux/amd64); the margin to
// 79 is for other toolchains. It was 79 when the open built the tenant path
// as a tuple and packed it twice and the load before the save allocated a
// future; 113 when the primary key and the index
// keys were evaluated into boxed tuples and then packed, the old and new
// entries diffed through maps, and each record x index built its own
// maintainer context; 133 when an update
// range-cleared the unsplit record it overwrote, each maintainer built its own
// record view and key expression context, and a tenant path was copied once
// per level.
func TestWarmUpdateAllocs(t *testing.T) {
	const want = 79
	p := warmProvider(t)
	doc := p.MetaData().RecordTypes()[0].Descriptor
	db, ctx := fdb.Open(nil), context.Background()
	msgs := [2]*message.Message{}
	for i := range msgs {
		msgs[i] = message.New(doc).MustSet("id", int64(1)).MustSet("score", int64(i)).
			MustSet("body", strings.Repeat("b", 64))
	}
	n := 0
	update := func() {
		tr := db.CreateTransaction()
		s, err := p.Open(ctx, tr, "c1", int64(7))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.SaveRecord(msgs[n%2]); err != nil {
			t.Fatal(err)
		}
		if err := tr.Commit(); err != nil {
			t.Fatal(err)
		}
		n++
	}
	update() // creates the store and interns the container name
	update() // the first update over a record
	got := testing.AllocsPerRun(200, update)
	if got > want {
		t.Fatalf("a warm one-record update allocates %v times, want <= %d", got, want)
	}
	t.Logf("a warm one-record update allocates %v times", got)
}

// TestWarmOpenAllocs pins what a warm StoreProvider.Open allocates on a path
// through an interned directory, once the directory and state caches hold
// the tenant: the store's one prefix buffer, the core store and the
// provider's handle, and the header key and state range it still packs per
// open. It is 5 on Go 1.24 (linux/amd64); it was 9 when the path was built
// as a Path, resolved into a boxed tuple, and packed once for the store's
// subspace and again for its records subspace.
func TestWarmOpenAllocs(t *testing.T) {
	const want = 5
	p := warmProvider(t)
	db, ctx := fdb.Open(nil), context.Background()
	if _, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		return p.Open(ctx, tr, "c1", int64(7)) // creates the store and interns the container name
	}); err != nil {
		t.Fatal(err)
	}
	tr := db.CreateTransaction()
	open := func() {
		if _, err := p.Open(ctx, tr, "c1", int64(7)); err != nil {
			t.Fatal(err)
		}
	}
	before := p.StateCacheStats()
	open() // takes the read version
	if st := p.StateCacheStats(); st.Hits != before.Hits+1 || st.Misses != before.Misses {
		t.Fatalf("state cache went from %+v to %+v: the open is not warm", before, st)
	}
	got := testing.AllocsPerRun(200, open)
	if got > want {
		t.Fatalf("a warm open allocates %v times, want <= %d", got, want)
	}
	t.Logf("a warm open allocates %v times", got)
}
