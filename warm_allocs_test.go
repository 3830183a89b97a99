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

// TestWarmUpdateAllocs pins what one warm tenant update allocates: open the
// store through a provider whose directory and state caches are warm, on a
// path through an interned directory, save one existing unsplit record with
// one VALUE index, commit. It is 113 on Go 1.24 (linux/amd64); the margin to
// 120 is for other toolchains. It was 133 when an update range-cleared the
// unsplit record it overwrote, each maintainer built its own record view and
// key expression context, and a tenant path was copied once per level.
func TestWarmUpdateAllocs(t *testing.T) {
	const want = 120
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
