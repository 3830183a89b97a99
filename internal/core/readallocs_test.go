package core

import (
	"fmt"
	"math"
	"testing"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/message"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// TestRecordReadAllocs pins what the record read path allocates per unsplit
// record (one data pair and its version slot) that nobody reads: a load by
// primary key, and one more record in a scan, each beyond its message. The
// message is one allocation until its first access decodes it, which this
// path never makes (8 and 9 beyond a decoded message when they were pinned
// loosely, 4 and 4 measured).
func TestRecordReadAllocs(t *testing.T) {
	const wantLoad, wantScanned = 4, 4
	db, md := fdb.Open(nil), testSchema(t)
	const n = 20
	stores := map[int]subspace.Subspace{}
	for _, size := range []int{n, 2 * n} {
		sp := subspace.FromTuple(tuple.Tuple{"tenant", int64(size)})
		stores[size] = sp
		for i := int64(0); i < int64(size); i++ {
			saveUsers(t, db, md, sp, mkUser(i, fmt.Sprintf("user-%02d", i), i))
		}
	}
	tr := db.CreateTransaction()
	open := func(size int) *Store {
		s, err := Open(tr, md, stores[size], OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open(n)
	pk := tuple.Tuple{"User", int64(7)}
	rec, err := s.LoadRecordByKey(pk)
	if err != nil || rec == nil {
		t.Fatalf("load: %v, %v", rec, err)
	}
	wire, err := rec.Message.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	decode := testing.AllocsPerRun(100, func() {
		if _, err := message.Unmarshal(rec.Type.Descriptor, wire); err != nil {
			t.Fatal(err)
		}
	})
	load := testing.AllocsPerRun(100, func() {
		if _, err := s.LoadRecordByKey(pk); err != nil {
			t.Fatal(err)
		}
	}) - decode
	scan := func(s *Store) float64 {
		return testing.AllocsPerRun(20, func() {
			if recs, _, _, err := cursor.Collect(s.ScanRecords(ScanOptions{})); err != nil || len(recs) == 0 {
				t.Fatalf("scan: %d records, %v", len(recs), err)
			}
		})
	}
	small, large := scan(s), scan(open(2*n))
	scanned := math.Round((large-small)/n) - decode
	if decode != 1 {
		t.Fatalf("an unread message allocates %v times, want 1", decode)
	}
	if load > wantLoad || scanned > wantScanned {
		t.Fatalf("per record, beyond its unread message (%v allocs): load %v allocs, want <= %d; scanned %v, want <= %d",
			decode, load, wantLoad, scanned, wantScanned)
	}
	t.Logf("per record, beyond its unread message (%v allocs): load %v, scanned %v", decode, load, scanned)
}

// TestLoadRecordByKeyAllocs pins everything one load by primary key of an
// unsplit record allocates, its message included: 5 on Go 1.24
// (linux/amd64), since the message is decoded on its first access, which
// this load never makes. It was 7 when the load decoded the message, and 8
// when the load issued its range read as a future and awaited it on the next
// line.
func TestLoadRecordByKeyAllocs(t *testing.T) {
	const want = 5
	db, md := fdb.Open(nil), testSchema(t)
	sp := subspace.FromTuple(tuple.Tuple{"tenant", int64(1)})
	saveUsers(t, db, md, sp, mkUser(7, "user-07", 7))
	s, err := Open(db.CreateTransaction(), md, sp, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pk := tuple.Tuple{"User", int64(7)}
	got := testing.AllocsPerRun(100, func() {
		if rec, err := s.LoadRecordByKey(pk); err != nil || rec == nil {
			t.Fatalf("load: %v, %v", rec, err)
		}
	})
	if got > want {
		t.Fatalf("a load by primary key allocates %v times, want <= %d", got, want)
	}
	t.Logf("a load by primary key allocates %v times", got)
}
