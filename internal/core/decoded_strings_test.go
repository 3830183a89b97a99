package core

import (
	"fmt"
	"strings"
	"testing"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/message"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// TestDecodedStringsSurviveLaterWork checks the ownership contract the record
// read path relies on: a decoded record's string fields view the bytes the
// record was read from (message.Unmarshal), so nothing may write those bytes
// afterwards. Records are loaded and scanned through every built-in
// serializer, unsplit and split; then, in the same transaction, the test
// reads more, modifies the decoded messages and saves them, saves new records
// and deletes one, reads its own writes back, and retries after a conflict;
// after commit a new transaction scans again. Every string held along the way
// must still equal what it was when it was decoded. Run it under -race too:
// a serializer or read path that recycled a buffer would show here.
func TestDecodedStringsSurviveLaterWork(t *testing.T) {
	enc, err := NewEncryptingSerializer([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	serializers := []struct {
		name string
		s    Serializer
	}{
		{"identity", IdentitySerializer{}},
		{"compressing", CompressingSerializer{}},
		{"encrypting", enc},
		{"compress+encrypt", NewChainSerializer(CompressingSerializer{}, enc)},
	}
	// text is a field value. Every fifth one holds a zero byte, which sends
	// its record's envelope through the copying reader; the rest are read in
	// place. Some are long enough to split at a 48-byte chunk size, and to
	// compress.
	text := func(kind string, i int) string {
		s := fmt.Sprintf("%s-%d-%s", kind, i, strings.Repeat("xyz", i%5*12))
		if i%5 == 0 {
			s += "\x00end"
		}
		return s
	}
	user := func(i int, gen string) *message.Message {
		m := message.New(userDesc()).
			MustSet("id", int64(1000+i)).
			MustSet("name", text("name"+gen, i)).
			MustSet("score", int64(300+i)).
			MustSet("bio", text("bio"+gen, i+1))
		for j := 0; j < i%3; j++ {
			m.MustAdd("tags", text("tag"+gen, i+j))
		}
		return m
	}
	for _, ser := range serializers {
		for _, chunk := range []int{0, 48} {
			t.Run(fmt.Sprintf("%s/chunk=%d", ser.name, chunk), func(t *testing.T) {
				db, md := fdb.Open(nil), testSchema(t)
				sp := subspace.FromTuple(tuple.Tuple{"tenant", int64(1)})
				cfg := Config{Serializer: ser.s, SplitChunkSize: chunk}
				write := func(gen string, ids ...int) {
					t.Helper()
					_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
						s, err := Open(tr, md, sp, OpenOptions{CreateIfMissing: true, Config: cfg})
						if err != nil {
							return nil, err
						}
						for _, i := range ids {
							if _, err := s.SaveRecord(user(i, gen)); err != nil {
								return nil, err
							}
						}
						_, err = s.SaveRecord(message.New(orderDesc()).
							MustSet("id", int64(7)).MustSet("name", text("order"+gen, 7)).MustSet("total", int64(99)))
						return nil, err
					})
					if err != nil {
						t.Fatal(err)
					}
				}
				write("", 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)

				type heldString struct {
					where     string
					got, want string
				}
				var held []heldString
				split := 0
				hold := func(where string, rec *StoredRecord) {
					t.Helper()
					if rec == nil {
						t.Fatalf("%s: record missing", where)
					}
					if rec.SplitChunks > 1 {
						split++
					}
					for _, f := range rec.Type.Descriptor.Fields() {
						v, ok := rec.Message.Get(f.Name)
						if !ok || f.Type != message.TypeString {
							continue
						}
						vals := []interface{}{v}
						if f.Repeated {
							vals = v.([]interface{})
						}
						for _, e := range vals {
							s := e.(string)
							held = append(held, heldString{where, s, strings.Clone(s)})
						}
					}
				}
				scanAll := func(where string, s *Store, reverse bool) {
					t.Helper()
					recs, _, _, err := cursor.Collect(s.ScanRecords(ScanOptions{Reverse: reverse}))
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					for _, rec := range recs {
						hold(where, rec)
					}
				}
				userPK := func(i int) tuple.Tuple { return tuple.Tuple{"User", int64(1000 + i)} }

				tr := db.CreateTransaction()
				for attempt := 1; ; attempt++ {
					s, err := Open(tr, md, sp, OpenOptions{Config: cfg})
					if err != nil {
						t.Fatal(err)
					}
					where := fmt.Sprintf("attempt %d", attempt)
					var loaded []*StoredRecord
					for _, i := range []int{0, 3, 5, 11} {
						rec, err := s.LoadRecordByKey(userPK(i))
						if err != nil {
							t.Fatal(err)
						}
						hold(where+" load", rec)
						loaded = append(loaded, rec)
					}
					scanAll(where+" scan", s, false)
					scanAll(where+" reverse scan", s, true)

					// Later work in the same transaction: more reads, a
					// read-modify-write of the decoded messages, new records,
					// a delete, and reads of its own writes.
					scanAll(where+" second scan", s, false)
					for _, rec := range loaded {
						rec.Message.MustSet("name", text("renamed", attempt))
						if _, err := s.SaveRecord(rec.Message); err != nil {
							t.Fatal(err)
						}
					}
					for i := 20; i < 24; i++ {
						if _, err := s.SaveRecord(user(i, "new")); err != nil {
							t.Fatal(err)
						}
					}
					if ok, err := s.DeleteRecord(userPK(1)); err != nil || !ok {
						t.Fatalf("delete: %v, %v", ok, err)
					}
					for _, i := range []int{0, 21} {
						rec, err := s.LoadRecordByKey(userPK(i))
						if err != nil {
							t.Fatal(err)
						}
						hold(where+" read-your-writes load", rec)
					}
					scanAll(where+" read-your-writes scan", s, true)

					if attempt == 1 {
						// Another writer commits first, so this attempt
						// conflicts, and the retry decodes everything again.
						write("interloper", 2)
						if err := tr.Commit(); !fdb.IsConflict(err) {
							t.Fatalf("commit of attempt 1: %v, want a conflict", err)
						}
						tr.Reset()
						continue
					}
					if err := tr.Commit(); err != nil {
						t.Fatalf("commit of attempt %d: %v", attempt, err)
					}
					break
				}
				after := db.CreateTransaction()
				s, err := Open(after, md, sp, OpenOptions{Config: cfg})
				if err != nil {
					t.Fatal(err)
				}
				scanAll("after commit", s, false)

				for _, h := range held {
					if h.got != h.want {
						t.Fatalf("%s: a decoded string changed from %q to %q", h.where, h.want, h.got)
					}
				}
				if chunk > 0 && split == 0 {
					t.Fatalf("no split record was decoded")
				}
				if len(held) < 100 {
					t.Fatalf("only %d strings held", len(held))
				}
			})
		}
	}
}
