package core

import (
	"fmt"
	"strings"
	"testing"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// decodedSchema is User and Order with some of testSchema's indexes, and
// Every, a record type with a field of every type, nested messages included.
func decodedSchema(t testing.TB) (*metadata.MetaData, *message.Descriptor, *message.Descriptor) {
	t.Helper()
	part := message.MustDescriptor("Part", message.Field("label", 1, message.TypeString), message.Field("n", 2, message.TypeInt64))
	every := message.MustDescriptor("Every",
		message.Field("id", 1, message.TypeInt64),
		message.Field("i32", 2, message.TypeInt32),
		message.Field("u64", 3, message.TypeUint64),
		message.Field("ok", 4, message.TypeBool),
		message.Field("d", 5, message.TypeDouble),
		message.Field("f", 6, message.TypeFloat),
		message.Field("s", 7, message.TypeString),
		message.Field("raw", 8, message.TypeBytes),
		message.Field("e", 9, message.TypeEnum),
		message.MessageField("part", 10, part),
		message.RepeatedField("ns", 11, message.TypeInt64),
		message.RepeatedField("ss", 12, message.TypeString),
		message.RepeatedMessageField("parts", 13, part),
	)
	pk := keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))
	md, err := metadata.NewBuilder(1).AddMessageType(part).
		AddRecordType(userDesc(), pk).AddRecordType(orderDesc(), pk).AddRecordType(every, pk).
		AddIndex(&metadata.Index{Name: "user_by_name", Type: metadata.IndexValue, Expression: keyexpr.Field("name")}, "User").
		AddIndex(&metadata.Index{Name: "by_tag", Type: metadata.IndexValue,
			Expression: keyexpr.FieldFan("tags", keyexpr.FanOut)}, "User").
		AddIndex(&metadata.Index{Name: "score_sum", Type: metadata.IndexSum,
			Expression: keyexpr.Ungrouped(keyexpr.Field("score"))}, "User").
		AddIndex(&metadata.Index{Name: "score_rank", Type: metadata.IndexRank, Expression: keyexpr.Field("score")}, "User").
		AddIndex(&metadata.Index{Name: "bio_text", Type: metadata.IndexText, Expression: keyexpr.Field("bio")}, "User").
		AddIndex(&metadata.Index{Name: "by_version", Type: metadata.IndexVersion, Expression: keyexpr.Version()}).
		AddIndex(&metadata.Index{Name: "every_by_s", Type: metadata.IndexValue, Expression: keyexpr.Field("s")}, "Every").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return md, every, part
}

// TestDecodedStringsSurviveLaterWork checks the ownership contract the record
// read path relies on: a loaded record's message views the bytes the record
// was read from until its first access decodes them, and its string fields
// view them after (message.Unmarshal), so nothing may write those bytes
// afterwards. Records are loaded and scanned through every built-in
// serializer, unsplit and split; then, in the same transaction, the test
// reads more, modifies the decoded messages and saves them, saves new records
// and deletes one, reads its own writes back, and retries after a conflict;
// after commit a new transaction scans again. Some records, one of them read
// from the transaction's own writes, are first read only after the
// transaction has overwritten each, saved it again split and deleted it:
// every field must read as it was saved. Every field held along the way, of
// every type, must still print as it did when it was first read. Run it under
// -race too: a serializer or read path that recycled a buffer would show
// here.
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
	md0, everyDesc, partDesc := decodedSchema(t)
	every := func(i int, gen string) *message.Message {
		part := func(label string, n int) *message.Message {
			return message.New(partDesc).MustSet("label", label).MustSet("n", int64(n))
		}
		return message.New(everyDesc).
			MustSet("id", int64(2000+i)).
			MustSet("i32", int32(-i)).
			MustSet("u64", uint64(1)<<40+uint64(i)).
			MustSet("ok", i%2 == 0).
			MustSet("d", float64(i)+0.25).
			MustSet("f", float32(i)+0.5).
			MustSet("s", text("s"+gen, i)).
			MustSet("raw", []byte(text("raw"+gen, i+2))).
			MustSet("e", int64(i%3)).
			MustSet("part", part(text("label"+gen, i), 300+i)).
			MustSet("ns", []interface{}{int64(i), int64(1000 + i)}).
			MustSet("ss", []interface{}{text("ss"+gen, i), text("ss"+gen, i+1)}).
			MustSet("parts", []interface{}{part(text("p"+gen, i+3), i), part("", 0)})
	}
	everyPK := func(i int) tuple.Tuple { return tuple.Tuple{"Every", int64(2000 + i)} }
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
				db, md := fdb.Open(nil), md0
				sp := subspace.FromTuple(tuple.Tuple{"tenant", int64(1)})
				cfg := Config{Serializer: ser.s, SplitChunkSize: chunk}
				splitCfg := Config{Serializer: ser.s, SplitChunkSize: 48}
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
						if gen == "" {
							for i := 1; i <= 3; i++ {
								if _, err := s.SaveRecord(every(i, "")); err != nil {
									return nil, err
								}
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

				// A held field keeps what Get returned, which may view the
				// record's bytes, and how it printed then, which does not.
				type heldField struct {
					where, name string
					got         interface{}
					want        string
				}
				var held []heldField
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
						if v, ok := rec.Message.Get(f.Name); ok {
							held = append(held, heldField{where, f.Name, v, fmt.Sprint(v)})
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

					// Records nobody reads until this transaction has
					// overwritten each, saved it again split and deleted it:
					// two loaded, one scanned, one read from its own writes.
					type unread struct {
						where string
						rec   *StoredRecord
						want  *message.Message
					}
					var lazy []unread
					for _, i := range []int{1, 2} {
						rec, err := s.LoadRecordByKey(everyPK(i))
						if err != nil || rec == nil {
							t.Fatalf("load: %v, %v", rec, err)
						}
						lazy = append(lazy, unread{where + " unread load", rec, every(i, "")})
					}
					recs, _, _, err := cursor.Collect(s.ScanRecords(ScanOptions{
						Range: index.TupleRange{Low: everyPK(3), High: everyPK(3), LowInclusive: true, HighInclusive: true}}))
					if err != nil || len(recs) != 1 {
						t.Fatalf("scan of Every 3: %d records, %v", len(recs), err)
					}
					lazy = append(lazy, unread{where + " unread scan", recs[0], every(3, "")})
					buffered := every(9, "buffered")
					if _, err := s.SaveRecord(buffered); err != nil {
						t.Fatal(err)
					}
					rec, err := s.LoadRecordByKey(everyPK(9))
					if err != nil || rec == nil {
						t.Fatalf("load of its own write: %v, %v", rec, err)
					}
					lazy = append(lazy, unread{where + " unread read-your-writes load", rec, buffered})
					split2, err := Open(tr, md, sp, OpenOptions{Config: splitCfg})
					if err != nil {
						t.Fatal(err)
					}
					for _, u := range lazy {
						i := int(u.rec.PrimaryKey[1].(int64) - 2000)
						if _, err := s.SaveRecord(every(i, "over")); err != nil {
							t.Fatal(err)
						}
						if _, err := split2.SaveRecord(every(i, "split"+strings.Repeat("-long", 30))); err != nil {
							t.Fatal(err)
						}
						if ok, err := s.DeleteRecord(u.rec.PrimaryKey); err != nil || !ok {
							t.Fatalf("delete: %v, %v", ok, err)
						}
					}
					for _, u := range lazy {
						for _, f := range everyDesc.Fields() {
							got, _ := u.rec.Message.Get(f.Name)
							want, _ := u.want.Get(f.Name)
							if fmt.Sprint(got) != fmt.Sprint(want) {
								t.Fatalf("%s: first read of %s is %v, saved %v", u.where, f.Name, got, want)
							}
						}
						hold(u.where, u.rec)
					}

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
					if got := fmt.Sprint(h.got); got != h.want {
						t.Fatalf("%s: field %s changed from %s to %s", h.where, h.name, h.want, got)
					}
				}
				if chunk > 0 && split == 0 {
					t.Fatalf("no split record was decoded")
				}
				if len(held) < 100 {
					t.Fatalf("only %d fields held", len(held))
				}
			})
		}
	}
}

// TestConcurrentReadersOfALoadedRecord: a loaded record's message is decoded
// on its first access, which 8 goroutines make at once, reading every field
// and marshalling it. Each must see the saved record. CI's race job runs it.
func TestConcurrentReadersOfALoadedRecord(t *testing.T) {
	md, everyDesc, partDesc := decodedSchema(t)
	db, sp := fdb.Open(nil), subspace.FromTuple(tuple.Tuple{"tenant", int64(1)})
	saved := message.New(everyDesc).MustSet("id", int64(1)).MustSet("s", "shared").MustSet("raw", []byte("raw")).
		MustSet("d", 0.5).MustSet("part", message.New(partDesc).MustSet("label", "nested").MustSet("n", int64(700))).
		MustAdd("ss", "x").MustAdd("ss", "y").MustAdd("ns", int64(300))
	want, err := saved.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	withStore(t, db, md, sp, func(s *Store) error {
		_, err := s.SaveRecord(saved)
		return err
	})
	s, err := Open(db.CreateTransaction(), md, sp, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		rec, err := s.LoadRecordByKey(tuple.Tuple{"Every", int64(1)})
		if err != nil || rec == nil {
			t.Fatalf("load: %v, %v", rec, err)
		}
		start := make(chan struct{})
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			go func() {
				<-start
				for _, f := range everyDesc.Fields() {
					got, _ := rec.Message.Get(f.Name)
					if w, _ := saved.Get(f.Name); fmt.Sprint(got) != fmt.Sprint(w) {
						errs <- fmt.Errorf("%s = %v, saved %v", f.Name, got, w)
						return
					}
				}
				if b, err := rec.Message.Marshal(); err != nil || string(b) != string(want) {
					errs <- fmt.Errorf("marshal: %x, %v; want %x", b, err, want)
					return
				}
				errs <- nil
			}()
		}
		close(start)
		for g := 0; g < 8; g++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
}
