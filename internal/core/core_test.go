package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

func userDesc() *message.Descriptor {
	return message.MustDescriptor("User",
		message.Field("id", 1, message.TypeInt64),
		message.Field("name", 2, message.TypeString),
		message.Field("score", 3, message.TypeInt64),
		message.Field("bio", 4, message.TypeString),
		message.RepeatedField("tags", 5, message.TypeString),
	)
}

func orderDesc() *message.Descriptor {
	return message.MustDescriptor("Order",
		message.Field("id", 1, message.TypeInt64),
		message.Field("name", 2, message.TypeString),
		message.Field("total", 3, message.TypeInt64),
	)
}

func testSchema(t testing.TB) *metadata.MetaData {
	t.Helper()
	return metadata.NewBuilder(1).
		AddRecordType(userDesc(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		AddRecordType(orderDesc(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		AddIndex(&metadata.Index{Name: "user_by_name", Type: metadata.IndexValue,
			Expression: keyexpr.Field("name")}, "User").
		AddIndex(&metadata.Index{Name: "by_name", Type: metadata.IndexValue,
			Expression: keyexpr.Field("name")}).
		AddIndex(&metadata.Index{Name: "by_tag", Type: metadata.IndexValue,
			Expression: keyexpr.FieldFan("tags", keyexpr.FanOut)}, "User").
		AddIndex(&metadata.Index{Name: "rec_count", Type: metadata.IndexCount,
			Expression: keyexpr.GroupBy(keyexpr.Empty(), keyexpr.RecordType())}).
		AddIndex(&metadata.Index{Name: "score_sum", Type: metadata.IndexSum,
			Expression: keyexpr.Ungrouped(keyexpr.Field("score"))}, "User").
		AddIndex(&metadata.Index{Name: "score_max", Type: metadata.IndexMaxEver,
			Expression: keyexpr.Ungrouped(keyexpr.Field("score"))}, "User").
		AddIndex(&metadata.Index{Name: "by_version", Type: metadata.IndexVersion,
			Expression: keyexpr.Version()}).
		AddIndex(&metadata.Index{Name: "score_rank", Type: metadata.IndexRank,
			Expression: keyexpr.Field("score")}, "User").
		AddIndex(&metadata.Index{Name: "bio_text", Type: metadata.IndexText,
			Expression: keyexpr.Field("bio")}, "User").
		MustBuild()
}

func newStoreEnv(t testing.TB) (*fdb.Database, *metadata.MetaData, subspace.Subspace) {
	t.Helper()
	return fdb.Open(nil), testSchema(t), subspace.FromTuple(tuple.Tuple{"tenant", int64(1)})
}

func withStore(t testing.TB, db *fdb.Database, md *metadata.MetaData, sp subspace.Subspace,
	f func(s *Store) error) {
	t.Helper()
	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		s, err := Open(tr, md, sp, OpenOptions{CreateIfMissing: true})
		if err != nil {
			return nil, err
		}
		return nil, f(s)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func mkUser(id int64, name string, score int64) *message.Message {
	return message.New(userDesc()).
		MustSet("id", id).MustSet("name", name).MustSet("score", score)
}

func saveUsers(t testing.TB, db *fdb.Database, md *metadata.MetaData, sp subspace.Subspace, users ...*message.Message) {
	t.Helper()
	withStore(t, db, md, sp, func(s *Store) error {
		for _, u := range users {
			if _, err := s.SaveRecord(u); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestSaveAndLoad(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	saveUsers(t, db, md, sp, mkUser(1, "alice", 100))

	withStore(t, db, md, sp, func(s *Store) error {
		rec, err := s.LoadRecordByKey(tuple.Tuple{"User", int64(1)})
		if err != nil {
			return err
		}
		if rec == nil {
			t.Fatal("record missing")
		}
		if v, _ := rec.Message.Get("name"); v.(string) != "alice" {
			t.Fatalf("name: %v", v)
		}
		if !rec.HasVersion || !rec.Version.Complete() {
			t.Fatal("record version missing or incomplete")
		}
		if rec.Type.Name != "User" {
			t.Fatalf("type: %s", rec.Type.Name)
		}
		missing, err := s.LoadRecordByKey(tuple.Tuple{"User", int64(99)})
		if err != nil {
			return err
		}
		if missing != nil {
			t.Fatal("phantom record")
		}
		return nil
	})
}

func TestUpdateReplacesRecord(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	saveUsers(t, db, md, sp, mkUser(1, "alice", 100))
	saveUsers(t, db, md, sp, mkUser(1, "alicia", 150))

	withStore(t, db, md, sp, func(s *Store) error {
		rec, err := s.LoadRecordByKey(tuple.Tuple{"User", int64(1)})
		if err != nil {
			return err
		}
		if v, _ := rec.Message.Get("name"); v.(string) != "alicia" {
			t.Fatalf("name after update: %v", v)
		}
		// The old index entry must be gone, the new one present.
		entries := scanIndex(t, s, "user_by_name", index.TupleRange{})
		if len(entries) != 1 || entries[0].Key()[0].(string) != "alicia" {
			t.Fatalf("index entries after update: %v", entries)
		}
		return nil
	})
}

func scanIndex(t testing.TB, s *Store, name string, r index.TupleRange) []index.Entry {
	t.Helper()
	c, err := s.ScanIndex(name, r, index.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	entries, reason, _, err := cursor.Collect(c)
	if err != nil {
		t.Fatal(err)
	}
	if reason != cursor.SourceExhausted {
		t.Fatalf("index scan stopped: %v", reason)
	}
	return entries
}

func TestDeleteRecordCleansIndexes(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	saveUsers(t, db, md, sp, mkUser(1, "alice", 100), mkUser(2, "bob", 50))

	withStore(t, db, md, sp, func(s *Store) error {
		ok, err := s.DeleteRecord(tuple.Tuple{"User", int64(1)})
		if err != nil || !ok {
			t.Fatalf("delete: %v %v", ok, err)
		}
		if entries := scanIndex(t, s, "user_by_name", index.TupleRange{}); len(entries) != 1 {
			t.Fatalf("index entries after delete: %v", entries)
		}
		sum, err := s.AggregateInt64("score_sum", tuple.Tuple{})
		if err != nil {
			return err
		}
		if sum != 50 {
			t.Fatalf("sum after delete: %d", sum)
		}
		count, err := s.AggregateInt64("rec_count", tuple.Tuple{"User"})
		if err != nil {
			return err
		}
		if count != 1 {
			t.Fatalf("count after delete: %d", count)
		}
		ok, err = s.DeleteRecord(tuple.Tuple{"User", int64(99)})
		if err != nil || ok {
			t.Fatalf("phantom delete: %v %v", ok, err)
		}
		return nil
	})
}

func TestValueIndexScanRange(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	saveUsers(t, db, md, sp,
		mkUser(1, "alice", 1), mkUser(2, "bob", 2), mkUser(3, "carol", 3), mkUser(4, "dave", 4))

	withStore(t, db, md, sp, func(s *Store) error {
		entries := scanIndex(t, s, "user_by_name", index.TupleRange{
			Low: tuple.Tuple{"bob"}, LowInclusive: true,
			High: tuple.Tuple{"dave"}, HighInclusive: false,
		})
		if len(entries) != 2 || entries[0].Key()[0] != "bob" || entries[1].Key()[0] != "carol" {
			t.Fatalf("range scan: %v", entries)
		}
		// Fetch the records behind the entries.
		c, err := s.ScanIndex("user_by_name", index.TupleRange{Low: tuple.Tuple{"carol"}, LowInclusive: true}, index.ScanOptions{})
		if err != nil {
			return err
		}
		recs, _, _, err := cursor.Collect(s.FetchIndexedPipelined(c, false, 1))
		if err != nil {
			return err
		}
		if len(recs) != 2 || recs[0].Type.Name != "User" {
			t.Fatalf("fetch indexed: %d", len(recs))
		}
		return nil
	})
}

func TestFanOutIndex(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	u := mkUser(1, "alice", 1)
	u.MustAdd("tags", "red").MustAdd("tags", "blue")
	saveUsers(t, db, md, sp, u)

	withStore(t, db, md, sp, func(s *Store) error {
		entries := scanIndex(t, s, "by_tag", index.TupleRange{})
		if len(entries) != 2 {
			t.Fatalf("fanout entries: %v", entries)
		}
		// Remove one tag: its entry must disappear.
		u2 := mkUser(1, "alice", 1)
		u2.MustAdd("tags", "blue")
		if _, err := s.SaveRecord(u2); err != nil {
			return err
		}
		entries = scanIndex(t, s, "by_tag", index.TupleRange{})
		if len(entries) != 1 || entries[0].Key()[0] != "blue" {
			t.Fatalf("after tag removal: %v", entries)
		}
		return nil
	})
}

func TestMultiTypeIndex(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	saveUsers(t, db, md, sp, mkUser(1, "zeta", 1))
	withStore(t, db, md, sp, func(s *Store) error {
		o := message.New(orderDesc()).MustSet("id", int64(7)).MustSet("name", "zeta").MustSet("total", int64(30))
		if _, err := s.SaveRecord(o); err != nil {
			return err
		}
		// The universal by_name index spans both record types (§7).
		entries := scanIndex(t, s, "by_name", index.TupleRange{Low: tuple.Tuple{"zeta"}, LowInclusive: true, High: tuple.Tuple{"zeta"}, HighInclusive: true})
		if len(entries) != 2 {
			t.Fatalf("multi-type index: %v", entries)
		}
		return nil
	})
}

func TestAggregates(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	saveUsers(t, db, md, sp, mkUser(1, "a", 10), mkUser(2, "b", 30), mkUser(3, "c", 5))

	withStore(t, db, md, sp, func(s *Store) error {
		sum, err := s.AggregateInt64("score_sum", tuple.Tuple{})
		if err != nil {
			return err
		}
		if sum != 45 {
			t.Fatalf("sum: %d", sum)
		}
		cnt, err := s.AggregateInt64("rec_count", tuple.Tuple{"User"})
		if err != nil {
			return err
		}
		if cnt != 3 {
			t.Fatalf("count: %d", cnt)
		}
		max, ok, err := s.AggregateTuple("score_max", tuple.Tuple{})
		if err != nil || !ok {
			t.Fatalf("max: %v %v", ok, err)
		}
		if max[0].(int64) != 30 {
			t.Fatalf("max: %v", max)
		}
		// MAX_EVER persists through deletes (§7).
		if _, err := s.DeleteRecord(tuple.Tuple{"User", int64(2)}); err != nil {
			return err
		}
		max, _, err = s.AggregateTuple("score_max", tuple.Tuple{})
		if err != nil {
			return err
		}
		if max[0].(int64) != 30 {
			t.Fatalf("max ever after delete: %v", max)
		}
		return nil
	})
}

func TestAggregateUpdateAdjustsSum(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	saveUsers(t, db, md, sp, mkUser(1, "a", 10))
	saveUsers(t, db, md, sp, mkUser(1, "a", 25)) // update score 10 -> 25
	withStore(t, db, md, sp, func(s *Store) error {
		sum, err := s.AggregateInt64("score_sum", tuple.Tuple{})
		if err != nil {
			return err
		}
		if sum != 25 {
			t.Fatalf("sum after update: %d", sum)
		}
		return nil
	})
}

func TestVersionIndexSyncScan(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	// Save three records in three transactions; the version index must
	// order them by commit order (§7, §8.1 sync).
	for i := int64(1); i <= 3; i++ {
		saveUsers(t, db, md, sp, mkUser(i, fmt.Sprintf("u%d", i), i))
	}
	var after []byte
	withStore(t, db, md, sp, func(s *Store) error {
		entries := scanIndex(t, s, "by_version", index.TupleRange{})
		if len(entries) != 3 {
			t.Fatalf("version entries: %v", entries)
		}
		for i := 0; i < 3; i++ {
			if entries[i].PrimaryKey()[1].(int64) != int64(i+1) {
				t.Fatalf("version order: %v", entries)
			}
		}
		// Remember the continuation mid-stream for the "sync" pattern.
		c, err := s.ScanIndex("by_version", index.TupleRange{}, index.ScanOptions{})
		if err != nil {
			return err
		}
		r1, _ := c.Next()
		r2, _ := c.Next()
		_ = r1
		after = r2.Continuation
		return nil
	})
	// A device syncs from the continuation: only newer changes appear.
	saveUsers(t, db, md, sp, mkUser(4, "u4", 4))
	withStore(t, db, md, sp, func(s *Store) error {
		c, err := s.ScanIndex("by_version", index.TupleRange{}, index.ScanOptions{Continuation: after})
		if err != nil {
			return err
		}
		entries, _, _, err := cursor.Collect(c)
		if err != nil {
			return err
		}
		if len(entries) != 2 || entries[0].PrimaryKey()[1].(int64) != 3 || entries[1].PrimaryKey()[1].(int64) != 4 {
			t.Fatalf("sync from continuation: %v", entries)
		}
		return nil
	})
}

func TestVersionIndexUpdateMovesEntry(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	saveUsers(t, db, md, sp, mkUser(1, "a", 1), mkUser(2, "b", 2))
	saveUsers(t, db, md, sp, mkUser(1, "a2", 1)) // touch record 1 again

	withStore(t, db, md, sp, func(s *Store) error {
		entries := scanIndex(t, s, "by_version", index.TupleRange{})
		if len(entries) != 2 {
			t.Fatalf("entries after update: %v", entries)
		}
		// Record 1 must now sort after record 2 (newer version).
		if entries[0].PrimaryKey()[1].(int64) != 2 || entries[1].PrimaryKey()[1].(int64) != 1 {
			t.Fatalf("version order after update: %v", entries)
		}
		return nil
	})
}

func TestRankIndex(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	saveUsers(t, db, md, sp,
		mkUser(1, "a", 300), mkUser(2, "b", 100), mkUser(3, "c", 200), mkUser(4, "d", 400))

	withStore(t, db, md, sp, func(s *Store) error {
		// b(100)=0, c(200)=1, a(300)=2, d(400)=3
		r, ok, err := s.Rank("score_rank", tuple.Tuple{int64(300)}, tuple.Tuple{"User", int64(1)})
		if err != nil || !ok || r != 2 {
			t.Fatalf("rank: %d %v %v", r, ok, err)
		}
		e, ok, err := s.ByRank("score_rank", 0)
		if err != nil || !ok || e.PrimaryKey()[1].(int64) != 2 {
			t.Fatalf("byRank(0): %v %v %v", e, ok, err)
		}
		// Scrollbar: scan from rank 2.
		c, err := s.ScanByRank("score_rank", 2, index.ScanOptions{})
		if err != nil {
			return err
		}
		entries, _, _, err := cursor.Collect(c)
		if err != nil {
			return err
		}
		if len(entries) != 2 || entries[0].Key()[0].(int64) != 300 {
			t.Fatalf("scanByRank: %v", entries)
		}
		return nil
	})
}

func TestRankIndexUpdate(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	saveUsers(t, db, md, sp, mkUser(1, "a", 100), mkUser(2, "b", 200))
	saveUsers(t, db, md, sp, mkUser(1, "a", 300)) // a overtakes b

	withStore(t, db, md, sp, func(s *Store) error {
		r, ok, err := s.Rank("score_rank", tuple.Tuple{int64(300)}, tuple.Tuple{"User", int64(1)})
		if err != nil || !ok || r != 1 {
			t.Fatalf("rank after update: %d %v %v", r, ok, err)
		}
		if _, ok, _ := s.Rank("score_rank", tuple.Tuple{int64(100)}, tuple.Tuple{"User", int64(1)}); ok {
			t.Fatal("stale rank entry remains")
		}
		return nil
	})
}

func TestTextIndex(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	mkBio := func(id int64, bio string) *message.Message {
		m := mkUser(id, fmt.Sprintf("u%d", id), id)
		m.MustSet("bio", bio)
		return m
	}
	saveUsers(t, db, md, sp,
		mkBio(1, "I hunt the white whale across the sea"),
		mkBio(2, "The whale sank the ship"),
		mkBio(3, "Gardening and whaling are my hobbies"))

	withStore(t, db, md, sp, func(s *Store) error {
		ps, err := s.TextSearchToken("bio_text", "whale")
		if err != nil {
			return err
		}
		if len(ps) != 2 {
			t.Fatalf("token search: %v", ps)
		}
		ps, err = s.TextSearchPrefix("bio_text", "whal")
		if err != nil {
			return err
		}
		pkSet := map[int64]bool{}
		for _, p := range ps {
			pkSet[p.PrimaryKey[1].(int64)] = true
		}
		if len(pkSet) != 3 {
			t.Fatalf("prefix search: %v", ps)
		}
		pks, err := s.TextSearchPhrase("bio_text", "white whale")
		if err != nil {
			return err
		}
		if len(pks) != 1 || pks[0][1].(int64) != 1 {
			t.Fatalf("phrase search: %v", pks)
		}
		pks, err = s.TextSearchAll("bio_text", []string{"whale", "ship"}, 0)
		if err != nil {
			return err
		}
		if len(pks) != 1 || pks[0][1].(int64) != 2 {
			t.Fatalf("contains all: %v", pks)
		}
		// Proximity: "hunt" and "whale" within 4 tokens in record 1.
		pks, err = s.TextSearchAll("bio_text", []string{"hunt", "whale"}, 4)
		if err != nil {
			return err
		}
		if len(pks) != 1 || pks[0][1].(int64) != 1 {
			t.Fatalf("proximity: %v", pks)
		}
		return nil
	})
}

func TestTextIndexUpdateAndDelete(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	m := mkUser(1, "a", 1)
	m.MustSet("bio", "red green blue")
	saveUsers(t, db, md, sp, m)

	m2 := mkUser(1, "a", 1)
	m2.MustSet("bio", "red yellow")
	saveUsers(t, db, md, sp, m2)

	withStore(t, db, md, sp, func(s *Store) error {
		if ps, _ := s.TextSearchToken("bio_text", "green"); len(ps) != 0 {
			t.Fatalf("stale token: %v", ps)
		}
		if ps, _ := s.TextSearchToken("bio_text", "yellow"); len(ps) != 1 {
			t.Fatalf("new token missing: %v", ps)
		}
		if _, err := s.DeleteRecord(tuple.Tuple{"User", int64(1)}); err != nil {
			return err
		}
		if ps, _ := s.TextSearchToken("bio_text", "red"); len(ps) != 0 {
			t.Fatalf("tokens after delete: %v", ps)
		}
		return nil
	})
}

func TestRecordSplitting(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	big := mkUser(1, strings.Repeat("x", 500), 1)
	big.MustSet("bio", strings.Repeat("lorem ipsum ", 400)) // ~4.8kB

	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		s, err := Open(tr, md, sp, OpenOptions{CreateIfMissing: true,
			Config: Config{SplitChunkSize: 1000}})
		if err != nil {
			return nil, err
		}
		rec, err := s.SaveRecord(big)
		if err != nil {
			return nil, err
		}
		if rec.SplitChunks < 2 {
			t.Fatalf("expected split, got %d chunks", rec.SplitChunks)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		s, err := Open(tr, md, sp, OpenOptions{Config: Config{SplitChunkSize: 1000}})
		if err != nil {
			return nil, err
		}
		rec, err := s.LoadRecordByKey(tuple.Tuple{"User", int64(1)})
		if err != nil {
			return nil, err
		}
		if rec == nil || rec.SplitChunks < 2 {
			t.Fatalf("split record load: %+v", rec)
		}
		if v, _ := rec.Message.Get("name"); v.(string) != strings.Repeat("x", 500) {
			t.Fatal("split record corrupted")
		}
		if !rec.HasVersion {
			t.Fatal("split record lost its version slot")
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSerializers(t *testing.T) {
	for _, tc := range []struct {
		name string
		ser  Serializer
	}{
		{"compressing", CompressingSerializer{}},
		{"encrypting", mustEnc(t)},
		{"chain", NewChainSerializer(CompressingSerializer{}, mustEnc(t))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, md, _ := newStoreEnv(t)
			sp := subspace.FromTuple(tuple.Tuple{"ser", tc.name})
			cfg := Config{Serializer: tc.ser}
			_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
				s, err := Open(tr, md, sp, OpenOptions{CreateIfMissing: true, Config: cfg})
				if err != nil {
					return nil, err
				}
				u := mkUser(1, "alice", 1)
				u.MustSet("bio", strings.Repeat("compressible text ", 50))
				if _, err := s.SaveRecord(u); err != nil {
					return nil, err
				}
				rec, err := s.LoadRecordByKey(tuple.Tuple{"User", int64(1)})
				if err != nil {
					return nil, err
				}
				if v, _ := rec.Message.Get("name"); v.(string) != "alice" {
					t.Fatalf("round trip through %s serializer", tc.name)
				}
				return nil, nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func mustEnc(t *testing.T) Serializer {
	t.Helper()
	s, err := NewEncryptingSerializer([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestScanRecordsWithContinuation(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	var users []*message.Message
	for i := int64(1); i <= 10; i++ {
		users = append(users, mkUser(i, fmt.Sprintf("u%02d", i), i))
	}
	saveUsers(t, db, md, sp, users...)

	var cont []byte
	withStore(t, db, md, sp, func(s *Store) error {
		c := cursor.Limit[*StoredRecord](s.ScanRecords(ScanOptions{}), 4)
		recs, reason, cc, err := cursor.Collect(c)
		if err != nil {
			return err
		}
		if len(recs) != 4 || reason != cursor.ReturnLimitReached {
			t.Fatalf("page 1: %d %v", len(recs), reason)
		}
		cont = cc
		return nil
	})
	withStore(t, db, md, sp, func(s *Store) error {
		recs, reason, _, err := cursor.Collect(s.ScanRecords(ScanOptions{Continuation: cont}))
		if err != nil {
			return err
		}
		if len(recs) != 6 || reason != cursor.SourceExhausted {
			t.Fatalf("page 2: %d %v", len(recs), reason)
		}
		if v, _ := recs[0].Message.Get("id"); v.(int64) != 5 {
			t.Fatalf("resume point: %v", v)
		}
		return nil
	})
}

func TestScanLimiterHaltsWithContinuation(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	var users []*message.Message
	for i := int64(1); i <= 20; i++ {
		users = append(users, mkUser(i, fmt.Sprintf("u%02d", i), i))
	}
	saveUsers(t, db, md, sp, users...)

	withStore(t, db, md, sp, func(s *Store) error {
		lim := cursor.NewLimiter(10, 0, time.Time{}, nil)
		c := s.ScanRecords(ScanOptions{Limiter: lim})
		recs, reason, cont, err := cursor.Collect(c)
		if err != nil {
			return err
		}
		if reason != cursor.ScanLimitReached {
			t.Fatalf("reason: %v", reason)
		}
		if len(recs) == 0 || cont == nil {
			t.Fatalf("progress: %d records, cont %v", len(recs), cont)
		}
		// Resume completes the scan.
		recs2, reason2, _, err := cursor.Collect(s.ScanRecords(ScanOptions{Continuation: cont}))
		if err != nil {
			return err
		}
		if reason2 != cursor.SourceExhausted || len(recs)+len(recs2) != 20 {
			t.Fatalf("resume: %d + %d (%v)", len(recs), len(recs2), reason2)
		}
		return nil
	})
}

// TestScanRecordsKeepsItsPairSource: the record cursor reads one pair past
// each record to find where it ends, and holds that pair itself. Its pair
// source is the cursor ScanRecords built, however many records have gone by,
// so the cost of a pair does not grow with the scan's length.
func TestScanRecordsKeepsItsPairSource(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	var users []*message.Message
	for i := int64(1); i <= 5; i++ {
		users = append(users, mkUser(i, fmt.Sprintf("u%02d", i), i))
	}
	saveUsers(t, db, md, sp, users...)

	for _, tc := range []struct {
		limit  int
		want   int
		reason cursor.NoNextReason
	}{
		{limit: 0, want: 5, reason: cursor.SourceExhausted},
		{limit: 3, want: 3, reason: cursor.ScanLimitReached},
	} {
		withStore(t, db, md, sp, func(s *Store) error {
			lim := cursor.NewLimiter(tc.limit, 0, time.Time{}, nil) // 0 = no limit
			c := s.ScanRecords(ScanOptions{Limiter: lim}).(*recordCursor)
			source := c.kvs
			recs, reason, _, err := cursor.Collect[*StoredRecord](c)
			if err != nil {
				return err
			}
			if len(recs) != tc.want || reason != tc.reason {
				t.Fatalf("limit %d: %d records, %v", tc.limit, len(recs), reason)
			}
			for _, r := range recs {
				if !r.HasVersion {
					t.Fatalf("record %v is one pair; the test needs records of several", r.PrimaryKey)
				}
			}
			if c.kvs != source {
				t.Fatalf("limit %d: pair source became %T after %d records", tc.limit, c.kvs, len(recs))
			}
			return nil
		})
	}
}
