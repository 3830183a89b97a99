package core

import (
	"fmt"
	"strings"
	"testing"

	"recordlayer/internal/index"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

func mkBioUser(id int64, name string, score int64, bio string, tags ...string) *message.Message {
	u := mkUser(id, name, score).MustSet("bio", bio)
	for _, tag := range tags {
		u.MustAdd("tags", tag)
	}
	return u
}

// indexAnswers renders what each index type of testSchema answers about the
// store's records (the VERSION index is left out: its entries hold commit
// versionstamps, which differ between databases).
func indexAnswers(t *testing.T, s *Store) string {
	t.Helper()
	var sb strings.Builder
	for _, name := range []string{"user_by_name", "by_name", "by_tag", "score_rank"} {
		fmt.Fprintf(&sb, "%s: %v\n", name, scanIndex(t, s, name, index.TupleRange{}))
	}
	rank, err := s.RankOfValue("score_rank", tuple.Tuple{int64(25)})
	if err != nil {
		t.Fatal(err)
	}
	postings, err := s.TextSearchToken("bio_text", "whale")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.AggregateInt64("score_sum", tuple.Tuple{})
	if err != nil {
		t.Fatal(err)
	}
	count, err := s.AggregateInt64("rec_count", tuple.Tuple{"User"})
	if err != nil {
		t.Fatal(err)
	}
	max, _, err := s.AggregateTuple("score_max", tuple.Tuple{})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&sb, "rank of 25: %d\nwhale: %v\nsum: %d\ncount: %d\nmax: %v\n", rank, postings, sum, count, max)
	return sb.String()
}

// TestDeleteAllRecords: every record, index entry, index state and build
// progress goes; the header, with its user version, stays.
func TestDeleteAllRecords(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	saveUsers(t, db, md, sp,
		mkBioUser(1, "ann", 10, "the white whale", "a", "b"),
		mkBioUser(2, "bob", 30, "a whale of a time", "b"),
		message.New(orderDesc()).MustSet("id", int64(1)).MustSet("name", "o1").MustSet("total", int64(5)))
	withStore(t, db, md, sp, func(s *Store) error {
		if err := s.SetUserVersion(7); err != nil {
			return err
		}
		if err := s.MarkIndexWriteOnly("by_tag"); err != nil {
			return err
		}
		return s.tr.Set(s.space.Pack(tuple.Tuple{progressSub, "by_tag"}), []byte("built so far"))
	})
	withStore(t, db, md, sp, func(s *Store) error { return s.DeleteAllRecords() })
	if n := db.Size(); n != 1 {
		t.Fatalf("%d keys remain, want the header alone:\n%s", n, strings.Join(dumpKeyspace(t, db), "\n"))
	}
	withStore(t, db, md, sp, func(s *Store) error {
		if s.Header().UserVersion != 7 {
			t.Fatalf("user version: %d", s.Header().UserVersion)
		}
		if st := s.IndexState("by_tag"); st != metadata.StateReadable {
			t.Fatalf("by_tag state: %v", st)
		}
		return nil
	})
}

// TestDeleteAllRecordsResetsCachedIndexStates: a state read before the delete
// must not outlive it — the stored state is gone, so a save after the delete
// maintains the index the store will next call readable.
func TestDeleteAllRecordsResetsCachedIndexStates(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	withStore(t, db, md, sp, func(s *Store) error { return s.MarkIndexDisabled("user_by_name") })
	withStore(t, db, md, sp, func(s *Store) error {
		if st := s.IndexState("user_by_name"); st != metadata.StateDisabled {
			t.Fatalf("state before delete: %v", st)
		}
		if err := s.DeleteAllRecords(); err != nil {
			return err
		}
		_, err := s.SaveRecord(mkUser(1, "ann", 10))
		return err
	})
	withStore(t, db, md, sp, func(s *Store) error {
		if st := s.IndexState("user_by_name"); st != metadata.StateReadable {
			t.Fatalf("state after delete: %v", st)
		}
		if entries := scanIndex(t, s, "user_by_name", index.TupleRange{}); len(entries) != 1 {
			t.Fatalf("user_by_name has %d entries for 1 record: %v", len(entries), entries)
		}
		return nil
	})
}

// TestDeleteAllRecordsThenSaveInOneTransaction: records saved after the delete,
// in the same transaction as saves before it, are indexed as they would be in
// a store that never held anything else — including by the RANK and TEXT
// maintainers, which keep per-transaction state about what they have written.
func TestDeleteAllRecordsThenSaveInOneTransaction(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	before := []*message.Message{
		mkBioUser(1, "ann", 10, "the white whale", "a", "b"),
		mkBioUser(2, "bob", 30, "a whale of a time", "b"),
		mkBioUser(3, "cat", 20, "no sea creatures here"),
	}
	after := []*message.Message{
		mkBioUser(2, "bea", 40, "whale watching", "c"),
		mkBioUser(4, "dan", 15, "ship and sea", "a"),
	}
	saveUsers(t, db, md, sp, before[0])
	var got string
	withStore(t, db, md, sp, func(s *Store) error {
		if _, err := s.SaveRecords(before[1:]); err != nil {
			return err
		}
		if err := s.DeleteAllRecords(); err != nil {
			return err
		}
		if _, err := s.SaveRecords(after); err != nil {
			return err
		}
		got = indexAnswers(t, s)
		return nil
	})
	fresh := subspace.FromTuple(tuple.Tuple{"tenant", int64(2)})
	saveUsers(t, db, md, fresh, after...)
	var want string
	withStore(t, db, md, fresh, func(s *Store) error { want = indexAnswers(t, s); return nil })
	if got != want {
		t.Fatalf("in the deleting transaction:\n%s\nfresh store:\n%s", got, want)
	}
	withStore(t, db, md, sp, func(s *Store) error { got = indexAnswers(t, s); return nil })
	if got != want {
		t.Fatalf("after commit:\n%s\nfresh store:\n%s", got, want)
	}
	if !strings.Contains(want, "count: 2") || !strings.Contains(want, "sum: 55") {
		t.Fatalf("fresh store answers: %s", want)
	}
}
