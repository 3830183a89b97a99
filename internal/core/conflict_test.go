package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"recordlayer/internal/fdb"
	"recordlayer/internal/history"
	"recordlayer/internal/index"
	"recordlayer/internal/keyspace"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// historyStores opens tenants a and b of the history schema in one database,
// each holding docs 1–3, and returns their subspaces.
func historyStores(t *testing.T, db *fdb.Database) (a, b subspace.Subspace) {
	t.Helper()
	a, b = subspace.FromTuple(tuple.Tuple{"tenant", "a"}), subspace.FromTuple(tuple.Tuple{"tenant", "b"})
	for _, sp := range []subspace.Subspace{a, b} {
		withHistoryStore(t, db, sp, func(s *Store) error {
			for id := int64(1); id <= 3; id++ {
				d := history.Doc{ID: id, Tag: "t", Slug: fmt.Sprint("s", id), Score: 10 * id, Body: "call me ishmael"}
				if _, err := s.SaveRecord(d.Message()); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return a, b
}

func withHistoryStore(t *testing.T, db *fdb.Database, sp subspace.Subspace, f func(s *Store) error) {
	t.Helper()
	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		s, err := Open(tr, history.Schema(1), sp, OpenOptions{CreateIfMissing: true})
		if err != nil {
			return nil, err
		}
		return nil, f(s)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConflictNamesItsKeys provokes one real conflict on a record and one on
// an index of each type: a transaction on tenant b reads one thing, a
// concurrent one writes it in tenants a and b and commits first. The
// conflict's pair, as the database's tap sees the verdict, must lie in tenant
// b's record subspace or the named index's, and its read range must intersect
// a read the transaction made. Both keys must decode, through a keyspace
// template and KeyClass, to tenant b and that subspace.
func TestConflictNamesItsKeys(t *testing.T) {
	doc := func(id, score int64, body string) history.Doc {
		return history.Doc{ID: id, Tag: "t", Slug: fmt.Sprint("s", id), Score: score, Body: body}
	}
	scanFirst := func(s *Store, name string) error {
		c, err := s.ScanIndex(name, index.TupleRange{}, index.ScanOptions{})
		if err != nil {
			return err
		}
		_, err = c.Next()
		return err
	}
	cases := []struct {
		name  string // the index the conflict is on; "" for the record
		read  func(s *Store) error
		write func(s *Store) error
	}{
		{"", func(s *Store) error { _, err := s.LoadRecordByKey(tuple.Tuple{int64(2)}); return err },
			func(s *Store) error { _, err := s.SaveRecord(doc(2, 20, "call me ahab").Message()); return err }},
		{history.ByTag, func(s *Store) error { return scanFirst(s, history.ByTag) },
			func(s *Store) error { _, err := s.SaveRecord(doc(9, 90, "whale").Message()); return err }},
		{history.ScoreSum, func(s *Store) error { _, err := s.AggregateInt64(history.ScoreSum, nil); return err },
			func(s *Store) error { _, err := s.SaveRecord(doc(9, 90, "whale").Message()); return err }},
		{history.ByVersion, func(s *Store) error { return scanFirst(s, history.ByVersion) },
			func(s *Store) error { _, err := s.SaveRecord(doc(9, 90, "whale").Message()); return err }},
		{history.ByScore, func(s *Store) error {
			_, _, err := s.Rank(history.ByScore, tuple.Tuple{int64(20)}, tuple.Tuple{int64(2)})
			return err
		},
			func(s *Store) error { _, err := s.DeleteRecord(tuple.Tuple{int64(2)}); return err }},
		{history.BodyText, func(s *Store) error { _, err := s.TextSearchToken(history.BodyText, "whale"); return err },
			func(s *Store) error { _, err := s.SaveRecord(doc(9, 90, "whale").Message()); return err }},
	}
	ks, err := keyspace.New(nil, keyspace.NewConstant("base", "tenant").Add(keyspace.NewDirectory("tenant", keyspace.TypeString)))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		what, class := "records", "records"
		if c.name != "" {
			what, class = c.name, "index "+c.name
		}
		t.Run(what, func(t *testing.T) {
			db := fdb.Open(nil)
			spA, spB := historyStores(t, db)
			var reads []fdb.Access
			var verdict error
			reader := db.CreateTransaction()
			db.SetTap(func(tr *fdb.Transaction, a fdb.Access) {
				switch {
				case tr != reader:
				case a.Kind == fdb.AccessCommit:
					verdict = a.Err
				case a.Kind == fdb.AccessRead && !a.Snapshot || a.Kind == fdb.AccessReadConflict:
					a.Begin, a.End = bytes.Clone(a.Begin), bytes.Clone(a.End)
					reads = append(reads, a)
				}
			})
			s, err := Open(reader, history.Schema(1), spB, OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.read(s); err != nil {
				t.Fatal(err)
			}
			if err := reader.Set([]byte("elsewhere"), nil); err != nil {
				t.Fatal(err)
			}
			for _, sp := range []subspace.Subspace{spA, spB} {
				withHistoryStore(t, db, sp, c.write)
			}
			if err := reader.Commit(); !fdb.IsConflict(err) {
				t.Fatalf("commit: %v, want a conflict", err)
			}
			var fe *fdb.Error
			if !errors.As(verdict, &fe) || fe.Conflict == nil || fe.Injected {
				t.Fatalf("the tap saw verdict %#v, want a real conflict naming its keys", verdict)
			}
			want := history.StoreRange(s.records)
			if c.name != "" {
				want = history.StoreRange(s.IndexSubspace(c.name))
			}
			r, w := fe.Conflict.Read, fe.Conflict.Write
			show := func(k fdb.KeyRange) string {
				if k.End == nil {
					return history.DecodeKey(k.Begin)
				}
				return "[" + history.DecodeKey(k.Begin) + ", " + history.DecodeKey(k.End) + ")"
			}
			if !want.Holds(r.Begin, r.End) || !want.Holds(w.Begin, w.End) {
				t.Fatalf("conflict read %s, write %s: not both in %s", show(r), show(w), want.Name)
			}
			t.Logf("conflict read %s, write %s", show(r), show(w))
			for _, k := range [][]byte{r.Begin, w.Begin} {
				path, rest, ok := ks.SplitKey([]string{"base", "tenant"}, k)
				if !ok || path != "/base:tenant/tenant:b" || KeyClass(rest) != class {
					t.Fatalf("%s describes as tenant %q (ok %v) subspace %q, want /base:tenant/tenant:b %s",
						history.DecodeKey(k), path, ok, KeyClass(rest), class)
				}
			}
			read := false
			for _, a := range reads {
				end := a.End
				if end == nil {
					end = fdb.KeyAfter(a.Begin)
				}
				read = read || bytes.Compare(a.Begin, r.End) < 0 && bytes.Compare(r.Begin, end) < 0
			}
			if !read {
				t.Fatalf("conflict read %s intersects no read the transaction made", show(r))
			}
		})
	}
}

// TestKeyClass names each part of a store's layout, the store's own prefix,
// and nothing else.
func TestKeyClass(t *testing.T) {
	for _, c := range []struct {
		key  tuple.Tuple
		want string
	}{
		{tuple.Tuple{headerSub}, "header"},
		{tuple.Tuple{recordsSub, int64(7), int64(unsplitRecord)}, "records"},
		{tuple.Tuple{indexSub, "by_tag", "t", int64(7)}, "index by_tag"},
		{tuple.Tuple{stateSub, "by_tag"}, "index state by_tag"},
		{tuple.Tuple{progressSub, "by_tag"}, "build progress by_tag"},
		{tuple.Tuple{headerSub, int64(1)}, ""},
		{tuple.Tuple{indexSub}, ""},
		{tuple.Tuple{int64(9), "x"}, ""},
		{tuple.Tuple{"records"}, ""},
		{nil, "store"}, // the store's own prefix, where a whole-store range starts
	} {
		if got := KeyClass(c.key.Pack()); got != c.want {
			t.Errorf("KeyClass(%v) = %q, want %q", c.key, got, c.want)
		}
	}
}

// TestUpgradeOfAnEmptyStoreConflictsWithASave: an open at a newer schema finds
// the store empty and makes the new index (by_n) readable with nothing built,
// while a transaction at the same read version saves a record at the old
// schema and commits first. The upgrade's count must conflict with that save,
// or by_n is readable without the record's entry.
func TestUpgradeOfAnEmptyStoreConflictsWithASave(t *testing.T) {
	db := fdb.Open(nil)
	sp := subspace.FromTuple(tuple.Tuple{"tenant", "a"})
	withHistoryStore(t, db, sp, func(*Store) error { return nil })
	save, upgrade := db.CreateTransaction(), db.CreateTransaction()
	rv, err := save.GetReadVersion()
	if err != nil {
		t.Fatal(err)
	}
	upgrade.SetReadVersion(rv)
	if _, err := Open(upgrade, history.Schema(2), sp, OpenOptions{}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(save, history.Schema(1), sp, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d := history.Doc{ID: 1, Tag: "t", Slug: "s1", N: 7}
	if _, err := s.SaveRecord(d.Message()); err != nil {
		t.Fatal(err)
	}
	if err := save.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := upgrade.Commit(); !fdb.IsRetryable(err) {
		t.Fatalf("the upgrade committed over a concurrent save (%v): by_n is readable without its entry", err)
	}
}
