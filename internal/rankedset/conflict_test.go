package rankedset

import (
	"sort"
	"strings"
	"testing"

	"recordlayer/internal/fdb"
)

// splitConfig is a two-level set on which f and p are promoted to level 1.
func splitConfig() *Config {
	return &Config{Levels: 2, LevelFunc: func(key []byte, level int) bool {
		return string(key) == "f" || string(key) == "p"
	}}
}

// checkSerial requires every answer of the set to be what a serial execution
// that inserted exactly members would give.
func checkSerial(t *testing.T, db *fdb.Database, rs *RankedSet, what string, members []string) {
	t.Helper()
	sort.Strings(members)
	_, err := db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		if n, err := rs.Size(tr); err != nil || n != int64(len(members)) {
			t.Errorf("%s: Size = %d, %v; want %d", what, n, err, len(members))
		}
		for i, m := range members {
			if r, ok, err := rs.Rank(tr, []byte(m)); err != nil || !ok || r != int64(i) {
				t.Errorf("%s: Rank(%s) = %d, %v, %v; want %d", what, m, r, ok, err, i)
			}
			if k, ok, err := rs.Select(tr, int64(i)); err != nil || !ok || string(k) != m {
				t.Errorf("%s: Select(%d) = %q, %v, %v; want %s", what, i, k, ok, err, m)
			}
			// Just above m: counts m and everything before it.
			if n, err := rs.CountLess(tr, []byte(m+"~")); err != nil || n != int64(i+1) {
				t.Errorf("%s: CountLess(%s~) = %d, %v; want %d", what, m, n, err, i+1)
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFingerSplitConflictsWithConcurrentBump is the miscount PR 19 recorded:
// at one read version, one transaction splits finger f by inserting the
// promoted p, another inserts q > p and, finding f as q's finger, bumps it
// with ADD f, 1. Probes are snapshot reads, so without explicit conflicts
// both commit, in either order, and q is counted under f instead of p (or,
// bump first, not at all: the split's Set of f erases it). Whichever commits
// second must be turned away, and once it has retried every answer must be a
// serial execution's.
func TestFingerSplitConflictsWithConcurrentBump(t *testing.T) {
	for _, splitFirst := range []bool{true, false} {
		what := "split commits first"
		if !splitFirst {
			what = "bump commits first"
		}
		db, rs := newSet(t, splitConfig())
		insert(t, db, rs, "a", "f", "h")
		split, bump := db.CreateTransaction(), db.CreateTransaction()
		for _, tr := range []*fdb.Transaction{split, bump} {
			if _, err := tr.GetReadVersion(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rs.Insert(split, []byte("p")); err != nil {
			t.Fatal(err)
		}
		if _, err := rs.Insert(bump, []byte("q")); err != nil {
			t.Fatal(err)
		}
		first, second, late := split, bump, "q"
		members := []string{"a", "f", "h", "p"}
		if !splitFirst {
			first, second, late = bump, split, "p"
			members = []string{"a", "f", "h", "q"}
		}
		if err := first.Commit(); err != nil {
			t.Fatalf("%s: first commit: %v", what, err)
		}
		if err := second.Commit(); err == nil {
			t.Errorf("%s: both committed", what)
			members = append(members, late)
		} else if !fdb.IsRetryable(err) {
			t.Fatalf("%s: second commit: %v", what, err)
		}
		checkSerial(t, db, rs, what, members)
		if len(members) == 4 {
			insert(t, db, rs, late)
			checkSerial(t, db, rs, what+", second retried", append(members, late))
		}
	}
}

// TestBumpsOfOneFingerDoNotConflict is the other half, and the paper's case
// for atomic-mutation indexes (§6): two transactions that insert unpromoted
// keys under the same finger, or delete them, only ADD to it and must both
// commit.
func TestBumpsOfOneFingerDoNotConflict(t *testing.T) {
	db, rs := newSet(t, splitConfig())
	insert(t, db, rs, "a", "f", "h", "k")
	t1, t2, t3 := db.CreateTransaction(), db.CreateTransaction(), db.CreateTransaction()
	if _, err := rs.Insert(t1, []byte("g")); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Insert(t2, []byte("j")); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Delete(t3, []byte("k")); err != nil {
		t.Fatal(err)
	}
	for i, tr := range []*fdb.Transaction{t1, t2, t3} {
		if err := tr.Commit(); err != nil {
			t.Fatalf("transaction %d of three bumping finger f: %v", i+1, err)
		}
	}
	checkSerial(t, db, rs, "three bumps of f", []string{"a", "f", "g", "h", "j"})
}

// levelMembers lists the members of one level's entries, the head as "".
func levelMembers(t *testing.T, db *fdb.Database, rs *RankedSet, level int) []string {
	t.Helper()
	var out []string
	_, err := db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		begin, end := rs.levelRange(level)
		kvs, _, err := tr.GetRange(begin, end, fdb.RangeOptions{})
		for _, kv := range kvs {
			m, err := rs.memberOf(kv.Key)
			if err != nil {
				return nil, err
			}
			out = append(out, string(m))
		}
		return nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDeleteOfFingerConflictsWithConcurrentBump: at one read version, one
// transaction deletes the promoted p, which merges p's finger into f's; another
// inserts q > p and, finding p as q's finger, bumps it with ADD p, 1. Committed
// delete first, the bump's ADD would recreate finger p, a ghost of a
// non-member that no serial order builds; every read still answers serially.
// Whichever commits second must be turned away, and level 1 must then hold
// exactly the fingers of its members.
func TestDeleteOfFingerConflictsWithConcurrentBump(t *testing.T) {
	for _, deleteFirst := range []bool{true, false} {
		what := "delete commits first"
		if !deleteFirst {
			what = "bump commits first"
		}
		db, rs := newSet(t, splitConfig())
		insert(t, db, rs, "a", "f", "h", "p")
		del, bump := db.CreateTransaction(), db.CreateTransaction()
		for _, tr := range []*fdb.Transaction{del, bump} {
			if _, err := tr.GetReadVersion(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rs.Delete(del, []byte("p")); err != nil {
			t.Fatal(err)
		}
		if _, err := rs.Insert(bump, []byte("q")); err != nil {
			t.Fatal(err)
		}
		first, second := del, bump
		members, fingers := []string{"a", "f", "h"}, []string{"", "f"}
		if !deleteFirst {
			first, second = bump, del
			members, fingers = []string{"a", "f", "h", "p", "q"}, []string{"", "f", "p"}
		}
		if err := first.Commit(); err != nil {
			t.Fatalf("%s: first commit: %v", what, err)
		}
		if err := second.Commit(); err == nil {
			t.Errorf("%s: both committed", what)
		} else if !fdb.IsRetryable(err) {
			t.Fatalf("%s: second commit: %v", what, err)
		}
		checkSerial(t, db, rs, what, members)
		if got := levelMembers(t, db, rs, 1); strings.Join(got, ",") != strings.Join(fingers, ",") {
			t.Errorf("%s: level 1 fingers %q, want %q", what, got, fingers)
		}
	}
}

// TestTwoDeletesKeepAConcurrentBump: one transaction deletes two unpromoted
// keys under finger f, so its second delete's snapshot probe of level 1 reads
// f over the first one's pending ADD; another inserts g under f and commits
// first. All three only ADD to f (§6), so both commit, and f must count all
// three changes: a probe that turned the pending ADD into a set would erase
// the insert's.
func TestTwoDeletesKeepAConcurrentBump(t *testing.T) {
	db, rs := newSet(t, splitConfig())
	insert(t, db, rs, "a", "f", "h", "k", "m")
	del, ins := db.CreateTransaction(), db.CreateTransaction()
	for _, key := range []string{"h", "k"} {
		if _, err := rs.Delete(del, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rs.Insert(ins, []byte("g")); err != nil {
		t.Fatal(err)
	}
	for i, tr := range []*fdb.Transaction{ins, del} {
		if err := tr.Commit(); err != nil {
			t.Fatalf("transaction %d of two bumping finger f: %v", i+1, err)
		}
	}
	checkSerial(t, db, rs, "two deletes and an insert under f", []string{"a", "f", "g", "m"})
}
