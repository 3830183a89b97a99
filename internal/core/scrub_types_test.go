package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"recordlayer/internal/bunched"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/rankedset"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// scrubSchema has an index of every type a scrub checks, over User.
func scrubSchema() *metadata.MetaData {
	ix := func(name string, typ metadata.IndexType, e keyexpr.Expression) *metadata.Index {
		return &metadata.Index{Name: name, Type: typ, Expression: e}
	}
	unique := ix("name_unique", metadata.IndexValue, keyexpr.Field("name"))
	unique.Unique = true
	tags := keyexpr.FieldFan("tags", keyexpr.FanOut)
	return metadata.NewBuilder(1).
		AddRecordType(userDesc(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		AddIndex(unique).
		AddIndex(ix("by_tag", metadata.IndexValue, keyexpr.FieldFan("tags", keyexpr.FanOut))).
		AddIndex(ix("name_cover", metadata.IndexValue,
			keyexpr.KeyWithValue(keyexpr.Then(keyexpr.Field("name"), keyexpr.Field("score")), 1))).
		AddIndex(ix("by_version", metadata.IndexVersion, keyexpr.Version())).
		AddIndex(ix("score_rank", metadata.IndexRank, keyexpr.Field("score"))).
		AddIndex(ix("bio_text", metadata.IndexText, keyexpr.Field("bio"))).
		AddIndex(ix("score_sum", metadata.IndexSum, keyexpr.Ungrouped(keyexpr.Field("score")))).
		AddIndex(ix("tag_count", metadata.IndexCount, keyexpr.GroupBy(keyexpr.Empty(), tags))).
		AddIndex(ix("bio_count", metadata.IndexCountNonNull, keyexpr.Ungrouped(keyexpr.Field("bio")))).
		AddIndex(ix("tag_max", metadata.IndexMaxEver, keyexpr.GroupBy(keyexpr.Field("score"), tags))).
		AddIndex(ix("tag_min", metadata.IndexMinEver, keyexpr.GroupBy(keyexpr.Field("score"), tags))).
		AddIndex(ix("tag_updates", metadata.IndexCountUpdates, keyexpr.GroupBy(keyexpr.Empty(), tags))).
		SetStoreRecordVersions(true).
		MustBuild()
}

var scrubWords = []string{"ahab", "boat", "call", "dick", "east", "fish"}

// scrubUser is user i of a scrub store: unique names, tied scores, zero to two
// tags, and a short bio, unset on every fifth.
func scrubUser(i int) *message.Message {
	u := mkUser(int64(i), fmt.Sprintf("u%02d", i), int64(i*7%23))
	for j := 0; j < i%3; j++ {
		u.MustAdd("tags", []string{"red", "green"}[j])
	}
	if i%5 != 0 {
		u.MustSet("bio", strings.Join([]string{scrubWords[i%6], scrubWords[i*5%6], scrubWords[i%4]}, " "))
	}
	return u
}

// scrubStore saves n scrub users to a new store.
func scrubStore(t testing.TB, n int) (*fdb.Database, *metadata.MetaData, subspace.Subspace) {
	t.Helper()
	db, md, sp := fdb.Open(nil), scrubSchema(), subspace.FromTuple(tuple.Tuple{"scrub"})
	withStore(t, db, md, sp, func(s *Store) error {
		for i := 1; i <= n; i++ {
			if _, err := s.SaveRecord(scrubUser(i)); err != nil {
				return err
			}
		}
		return nil
	})
	return db, md, sp
}

// scrubAll scrubs one index and fails the test on an error.
func scrubAll(t testing.TB, db fdb.Door, md *metadata.MetaData, sp subspace.Subspace, name string, repair bool) *ScrubReport {
	t.Helper()
	rep, err := (&Scrubber{DB: db, MetaData: md, Space: sp, IndexName: name, BatchSize: 3, Repair: repair}).Scrub(context.Background())
	if err != nil {
		t.Fatalf("scrub %s: %v", name, err)
	}
	return rep
}

// indexPairs returns an index's pairs under sub (nil: all of them).
func indexPairs(s *Store, name string, sub ...interface{}) []fdb.KeyValue {
	sp := s.IndexSubspace(name)
	if sub != nil {
		sp = sp.Sub(sub...)
	}
	_, e := sp.Range()
	kvs, _, err := s.tr.GetRange(sp.Bytes(), e, fdb.RangeOptions{})
	if err != nil {
		panic(err)
	}
	return kvs
}

// counter encodes an aggregate or finger count.
func counter(n int64) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(n)) }

func decodeCounter(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }

// rankSet is the skip list of a store's score_rank index.
func rankSet(s *Store) *rankedset.RankedSet {
	return rankedset.New(s.IndexSubspace("score_rank").Sub(1), nil)
}

// textMap is the bunched map of a store's bio_text index.
func textMap(s *Store) *bunched.Map {
	return bunched.New(s.IndexSubspace("bio_text"), bunched.DefaultBunchSize)
}

// TestScrubEveryType: for each index type, a fresh store scrubs clean; a
// seeded corruption — a dropped, duplicated or altered entry, posting, count
// or finger — is reported with the kind and key it has; and a Repair pass
// leaves a clean re-scrub.
func TestScrubEveryType(t *testing.T) {
	// stray copies an entry's key to the primary key of no record.
	stray := func(s *Store, name string, kv fdb.KeyValue) []byte {
		sp := s.IndexSubspace(name)
		t, err := sp.Unpack(kv.Key)
		if err != nil {
			panic(err)
		}
		t[len(t)-1] = int64(99)
		return sp.Pack(t)
	}
	cases := []struct {
		name, index string
		// corrupt changes the index and returns the keys, as tuple.Describe
		// renders them, of the issues it must cause, each with its kind.
		corrupt func(s *Store) (map[string]string, error)
	}{
		{"unique value dropped", "name_unique", func(s *Store) (map[string]string, error) {
			kv := indexPairs(s, "name_unique")[2]
			return issue(ScrubMissing, kv.Key), s.tr.Clear(kv.Key)
		}},
		{"unique value duplicated under a stray primary key", "name_unique", func(s *Store) (map[string]string, error) {
			key := stray(s, "name_unique", indexPairs(s, "name_unique")[3])
			return issue(ScrubDangling, key), s.tr.Set(key, nil)
		}},
		{"fan-out entry dropped", "by_tag", func(s *Store) (map[string]string, error) {
			kv := indexPairs(s, "by_tag")[1]
			return issue(ScrubMissing, kv.Key), s.tr.Clear(kv.Key)
		}},
		{"covering value altered", "name_cover", func(s *Store) (map[string]string, error) {
			kv := indexPairs(s, "name_cover")[4]
			return issue(ScrubMismatch, kv.Key), s.tr.Set(kv.Key, tuple.Tuple{int64(1000)}.Pack())
		}},
		{"version entry duplicated under a stray primary key", "by_version", func(s *Store) (map[string]string, error) {
			key := stray(s, "by_version", indexPairs(s, "by_version")[0])
			return issue(ScrubDangling, key), s.tr.Set(key, nil)
		}},
		{"version entry dropped", "by_version", func(s *Store) (map[string]string, error) {
			kv := indexPairs(s, "by_version")[5]
			return issue(ScrubMissing, kv.Key), s.tr.Clear(kv.Key)
		}},
		{"rank value entry dropped", "score_rank", func(s *Store) (map[string]string, error) {
			kv := indexPairs(s, "score_rank", 0)[3]
			return issue(ScrubMissing, kv.Key), s.tr.Clear(kv.Key)
		}},
		{"rank member dropped", "score_rank", func(s *Store) (map[string]string, error) {
			kv := indexPairs(s, "score_rank", 1, 0)[6]
			return issue(ScrubMissing, kv.Key), s.tr.Clear(kv.Key)
		}},
		{"rank finger off by one", "score_rank", func(s *Store) (map[string]string, error) {
			rs := rankSet(s)
			top := rs.Key(rs.Levels()-1, []byte{})
			v, err := s.tr.Get(top)
			if err != nil {
				return nil, err
			}
			return issue(ScrubMismatch, top), s.tr.Set(top, counter(decodeCounter(v)+1))
		}},
		{"rank ghost finger", "score_rank", plantGhostFinger},
		{"text posting dropped", "bio_text", func(s *Store) (map[string]string, error) {
			mp := textMap(s)
			pk := tuple.Tuple{"User", int64(2)}
			_, err := mp.Delete(s.tr, scrubWords[2], pk)
			return issue(ScrubMissing, mp.Key(scrubWords[2], pk)), err
		}},
		{"text posting altered", "bio_text", func(s *Store) (map[string]string, error) {
			mp := textMap(s)
			pk := tuple.Tuple{"User", int64(3)}
			return issue(ScrubMismatch, mp.Key(scrubWords[3], pk)), mp.Insert(s.tr, scrubWords[3], pk, []int64{77})
		}},
		{"text posting duplicated", "bio_text", func(s *Store) (map[string]string, error) {
			mp := textMap(s)
			kv := indexPairs(s, "bio_text")[0]
			token, entries, err := mp.Decode(kv)
			if err != nil || len(entries) < 2 {
				return nil, fmt.Errorf("first bunch %v: %v", entries, err)
			}
			dup := mp.Key(token, entries[1].PK)
			return issue(ScrubDangling, dup), mp.Rewrite(s.tr, dup, token, entries[1:2])
		}},
		{"text bunch that does not decode", "bio_text", func(s *Store) (map[string]string, error) {
			key := s.IndexSubspace("bio_text").Pack(tuple.Tuple{"zzz", int64(1)})
			return issue(ScrubDangling, key), s.tr.Set(key, []byte{0xff})
		}},
		{"sum altered", "score_sum", func(s *Store) (map[string]string, error) {
			kv := indexPairs(s, "score_sum")[0]
			return issue(ScrubMismatch, kv.Key), s.tr.Set(kv.Key, counter(decodeCounter(kv.Value)+5))
		}},
		{"sum dropped", "score_sum", func(s *Store) (map[string]string, error) {
			kv := indexPairs(s, "score_sum")[0]
			return issue(ScrubMissing, kv.Key), s.tr.Clear(kv.Key)
		}},
		{"count duplicated under another group", "tag_count", func(s *Store) (map[string]string, error) {
			kv := indexPairs(s, "tag_count")[0]
			key := s.IndexSubspace("tag_count").Pack(tuple.Tuple{"blue"})
			return issue(ScrubDangling, key), s.tr.Set(key, kv.Value)
		}},
		{"count altered", "tag_count", func(s *Store) (map[string]string, error) {
			kv := indexPairs(s, "tag_count")[1]
			return issue(ScrubMismatch, kv.Key), s.tr.Set(kv.Key, counter(decodeCounter(kv.Value)-1))
		}},
		{"count that is no counter", "bio_count", func(s *Store) (map[string]string, error) {
			kv := indexPairs(s, "bio_count")[0]
			return issue(ScrubMismatch, kv.Key), s.tr.Set(kv.Key, []byte{1, 2, 3})
		}},
		{"max-ever lowered below a live value", "tag_max", func(s *Store) (map[string]string, error) {
			kv := indexPairs(s, "tag_max")[0]
			return issue(ScrubMismatch, kv.Key), s.tr.Set(kv.Key, tuple.Tuple{int64(-1)}.Pack())
		}},
		{"min-ever raised above a live value", "tag_min", func(s *Store) (map[string]string, error) {
			kv := indexPairs(s, "tag_min")[1]
			return issue(ScrubMismatch, kv.Key), s.tr.Set(kv.Key, tuple.Tuple{int64(1000)}.Pack())
		}},
		{"count-updates below its live count", "tag_updates", func(s *Store) (map[string]string, error) {
			kv := indexPairs(s, "tag_updates")[0]
			return issue(ScrubMismatch, kv.Key), s.tr.Set(kv.Key, counter(decodeCounter(kv.Value)-1))
		}},
		{"max-ever group deleted", "tag_max", func(s *Store) (map[string]string, error) {
			kv := indexPairs(s, "tag_max")[1]
			return issue(ScrubMissing, kv.Key), s.tr.Clear(kv.Key)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db, md, sp := scrubStore(t, 24)
			if rep := scrubAll(t, db, md, sp, c.index, false); !rep.Clean() {
				t.Fatalf("fresh store: %v", rep.Issues)
			}
			var want map[string]string
			withStore(t, db, md, sp, func(s *Store) (err error) {
				want, err = c.corrupt(s)
				return err
			})
			rep := scrubAll(t, db, md, sp, c.index, false)
			got := map[string]string{}
			for _, i := range rep.Issues {
				got[i.Key] = i.Kind
			}
			for key, kind := range want {
				if got[key] != kind {
					t.Errorf("issue %s %s not reported; the scrub found %v", kind, key, rep.Issues)
				}
			}
			if rep.Repaired != 0 {
				t.Errorf("a report-only scrub repaired %d", rep.Repaired)
			}
			fix := scrubAll(t, db, md, sp, c.index, true)
			if fix.Repaired != len(fix.Issues) || fix.Repaired == 0 {
				t.Errorf("repair pass found %d issues and repaired %d", len(fix.Issues), fix.Repaired)
			}
			if rep := scrubAll(t, db, md, sp, c.index, false); !rep.Clean() {
				t.Fatalf("after repair: %v", rep.Issues)
			}
		})
	}
}

// issue is the expectation of one issue at a physical key.
func issue(kind string, key []byte) map[string]string {
	return map[string]string{tuple.Describe(key): kind}
}

// plantGhostFinger plants what a concurrent delete and insert once left: a
// level-1 finger at a member the level function does not promote, holding 1,
// with its floor finger one short.
func plantGhostFinger(s *Store) (map[string]string, error) {
	rs, set := rankSet(s), s.IndexSubspace("score_rank").Sub(1)
	b, e := set.Sub(int64(0)).Range()
	members, _, err := s.tr.GetRange(b, e, fdb.RangeOptions{})
	if err != nil {
		return nil, err
	}
	for _, kv := range members {
		t, err := set.Unpack(kv.Key)
		if err != nil {
			return nil, err
		}
		m := t[1].([]byte)
		if promoted, err := s.tr.Get(rs.Key(1, m)); err != nil || promoted != nil {
			continue
		}
		b, _ := set.Sub(int64(1)).Range()
		floors, _, err := s.tr.GetRange(b, rs.Key(1, m), fdb.RangeOptions{Limit: 1, Reverse: true})
		if err != nil || len(floors) == 0 {
			return nil, fmt.Errorf("no floor finger: %v", err)
		}
		ghost := rs.Key(1, m)
		if err := s.tr.Set(ghost, counter(1)); err != nil {
			return nil, err
		}
		floor := floors[0]
		want := issue(ScrubDangling, ghost)
		want[tuple.Describe(floor.Key)] = ScrubMismatch
		return want, s.tr.Set(floor.Key, counter(decodeCounter(floor.Value)-1))
	}
	return nil, fmt.Errorf("every member is promoted")
}

// TestScrubSeesNoIssueInSavesBetweenBatches: saves committed between two
// batches of a scrub — records changed, added and deleted — yield no issue and
// no repair for any index type: each batch checks one snapshot, and the totals
// of the aggregates are all rebuilt at the first batch's.
func TestScrubSeesNoIssueInSavesBetweenBatches(t *testing.T) {
	for _, ix := range scrubSchema().Indexes() {
		t.Run(ix.Name, func(t *testing.T) {
			db, md, sp := scrubStore(t, 24)
			saves := 0
			door := &hookDoor{Door: db, before: func(n int) {
				if n < 2 {
					return
				}
				saves++
				withStore(t, db, md, sp, func(s *Store) error {
					u := scrubUser(saves%24 + 1)
					u.MustSet("score", int64(saves*11%29)).MustSet("name", fmt.Sprintf("v%02d", saves))
					u.MustSet("bio", scrubWords[saves%6]+" "+scrubWords[(saves+1)%6])
					if _, err := s.SaveRecord(u); err != nil {
						return err
					}
					if _, err := s.SaveRecord(scrubUser(100 + saves)); err != nil {
						return err
					}
					_, err := s.DeleteRecord(tuple.Tuple{"User", int64((saves*5)%24 + 1)})
					return err
				})
			}}
			rep := scrubAll(t, door, md, sp, ix.Name, true)
			if !rep.Clean() || rep.Repaired != 0 {
				t.Fatalf("%d saves between batches: issues %v, %d repaired", saves, rep.Issues, rep.Repaired)
			}
			if saves < 3 {
				t.Fatalf("only %d saves between batches", saves)
			}
			if rep := scrubAll(t, db, md, sp, ix.Name, false); !rep.Clean() {
				t.Fatalf("after the saves: %v", rep.Issues)
			}
		})
	}
}

// churn commits 65 transactions outside any store: one more than the
// simulator keeps snapshots for, so no read version before them is readable.
func churn(t *testing.T, db *fdb.Database) {
	t.Helper()
	for i := 0; i < 65; i++ {
		if _, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
			return nil, tr.Set([]byte("churn"), []byte{byte(i)})
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScrubRestartsAnOutlivedPass: 65 commits between a SUM pass's first and
// second batch outlive the read version the pass pinned, so the second batch
// fails transaction_too_old. The pass starts over once, at a fresh read
// version, and completes clean, each record counted once.
func TestScrubRestartsAnOutlivedPass(t *testing.T) {
	db, md, sp := scrubStore(t, 24)
	door := &hookDoor{Door: db, before: func(n int) {
		if n == 2 {
			churn(t, db)
		}
	}}
	rep, err := (&Scrubber{DB: door, MetaData: md, Space: sp, IndexName: "score_sum", BatchSize: 3}).Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Restarts != 1 || rep.RecordsScanned != 24 {
		t.Fatalf("issues %v, %d restarts, %d records; want clean, 1 restart, 24 records", rep.Issues, rep.Restarts, rep.RecordsScanned)
	}
}

// TestScrubGivesUpOnAPassOutlivedEveryTime: when 65 commits come before
// every batch, every pass outlives its read version at its second batch, at
// once, without the door retrying it; after maxScrubRestarts restarts the
// scrub returns the transaction_too_old.
func TestScrubGivesUpOnAPassOutlivedEveryTime(t *testing.T) {
	db, md, sp := scrubStore(t, 24)
	door := &hookDoor{Door: db, before: func(int) { churn(t, db) }}
	rep, err := (&Scrubber{DB: door, MetaData: md, Space: sp, IndexName: "score_sum", BatchSize: 3}).Scrub(context.Background())
	var fe *fdb.Error
	if !errors.As(err, &fe) || fe.Code != fdb.CodeTransactionTooOld {
		t.Fatalf("Scrub = %v, want transaction_too_old", err)
	}
	if rep.Restarts != maxScrubRestarts || door.n != 2*(maxScrubRestarts+1) || door.attempts != 1 {
		t.Fatalf("%d restarts, %d batches, %d attempts of the last; want %d, %d, 1",
			rep.Restarts, door.n, door.attempts, maxScrubRestarts, 2*(maxScrubRestarts+1))
	}
}

// twiceDoor runs every transaction to its commit, then runs it again: the
// retry that follows a commit whose result was unknown but which applied.
type twiceDoor struct{ fdb.Door }

func (d twiceDoor) RunIdempotent(ctx context.Context, fn fdb.TransactFunc) (interface{}, error) {
	//rl:idempotent passes the wrapped loop's own promise through
	if _, err := d.Door.RunIdempotent(ctx, fn); err != nil {
		return nil, err
	}
	//rl:idempotent passes the wrapped loop's own promise through
	return d.Door.RunIdempotent(ctx, fn)
}

// TestScrubRechecksTotalsAfterUnknownRepair: a repair of a total adds the
// difference at the pass's read version, which does not show that repair,
// so the batch must not run again once it may have committed: the pass
// starts over instead, finds the total right, and counts the issue repaired.
// Adding the difference twice would leave the total wrong the other way.
func TestScrubRechecksTotalsAfterUnknownRepair(t *testing.T) {
	db, md, sp := scrubStore(t, 24)
	withStore(t, db, md, sp, func(s *Store) error {
		kv := indexPairs(s, "score_sum")[0]
		return s.tr.Set(kv.Key, counter(decodeCounter(kv.Value)+5))
	})
	rep := scrubAll(t, twiceDoor{db}, md, sp, "score_sum", true)
	if len(rep.Issues) != 1 || rep.Issues[0].Kind != ScrubMismatch || rep.Repaired != 1 {
		t.Fatalf("repair through retried commits: %v, %d repaired; want the one mismatch, repaired", rep.Issues, rep.Repaired)
	}
	if rep := scrubAll(t, db, md, sp, "score_sum", false); !rep.Clean() {
		t.Fatalf("after the repair: %v", rep.Issues)
	}
}

// TestScrubReportsAFaultyFingerOnce: one fault planted on level 1 of the skip
// list of 80 users, under levels whose fingers sum it: its last finger one
// over its count, that finger deleted, or a ghost finger holding 1 at a member
// the level function does not promote. A report-only pass, in batches of 3,
// reports it alone: the recount of level 2 reads level 1 as the fault
// corrects it (it used to report the level-2 finger that sums it too). A
// repairing pass reports and repairs it alone, as it did, and leaves the
// index clean.
func TestScrubReportsAFaultyFingerOnce(t *testing.T) {
	for _, kind := range []string{ScrubMismatch, ScrubMissing, ScrubDangling} {
		db, md, sp := scrubStore(t, 80)
		var want string
		withStore(t, db, md, sp, func(s *Store) error {
			rs := rankSet(s)
			fingers := indexPairs(s, "score_rank", 1, 1)
			if len(fingers) < 3 || rs.Levels() < 4 {
				return fmt.Errorf("%d levels, %d fingers on level 1: want a head and two more under two levels", rs.Levels(), len(fingers))
			}
			kv := fingers[len(fingers)-1]
			want = tuple.Describe(kv.Key)
			switch kind {
			case ScrubMismatch:
				return s.tr.Set(kv.Key, counter(decodeCounter(kv.Value)+1))
			case ScrubMissing:
				return s.tr.Clear(kv.Key)
			}
			for _, m := range indexPairs(s, "score_rank", 1, 0) {
				tup, _ := s.IndexSubspace("score_rank").Sub(1).Unpack(m.Key)
				ghost := rs.Key(1, tup[1].([]byte))
				if v, err := s.tr.Get(ghost); err != nil || v == nil {
					want = tuple.Describe(ghost)
					return s.tr.Set(ghost, counter(1))
				}
			}
			return fmt.Errorf("every member is promoted")
		})
		for _, repair := range []bool{false, true} {
			rep := scrubAll(t, db, md, sp, "score_rank", repair)
			if len(rep.Issues) != 1 || rep.Issues[0].Key != want || rep.Issues[0].Kind != kind {
				t.Errorf("%s, repair %v: issues %v, want the %s at %s alone", kind, repair, rep.Issues, kind, want)
			}
			if n := map[bool]int{true: 1}[repair]; rep.Repaired != n {
				t.Errorf("%s, repair %v: repaired %d, want %d", kind, repair, rep.Repaired, n)
			}
		}
		if rep := scrubAll(t, db, md, sp, "score_rank", false); !rep.Clean() {
			t.Fatalf("%s: after repair: %v", kind, rep.Issues)
		}
	}
}
