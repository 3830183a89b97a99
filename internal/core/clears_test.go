package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// clearsChunkSize makes a record of the clears tests one pair up to 64 stored
// bytes and three pairs above 128.
const clearsChunkSize = 64

// clearsSchema is a one-type schema at version with a VALUE and a SUM index,
// both as old as version 1 so that moving between versions builds nothing.
func clearsSchema(version int, versions bool) *metadata.MetaData {
	return metadata.NewBuilder(version).
		SetStoreRecordVersions(versions).
		AddRecordType(userDesc(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		AddIndex(&metadata.Index{Name: "by_name", Type: metadata.IndexValue,
			Expression: keyexpr.Field("name"), AddedVersion: 1}).
		AddIndex(&metadata.Index{Name: "score_sum", Type: metadata.IndexSum,
			Expression: keyexpr.Ungrouped(keyexpr.Field("score")), AddedVersion: 1}).
		MustBuild()
}

// clearsUser is a user whose stored record is one pair (short bio) or three
// (long bio) at clearsChunkSize.
func clearsUser(rng *rand.Rand, id int64) *message.Message {
	bio := ""
	if rng.Intn(2) == 0 {
		bio = strings.Repeat("b", 120+rng.Intn(20))
	}
	return mkUser(id, fmt.Sprintf("n%d", rng.Intn(4)), int64(rng.Intn(100))).MustSet("bio", bio)
}

// refSave is SaveRecord as it was before saves consulted the loaded record's
// shape: load, range-clear the record's keys, write.
func refSave(s *Store, msg *message.Message) (*StoredRecord, error) {
	rt, pk, err := s.PrimaryKeyFor(msg)
	if err != nil {
		return nil, err
	}
	old, err := s.LoadRecordByKey(pk)
	if err != nil {
		return nil, err
	}
	if old != nil {
		b, e := s.recordRange(pk.Pack())
		if err := s.tr.ClearRange(b, e); err != nil {
			return nil, err
		}
	}
	return s.saveLoaded(rt, pk, pk.Pack(), msg, old)
}

// refDelete is DeleteRecord as it was: the record's whole range cleared.
func refDelete(s *Store, pk tuple.Tuple) (bool, error) {
	ok, err := s.DeleteRecord(pk)
	if err != nil || !ok {
		return ok, err
	}
	b, e := s.recordRange(pk.Pack())
	return true, s.tr.ClearRange(b, e)
}

// storePairs renders every committed pair below sp with sp's prefix removed.
func storePairs(t *testing.T, db *fdb.Database, sp subspace.Subspace) []string {
	t.Helper()
	var out []string
	_, err := db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		b, e := sp.Range()
		kvs, _, err := tr.Snapshot().GetRange(b, e, fdb.RangeOptions{})
		out = out[:0]
		for _, kv := range kvs {
			out = append(out, fmt.Sprintf("%x=%x", bytes.TrimPrefix(kv.Key, sp.Bytes()), kv.Value))
		}
		return nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// plantLoneChunk replaces a record's pairs with its envelope as one chunk at
// suffix 1, a split record of one chunk: a shape this store never writes, but
// one that must still be range-cleared.
func plantLoneChunk(s *Store, msg *message.Message) error {
	_, pk, err := s.PrimaryKeyFor(msg)
	if err != nil {
		return err
	}
	b, e := s.recordRange(pk.Pack())
	if err := s.tr.ClearRange(b, e); err != nil {
		return err
	}
	return s.tr.Set(s.recordKey(nil, pk.Pack(), 1), tuple.Tuple{msg.Descriptor().Name, mustMarshal(msg)}.Pack())
}

// TestSizeInformedClearsMatchRangeClears: saves and deletes that clear only
// the keys the loaded record's shape says nothing overwrites leave the same
// keyspace as range-clearing the record first. Each seeded history runs every
// operation against two stores, each in its own database: the real one, and a
// reference that range-clears as the code did before. Records flip between
// one and three pairs, batches repeat a primary key (the read-your-writes
// load), a record is sometimes planted as one chunk at suffix 1, and the
// schema turns record versions off and on again, so an old version slot must
// be cleared once. After every commit the stores are byte-identical below their
// prefixes; the databases commit in step, so their versionstamps agree.
func TestSizeInformedClearsMatchRangeClears(t *testing.T) {
	const seeds, ops = 300, 40
	const (
		opSave = iota
		opBatch
		opDelete
		opPlant
	)
	mds := []*metadata.MetaData{clearsSchema(1, true), clearsSchema(2, false), clearsSchema(3, true)}
	realSp := subspace.FromTuple(tuple.Tuple{"real"})
	refSp := subspace.FromTuple(tuple.Tuple{"ref"})
	opts := OpenOptions{CreateIfMissing: true, Config: Config{SplitChunkSize: clearsChunkSize}}
	var realClears, refClears int
	chunks := map[int]int{}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		realDB, refDB := fdb.Open(nil), fdb.Open(nil)
		off := 1 + rng.Intn(ops/2)
		on := off + 1 + rng.Intn(ops/2-1)
		for i := 0; i < ops; i++ {
			md := mds[0]
			if i >= on {
				md = mds[2]
			} else if i >= off {
				md = mds[1]
			}
			kind := opPlant
			if n := rng.Intn(10); n < 9 {
				kind = n / 3
			}
			var batch []*message.Message
			switch kind {
			case opSave, opPlant:
				batch = []*message.Message{clearsUser(rng, rng.Int63n(6))}
			case opBatch:
				id := rng.Int63n(6)
				batch = []*message.Message{clearsUser(rng, id), clearsUser(rng, rng.Int63n(6)), clearsUser(rng, id)}
			}
			pk := tuple.Tuple{"User", rng.Int63n(6)}
			// do runs the op on the real store, or on the reference, in its
			// own database, and returns what it renders and how many range
			// clears it issued.
			do := func(db *fdb.Database, sp subspace.Subspace, ref bool) (out string, clears int) {
				_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
					s, err := Open(tr, md, sp, opts)
					if err != nil {
						return nil, err
					}
					if kind == opPlant {
						return nil, plantLoneChunk(s, batch[0])
					}
					before := tr.Stats().RangeClears
					defer func() { clears = tr.Stats().RangeClears - before }()
					switch {
					case kind == opDelete && ref:
						ok, err := refDelete(s, pk)
						out = fmt.Sprint(ok)
						return nil, err
					case kind == opDelete:
						ok, err := s.DeleteRecord(pk)
						out = fmt.Sprint(ok)
						return nil, err
					case ref:
						var recs []*StoredRecord
						for _, msg := range batch {
							rec, err := refSave(s, msg)
							if err != nil {
								return nil, err
							}
							recs = append(recs, rec)
							chunks[rec.SplitChunks]++
						}
						out = savedShape(recs...)
						return nil, nil
					case kind == opSave:
						rec, err := s.SaveRecord(batch[0])
						if err == nil {
							out = savedShape(rec)
						}
						return nil, err
					}
					recs, err := s.SaveRecords(batch)
					out = savedShape(recs...)
					return nil, err
				})
				if err != nil {
					t.Fatalf("seed %d op %d: %v", seed, i, err)
				}
				return out, clears
			}
			got, n := do(realDB, realSp, false)
			realClears += n
			want, n := do(refDB, refSp, true)
			refClears += n
			if got != want {
				t.Fatalf("seed %d op %d: real returned %v, reference %v", seed, i, got, want)
			}
			if got, want := storePairs(t, realDB, realSp), storePairs(t, refDB, refSp); !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d (kind %d, versions %v): keyspaces differ\nreal %v\nref  %v",
					seed, i, kind, md.StoreRecordVersions, got, want)
			}
		}
	}
	if chunks[1] == 0 || chunks[3] == 0 {
		t.Fatalf("records never flipped between one and three pairs: %v", chunks)
	}
	if realClears == 0 || realClears >= refClears {
		t.Fatalf("real stores issued %d range clears, the reference %d: want fewer, but some for split records",
			realClears, refClears)
	}
	t.Logf("range clears: real %d, reference %d; saved records by pairs: %v", realClears, refClears, chunks)
}

// savedShape renders what a save returns about the records it wrote.
func savedShape(recs ...*StoredRecord) string {
	var b strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&b, "%v:%d/%d/%v/%d ", r.PrimaryKey, r.Size, r.SplitChunks, r.unsplit, r.pendingUserVersion)
	}
	return b.String()
}

// TestStaleSizeInfoStillConflicts: the shape a save reads decides its clears,
// so a save that read an unsplit record must not commit over a concurrent
// save that split it; otherwise the split chunks would outlive it. The
// conflict comes from the load's read of the record's range. Run through the
// retry loop, the retried save reads the split record and clears its range, so
// no chunk is left behind.
func TestStaleSizeInfoStillConflicts(t *testing.T) {
	db, md := fdb.Open(nil), testSchema(t)
	sp := subspace.FromTuple(tuple.Tuple{"tenant", int64(1)})
	opts := OpenOptions{CreateIfMissing: true, Config: Config{SplitChunkSize: clearsChunkSize}}
	pk := tuple.Tuple{"User", int64(1)}
	small := func(name string) *message.Message { return mkUser(1, name, 1) }
	big := mkUser(1, "big", 2).MustSet("bio", strings.Repeat("b", 150))
	save := func(tr *fdb.Transaction, msg *message.Message) (*StoredRecord, error) {
		s, err := Open(tr, md, sp, opts)
		if err != nil {
			return nil, err
		}
		return s.SaveRecord(msg)
	}
	split := func() {
		t.Helper()
		_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
			rec, err := save(tr, big)
			if err == nil && rec.SplitChunks != 3 {
				t.Fatalf("the big record took %d pairs, want 3", rec.SplitChunks)
			}
			return nil, err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) { return save(tr, small("a")) }); err != nil {
		t.Fatal(err)
	}

	t1 := db.CreateTransaction()
	s1, err := Open(t1, md, sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if old, err := s1.LoadRecordByKey(pk); err != nil || old == nil || !old.unsplit {
		t.Fatalf("T1 loaded %+v, %v; want the unsplit record", old, err)
	}
	split()
	if _, err := s1.SaveRecord(small("b")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); !fdb.IsConflict(err) {
		t.Fatalf("T1 committed over the split with %v; want not_committed", err)
	}

	// The same interleaving inside the retry loop: the first attempt reads the
	// unsplit record written back below, loses to a concurrent split, and the
	// retry overwrites the split record.
	if _, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) { return save(tr, small("c")) }); err != nil {
		t.Fatal(err)
	}
	attempts := 0
	_, err = db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		attempts++
		s, err := Open(tr, md, sp, opts)
		if err != nil {
			return nil, err
		}
		if _, err := s.LoadRecordByKey(pk); err != nil {
			return nil, err
		}
		if attempts == 1 {
			split()
		}
		return s.SaveRecord(small("d"))
	})
	if err != nil || attempts != 2 {
		t.Fatalf("retried save: %v after %d attempts; want success on the second", err, attempts)
	}
	var keys []string
	_, err = db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		s, err := Open(tr, md, sp, opts)
		if err != nil {
			return nil, err
		}
		b, e := s.recordRange(pk.Pack())
		kvs, _, err := tr.GetRange(b, e, fdb.RangeOptions{})
		for _, kv := range kvs {
			_, suffix, _ := s.splitRecordKey(kv.Key)
			n, _, _ := tuple.Int64At(suffix)
			keys = append(keys, fmt.Sprint(n))
		}
		return nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(keys, ","); got != "-1,0" {
		t.Fatalf("record keys by suffix after the retried save: %s; want the version slot and one pair (-1,0)", got)
	}
}
