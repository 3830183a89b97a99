package fdb

import (
	"bytes"
	"errors"
	"testing"
)

// TestConflictErrorNamesTheOverlap: a real not_committed carries the first
// read range a committed write hit and that write, a set as one key and a
// clear as its range; an injected failure says so and names no keys.
func TestConflictErrorNamesTheOverlap(t *testing.T) {
	for _, c := range []struct {
		name  string
		write func(tr *Transaction) error
		want  KeyRange
	}{
		{"set", func(tr *Transaction) error { return tr.Set([]byte("c"), []byte("2")) }, KeyRange{Begin: []byte("c")}},
		{"clear", func(tr *Transaction) error { return tr.ClearRange([]byte("c"), []byte("cc")) },
			KeyRange{Begin: []byte("c"), End: []byte("cc")}},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := Open(nil)
			reader := db.CreateTransaction()
			if _, err := reader.Get([]byte("x")); err != nil {
				t.Fatal(err)
			}
			if _, _, err := reader.GetRange([]byte("b"), []byte("d"), RangeOptions{}); err != nil {
				t.Fatal(err)
			}
			if err := reader.Set([]byte("z"), nil); err != nil {
				t.Fatal(err)
			}
			writer := db.CreateTransaction()
			if err := c.write(writer); err != nil {
				t.Fatal(err)
			}
			if err := writer.Set([]byte("y"), nil); err != nil {
				t.Fatal(err)
			}
			if err := writer.Commit(); err != nil {
				t.Fatal(err)
			}
			var fe *Error
			if err := reader.Commit(); !errors.As(err, &fe) || fe.Code != CodeNotCommitted {
				t.Fatalf("commit: %v, want not_committed", err)
			}
			if fe.Injected || fe.Conflict == nil {
				t.Fatalf("conflict %+v: want a real one naming its keys", fe)
			}
			read, write := fe.Conflict.Read, fe.Conflict.Write
			if !bytes.Equal(read.Begin, []byte("b")) || !bytes.Equal(read.End, []byte("d")) {
				t.Errorf("read range [%q, %q), want [b, d)", read.Begin, read.End)
			}
			if !bytes.Equal(write.Begin, c.want.Begin) || !bytes.Equal(write.End, c.want.End) || (write.End == nil) != (c.want.End == nil) {
				t.Errorf("write [%q, %q), want [%q, %q)", write.Begin, write.End, c.want.Begin, c.want.End)
			}
		})
	}

	db, _ := faultyDB(FaultConfig{PCommitNotCommitted: 1})
	tr := db.CreateTransaction()
	if err := tr.Set([]byte("a"), nil); err != nil {
		t.Fatal(err)
	}
	var fe *Error
	if err := tr.Commit(); !errors.As(err, &fe) || fe.Code != CodeNotCommitted || !fe.Injected || fe.Conflict != nil {
		t.Fatalf("injected commit failure: %#v, want an injected not_committed naming no keys", err)
	}
	db, _ = faultyDB(FaultConfig{PReadTooOld: 1})
	if _, err := db.CreateTransaction().Get([]byte("a")); !errors.As(err, &fe) || !fe.Injected {
		t.Fatalf("injected read failure: %#v, want it marked injected", err)
	}
}

// TestLimitedReadConflictsOnWhatItSaw: a range read that stops at its limit
// conflicts on the part of the range it observed, up to and including the last
// key it returned, forward and reverse; a write past that bound commits.
func TestLimitedReadConflictsOnWhatItSaw(t *testing.T) {
	for _, c := range []struct {
		reverse      bool
		want         KeyRange
		inside, past string
	}{
		{false, KeyRange{Begin: []byte("a"), End: []byte("c\x00")}, "c", "c\x00"},
		{true, KeyRange{Begin: []byte("x"), End: []byte("z")}, "x", "w"},
	} {
		for _, key := range []string{c.inside, c.past} {
			db := Open(nil)
			if _, err := db.Transact(func(tr *Transaction) (interface{}, error) {
				for _, k := range []string{"c", "e", "w", "x"} {
					if err := tr.Set([]byte(k), nil); err != nil {
						return nil, err
					}
				}
				return nil, nil
			}); err != nil {
				t.Fatal(err)
			}
			reader := db.CreateTransaction()
			kvs, more, err := reader.GetRange([]byte("a"), []byte("z"), RangeOptions{Limit: 1, Reverse: c.reverse})
			if err != nil || len(kvs) != 1 || !more {
				t.Fatalf("reverse=%v: read %v more=%v %v", c.reverse, kvs, more, err)
			}
			if err := reader.Set([]byte("zz"), nil); err != nil {
				t.Fatal(err)
			}
			writer := db.CreateTransaction()
			if err := writer.Set([]byte(key), []byte("new")); err != nil {
				t.Fatal(err)
			}
			if err := writer.Commit(); err != nil {
				t.Fatal(err)
			}
			err = reader.Commit()
			if key == c.past {
				if err != nil {
					t.Errorf("reverse=%v: a write of %q past what the read saw: %v", c.reverse, key, err)
				}
				continue
			}
			var fe *Error
			if !errors.As(err, &fe) || fe.Conflict == nil {
				t.Fatalf("reverse=%v: a write of %q: %v, want a conflict", c.reverse, key, err)
			}
			if r := fe.Conflict.Read; !bytes.Equal(r.Begin, c.want.Begin) || !bytes.Equal(r.End, c.want.End) {
				t.Errorf("reverse=%v: read range [%q, %q), want [%q, %q)", c.reverse, r.Begin, r.End, c.want.Begin, c.want.End)
			}
		}
	}
}

// TestSnapshotReadKeepsAtomicsPending: a snapshot read of a key this
// transaction has ADDed to sees the sum, but records no conflict, so the ADD
// must still commit as an ADD: made a set of what the read saw, it would erase
// an ADD another transaction committed since the read version. A serializable
// read of the key conflicts with that commit instead.
func TestSnapshotReadKeepsAtomicsPending(t *testing.T) {
	le := func(n byte) []byte { return []byte{n, 0, 0, 0, 0, 0, 0, 0} }
	k := []byte("ctr")
	for _, c := range []struct {
		name string
		read func(tr *Transaction) ([]byte, error)
	}{
		{"snapshot get", func(tr *Transaction) ([]byte, error) { return tr.Snapshot().Get(k) }},
		{"snapshot range", func(tr *Transaction) ([]byte, error) {
			kvs, _, err := tr.Snapshot().GetRange(k, KeyAfter(k), RangeOptions{})
			if err != nil || len(kvs) == 0 {
				return nil, err
			}
			return kvs[0].Value, nil
		}},
		{"get", func(tr *Transaction) ([]byte, error) { return tr.Get(k) }},
	} {
		db := Open(nil)
		if _, err := db.Transact(func(tr *Transaction) (interface{}, error) { return nil, tr.Set(k, le(1)) }); err != nil {
			t.Fatal(err)
		}
		tr, other := db.CreateTransaction(), db.CreateTransaction()
		if err := tr.Atomic(MutationAdd, k, le(2)); err != nil {
			t.Fatal(err)
		}
		if v, err := c.read(tr); err != nil || !bytes.Equal(v, le(3)) {
			t.Fatalf("%s: read %x, %v; want %x", c.name, v, err, le(3))
		}
		if err := other.Atomic(MutationAdd, k, le(10)); err != nil {
			t.Fatal(err)
		}
		if err := other.Commit(); err != nil {
			t.Fatal(err)
		}
		err := tr.Commit()
		v, _ := db.ReadTransact(func(tr *Transaction) (interface{}, error) { return tr.Get(k) })
		switch {
		case c.name == "get" && !IsRetryable(err):
			t.Errorf("%s: commit %v, want a conflict", c.name, err)
		case c.name != "get" && (err != nil || !bytes.Equal(v.([]byte), le(13))):
			t.Errorf("%s: commit %v, counter %x; want both ADDs, %x", c.name, err, v, le(13))
		}
	}
}
