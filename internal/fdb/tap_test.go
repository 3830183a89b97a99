package fdb

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// TestTapSeesEveryAccess: a database's tap sees each read, snapshot or
// serializable and a read transaction's too, each write, clear and conflict
// range, and every commit's verdict, in the order the transaction issued
// them.
func TestTapSeesEveryAccess(t *testing.T) {
	db := Open(nil)
	var got []string
	db.SetTap(func(tr *Transaction, a Access) {
		s := fmt.Sprintf("%v %q", a.Kind, a.Begin)
		if a.End != nil {
			s += fmt.Sprintf("..%q", a.End)
		}
		if a.Snapshot {
			s += " snapshot"
		}
		if a.Kind == AccessCommit {
			s += fmt.Sprintf(" %v", a.Err != nil)
		}
		got = append(got, s)
	})
	one := []byte{1, 0, 0, 0}
	tr := db.CreateTransaction()
	tr.Get([]byte("a"))
	tr.Snapshot().GetRangeAsync([]byte("b"), []byte("c"), RangeOptions{}).Get()
	tr.Set([]byte("d"), nil)
	tr.Atomic(MutationAdd, []byte("e"), one)
	tr.Clear([]byte("f"))
	tr.ClearRange([]byte("g"), []byte("h"))
	tr.ClearRange([]byte("h"), []byte("g")) // empty: clears nothing
	tr.AddReadConflictRange([]byte("i"), []byte("j"))
	tr.AddWriteConflictKey([]byte("k"))
	tr.BumpMetadataVersion()
	tr.MetadataVersion()
	tr.Commit()
	db.ReadRun(context.Background(), func(_ context.Context, tr *Transaction) (interface{}, error) {
		kvs, _, err := tr.GetRange([]byte("l"), []byte("m"), RangeOptions{Limit: 1})
		return kvs, err
	})
	stale := db.CreateTransaction()
	stale.Get([]byte("n"))
	writer := db.CreateTransaction()
	writer.Set([]byte("n"), nil)
	writer.Commit()
	stale.Set([]byte("o"), nil)
	if stale.Commit() == nil {
		t.Fatal("the stale transaction committed")
	}
	want := []string{
		`read "a"`,
		`read "b".."c" snapshot`,
		`write "d"`,
		`write "e"`,
		`clear "f".."f\x00"`,
		`clear "g".."h"`,
		`read conflict "i".."j"`,
		`write conflict "k"`,
		`write "\xff/metadataVersion"`,
		`read "\xff/metadataVersion" snapshot`,
		`commit "" false`,
		`read "l".."m"`, // a read transaction's, which records no conflict
		`read "n"`,
		`write "n"`,
		`commit "" false`,
		`write "o"`,
		`commit "" true`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tap saw\n %q\nwant\n %q", got, want)
	}

	got = nil
	db.SetTap(nil)
	tr = db.CreateTransaction()
	tr.Get([]byte("a"))
	tr.Commit()
	if got != nil {
		t.Errorf("a removed tap saw %q", got)
	}
}
