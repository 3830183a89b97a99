package cloudkit

import (
	"context"
	"fmt"
	"testing"

	"recordlayer/internal/core"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/metadata"
	"recordlayer/internal/subspace"
)

// TestParkedDeletesBeforeSyncAndMove: a delete's index maintenance is parked
// until the next store call or the commit. SyncZone in the same transaction
// settles it before it reads the sync index, and MoveUser, which reads only
// committed state in transactions of its own, copies an index with nothing a
// scrub flags: neither sees the delete half done.
func TestParkedDeletesBeforeSyncAndMove(t *testing.T) {
	src, svc, _ := newEnv(t)
	schema := notesSchema()
	schema.Indexes = append(schema.Indexes, &metadata.Index{Name: "note_text", Type: metadata.IndexText,
		Expression: keyexpr.Field("body"), RecordTypes: []string{"Note"}})
	ct, err := svc.DefineContainer(schema)
	if err != nil {
		t.Fatal(err)
	}
	bodies := []string{"milk eggs", "eggs bread", "bread milk jam", "jam"}
	for i, body := range bodies {
		withUser(t, src, svc, ct, 3, func(store *core.Store, tr *fdb.Transaction) error {
			_, err := svc.SaveRecord(store, "Note", Record{Zone: "z", Name: fmt.Sprintf("n%d", i),
				Fields: map[string]interface{}{"title": fmt.Sprintf("note %d", i), "body": body}})
			return err
		})
	}
	withUser(t, src, svc, ct, 3, func(store *core.Store, tr *fdb.Transaction) error {
		for _, name := range []string{"n1", "n2"} {
			if ok, err := svc.DeleteRecord(store, "Note", "z", name); err != nil || !ok {
				return fmt.Errorf("delete %s: %v, %v", name, ok, err)
			}
		}
		res, err := svc.SyncZone(store, "z", nil, 100)
		if err != nil {
			return err
		}
		var names []string
		for _, c := range res.Changes {
			names = append(names, c.RecordName)
		}
		if fmt.Sprint(names) != "[n0 n3]" {
			t.Errorf("sync after two parked deletes: %v", names)
		}
		postings, err := store.TextSearchToken("note_text", "bread")
		if err != nil || len(postings) != 0 {
			t.Errorf("postings of a deleted note's token after the deletes: %v, %v", postings, err)
		}
		return nil
	})
	dst := fdb.Open(nil)
	if err := svc.MoveUser(src, dst, ct, 3); err != nil {
		t.Fatal(err)
	}
	v, err := dst.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) { return svc.StoreSubspace(tr, ct, 3) })
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range ct.MetaData.Indexes() {
		scr := &core.Scrubber{DB: dst, MetaData: ct.MetaData, Space: v.(subspace.Subspace), IndexName: ix.Name, BatchSize: 4}
		rep, err := scr.Scrub(context.Background())
		if err != nil {
			t.Fatalf("scrub %s: %v", ix.Name, err)
		}
		if len(rep.Issues) > 0 {
			t.Errorf("scrub %s of the moved store: %v", ix.Name, rep.Issues)
		}
	}
}
