package core

import (
	"slices"
	"testing"

	"recordlayer/internal/fdb"
	"recordlayer/internal/history"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// TestTextSaveTouchesOnlyChangedTokens: a save leaves alone every TEXT
// posting whose token keeps its offsets (§6's unchanged-entry rule), as the
// database's tap sees the saving transaction: changing only the score reads
// and writes nothing in the TEXT index, and changing words touches exactly
// the tokens that moved, appeared or went.
func TestTextSaveTouchesOnlyChangedTokens(t *testing.T) {
	db := fdb.Open(nil)
	_, sp := historyStores(t, db)
	doc := history.Doc{ID: 1, Tag: "t", Slug: "s1", Score: 10, Body: "call me ishmael some years ago"}
	withHistoryStore(t, db, sp, func(s *Store) error { _, err := s.SaveRecord(doc.Message()); return err })
	for _, step := range []struct {
		score int64
		body  string
		want  []string // the tokens whose postings the save touches, sorted
	}{
		{20, "call me ishmael some years ago", nil},
		{20, "call me ahab some years ago", []string{"ahab", "ishmael"}},
		{20, "call me captain ahab some years ago", []string{"ago", "ahab", "captain", "some", "years"}},
		{30, "call me captain ahab some years ago", nil},
	} {
		doc.Score, doc.Body = step.score, step.body
		var text subspace.Subspace
		touched := map[string]bool{}
		var saver *fdb.Transaction
		db.SetTap(func(tr *fdb.Transaction, a fdb.Access) {
			if tr != saver || a.Kind == fdb.AccessCommit || !text.Contains(a.Begin) {
				return
			}
			rest := a.Begin[len(text.Bytes()):]
			n, err := tuple.ElementLen(rest)
			token, ok := "", err == nil
			if ok {
				var tt tuple.Tuple
				tt, err = tuple.Unpack(rest[:n])
				token, ok = tt[0].(string)
			}
			if !ok {
				t.Errorf("%s of %s in the TEXT index names no token", a.Kind, history.DecodeKey(a.Begin))
			}
			touched[token] = true
		})
		_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
			s, err := Open(tr, history.Schema(1), sp, OpenOptions{})
			if err != nil {
				return nil, err
			}
			saver, text = tr, s.IndexSubspace(history.BodyText)
			_, err = s.SaveRecord(doc.Message())
			return nil, err
		})
		db.SetTap(nil)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for token := range touched {
			got = append(got, token)
		}
		slices.Sort(got)
		if !slices.Equal(got, step.want) {
			t.Errorf("saving score %d, body %q touched tokens %q, want %q", step.score, step.body, got, step.want)
		}
	}
}
