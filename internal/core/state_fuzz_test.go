package core

import (
	"encoding/json"
	"errors"
	"testing"

	"recordlayer/internal/fdb"
	"recordlayer/internal/metadata"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// openOverState writes header as a store's header and the pair
// (stateSub ∥ keyRest, value) into its state subspace, then opens the store.
// written is false when the simulator refuses the pair (size limits).
func openOverState(t *testing.T, md *metadata.MetaData, header, keyRest, value []byte) (written bool, err error) {
	t.Helper()
	db := fdb.Open(nil)
	sp := subspace.FromTuple(tuple.Tuple{"tenant", int64(1)})
	_, werr := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		if err := tr.Set(sp.Pack(tuple.Tuple{headerSub}), header); err != nil {
			return nil, err
		}
		return nil, tr.Set(append(sp.Pack(tuple.Tuple{stateSub}), keyRest...), value)
	})
	if werr != nil {
		return false, nil
	}
	_, err = db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		return Open(tr, md, sp, OpenOptions{})
	})
	return true, err
}

// validHeader is the header of a store last opened with md.
func validHeader(t testing.TB, md *metadata.MetaData) []byte {
	b, err := json.Marshal(Header{MetaDataVersion: md.Version, FormatVersion: FormatVersion})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCorruptIndexStateFailsOpen: an index-state pair that is not (stateSub,
// name) = (state) fails Open with ErrCorruptStoreState, where it once panicked
// on a type assertion or an index out of range.
func TestCorruptIndexStateFailsOpen(t *testing.T) {
	md := testSchema(t)
	header := validHeader(t, md)
	for _, c := range []struct {
		name       string
		key, value tuple.Tuple
	}{
		{"key names no index", tuple.Tuple{int64(5)}, tuple.Tuple{int64(metadata.StateWriteOnly)}},
		{"empty value", tuple.Tuple{"by_name"}, tuple.Tuple{}},
		{"value is no state", tuple.Tuple{"by_name"}, tuple.Tuple{"x"}},
		{"key too long", tuple.Tuple{"by_name", int64(1)}, tuple.Tuple{int64(metadata.StateWriteOnly)}},
	} {
		_, err := openOverState(t, md, header, c.key.Pack(), c.value.Pack())
		if !errors.Is(err, ErrCorruptStoreState) {
			t.Errorf("%s: Open returned %v; want ErrCorruptStoreState", c.name, err)
		}
	}
	if _, err := openOverState(t, md, []byte("{"), tuple.Tuple{"by_name"}.Pack(),
		tuple.Tuple{int64(metadata.StateWriteOnly)}.Pack()); !errors.Is(err, ErrCorruptStoreState) {
		t.Errorf("corrupt header: Open returned %v; want ErrCorruptStoreState", err)
	}
}

// FuzzStoreState opens a store over arbitrary header bytes and one arbitrary
// pair in its state subspace. Open must return a store or an error, never
// panic; and the only errors it may return are ErrCorruptStoreState and, for
// a header that decodes, the ones that header's versions call for. `go test`
// runs the committed corpus under testdata/fuzz, which holds the three shapes
// that once panicked; CI fuzzes for 30 s more.
func FuzzStoreState(f *testing.F) {
	md := testSchema(f)
	header := validHeader(f, md)
	f.Add(header, tuple.Tuple{"by_name"}.Pack(), tuple.Tuple{int64(metadata.StateDisabled)}.Pack())
	f.Add([]byte(`{"metadata_version":0,"format_version":1}`), tuple.Tuple{"nope"}.Pack(), tuple.Tuple{int64(9)}.Pack())
	f.Fuzz(func(t *testing.T, header, keyRest, value []byte) {
		ok, err := openOverState(t, md, header, keyRest, value)
		if !ok || err == nil || errors.Is(err, ErrCorruptStoreState) {
			return
		}
		var h Header
		var stale *ErrStaleMetaData
		if json.Unmarshal(header, &h) == nil &&
			(h.FormatVersion > FormatVersion || errors.As(err, &stale) && h.MetaDataVersion > md.Version) {
			return
		}
		t.Fatalf("header %q, state pair %x = %x: Open returned %v", header, keyRest, value, err)
	})
}
