package index

import (
	"testing"

	"recordlayer/internal/fdb"
	"recordlayer/internal/metadata"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// FuzzIndexEntrySplit holds the entry decoders of VALUE and VERSION indexes,
// which walk an entry's element boundaries and decode its parts on demand, to
// unpacking the entry whole: on any key bytes under an index subspace and any
// value bytes, with zero to three key columns, they never panic, they fail
// exactly where the reference fails, and otherwise decode to the same key,
// primary key and covering value. `go test` runs the committed corpus under
// testdata/fuzz; CI fuzzes for 30 s more.
func FuzzIndexEntrySplit(f *testing.F) {
	space := subspace.FromTuple(tuple.Tuple{"ix", int64(7)})
	ix := &metadata.Index{Name: "t"}
	f.Fuzz(func(t *testing.T, key, value []byte, columns uint8) {
		kc := int(columns % 4)
		kv := fdb.KeyValue{Key: append(space.Bytes(), key...), Value: value}
		vm := &ValueMaintainer{ix: ix, keyColumns: kc}
		ver := &VersionMaintainer{ix: ix, columns: kc}
		for _, tc := range []struct {
			name   string
			decode func(subspace.Subspace, fdb.KeyValue) (Entry, error)
			value  bool
		}{
			{"value", vm.DecodeEntry, true},
			{"version", ver.DecodeEntry, false},
		} {
			e, err := tc.decode(space, kv)
			want, werr := refDecodeEntry(space, kv, kc, tc.value)
			if (err == nil) != (werr == nil) {
				t.Fatalf("%s entry %x = %x, %d key columns: error %v, reference error %v", tc.name, key, value, kc, err, werr)
			}
			if err == nil && !sameEntry(e, want) {
				t.Fatalf("%s entry %x = %x, %d key columns: decoded %v, reference %v", tc.name, key, value, kc, decoded(e), want)
			}
			if pk := e.PackedPrimaryKey(); cap(pk) != len(pk) {
				t.Fatalf("%s entry %x: the packed primary key exposes capacity past its end", tc.name, key)
			}
		}
	})
}
