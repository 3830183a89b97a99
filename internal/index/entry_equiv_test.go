package index

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"recordlayer/internal/fdb"
	"recordlayer/internal/metadata"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// refEntry is an index entry decoded whole: the three tuples DecodeEntry
// returned before entries viewed their scanned key.
type refEntry struct {
	Key, PrimaryKey, Value tuple.Tuple
}

// refDecodeEntry is ValueMaintainer.DecodeEntry as it was before entries viewed
// their scanned key: the key is unpacked whole and cut at keyColumns, and the
// covering value unpacked when present. With value false it is the VERSION
// index's decode, which ignores the value.
func refDecodeEntry(space subspace.Subspace, kv fdb.KeyValue, keyColumns int, value bool) (refEntry, error) {
	t, err := space.Unpack(kv.Key)
	if err != nil {
		return refEntry{}, err
	}
	if len(t) < keyColumns {
		return refEntry{}, fmt.Errorf("entry key has %d columns, expected >= %d", len(t), keyColumns)
	}
	e := refEntry{Key: t[:keyColumns], PrimaryKey: t[keyColumns:]}
	if value && len(kv.Value) > 0 {
		v, err := tuple.Unpack(kv.Value)
		if err != nil {
			return refEntry{}, err
		}
		e.Value = v
	}
	return e, nil
}

// decoded is what a caller can read of an Entry, for comparison with the
// reference.
func decoded(e Entry) refEntry {
	_, value := e.PackedColumns()
	return refEntry{e.Key(), e.PrimaryKey(), unpackChecked(value)}
}

// sameTuple compares decoded tuples element by element, floats by their bits so
// that NaN equals itself; an empty tuple equals a nil one, since no caller can
// tell them apart by their elements.
func sameTuple(a, b tuple.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		switch x := a[i].(type) {
		case float32:
			y, ok := b[i].(float32)
			if !ok || math.Float32bits(x) != math.Float32bits(y) {
				return false
			}
		case float64:
			y, ok := b[i].(float64)
			if !ok || math.Float64bits(x) != math.Float64bits(y) {
				return false
			}
		case tuple.Tuple:
			y, ok := b[i].(tuple.Tuple)
			if !ok || !sameTuple(x, y) {
				return false
			}
		default:
			if !reflect.DeepEqual(a[i], b[i]) {
				return false
			}
		}
	}
	return true
}

// sameEntry reports whether an Entry decodes to the reference's three tuples.
func sameEntry(e Entry, want refEntry) bool {
	got := decoded(e)
	return sameTuple(got.Key, want.Key) && sameTuple(got.PrimaryKey, want.PrimaryKey) && sameTuple(got.Value, want.Value)
}

// randEntryElem draws one tuple element from the encodings that stress an entry
// splitter: integers of every width and sign, uint64 above MaxInt64, byte and
// string elements holding escaped zero bytes, nested tuples holding nil,
// versionstamps, and the other fixed-width types.
func randEntryElem(r *rand.Rand, depth int) interface{} {
	switch r.Intn(11) {
	case 0, 1:
		edges := []int64{0, 1, -1, 255, -255, 256, -256, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
		if r.Intn(3) == 0 {
			return edges[r.Intn(len(edges))]
		}
		width := uint(r.Intn(8) + 1)
		v := int64(r.Uint64() >> (64 - 8*width) >> 1)
		if r.Intn(2) == 0 {
			v = -v
		}
		return v
	case 2:
		return uint64(1)<<63 | r.Uint64()
	case 3:
		return string(randZeroBytes(r))
	case 4:
		return randZeroBytes(r)
	case 5:
		if depth > 1 {
			return nil
		}
		t := tuple.Tuple{nil}
		for i := r.Intn(3); i > 0; i-- {
			t = append(t, randEntryElem(r, depth+1))
		}
		r.Shuffle(len(t), func(i, j int) { t[i], t[j] = t[j], t[i] })
		return t
	case 6:
		var v tuple.Versionstamp
		r.Read(v.TransactionVersion[:])
		v.UserVersion = uint16(r.Intn(1 << 16))
		return v
	case 7:
		return r.NormFloat64()
	case 8:
		return r.Intn(2) == 0
	case 9:
		return nil
	default:
		var u tuple.UUID
		r.Read(u[:])
		return u
	}
}

func randZeroBytes(r *rand.Rand) []byte {
	alphabet := []byte{0x00, 0x00, 0x01, 'a', 'z', 0xFE, 0xFF}
	b := make([]byte, r.Intn(6))
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return b
}

func randEntryTuple(r *rand.Rand, n int) tuple.Tuple {
	t := make(tuple.Tuple, n)
	for i := range t {
		t[i] = randEntryElem(r, 0)
	}
	return t
}

// randEntryPair builds one physical pair under space for an index with
// keyColumns key columns: usually a well-formed entry with a covering value or
// none, sometimes one with too few columns, a truncated or extended key, a key
// outside the subspace, or a covering value that does not unpack.
func randEntryPair(r *rand.Rand, space subspace.Subspace, keyColumns int) fdb.KeyValue {
	cols := keyColumns
	if r.Intn(6) == 0 {
		cols = r.Intn(keyColumns + 2) // too few columns, or one too many
	}
	key := space.Pack(randEntryTuple(r, cols).Append(randEntryTuple(r, r.Intn(4))...))
	switch r.Intn(12) {
	case 0: // truncated mid-element
		key = key[:len(space.Bytes())+r.Intn(len(key)-len(space.Bytes())+1)]
	case 1: // a trailing byte: an unknown code, or an element cut short
		key = append(key, []byte{0x7F, 0x02, 0x05, 0x15, 0x33}[r.Intn(5)])
	case 2: // outside the subspace
		key = append([]byte{0x02, 'j', 0x00}, key[len(space.Bytes()):]...)
	}
	var value []byte
	switch r.Intn(4) {
	case 0:
		value = randEntryTuple(r, 1+r.Intn(3)).Pack()
	case 1:
		value = randEntryTuple(r, 1+r.Intn(3)).Pack()
		value = value[:r.Intn(len(value)+1)]
		if r.Intn(2) == 0 {
			value = append(value, 0x7F)
		}
	}
	return fdb.KeyValue{Key: key, Value: value}
}

// TestPackedEntryMatchesDecode holds the entry decoders of VALUE and VERSION
// indexes to the unpack-everything reference over seeded pairs whose keys and
// values use every encoding a tuple can hold, with zero to three key columns:
// both fail, or both decode to the same key, primary key and covering value,
// and the packed primary key is the reference's primary key packed.
func TestPackedEntryMatchesDecode(t *testing.T) {
	space := subspace.FromTuple(tuple.Tuple{"ix", int64(7)})
	covered := map[string]int{}
	for seed := int64(1); seed <= 3000; seed++ {
		r := rand.New(rand.NewSource(seed))
		kc := r.Intn(4)
		ix := &metadata.Index{Name: "t"}
		vm := &ValueMaintainer{ix: ix, keyColumns: kc}
		ver := &VersionMaintainer{ix: ix, columns: kc}
		kv := randEntryPair(r, space, kc)
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
			what := fmt.Sprintf("seed %d: %s entry %x = %x with %d key columns", seed, tc.name, kv.Key, kv.Value, kc)
			if (err == nil) != (werr == nil) {
				t.Fatalf("%s: error %v, reference error %v", what, err, werr)
			}
			if err != nil {
				covered["error"]++
				continue
			}
			covered["ok"]++
			if !sameEntry(e, want) {
				t.Fatalf("%s: decoded %v, reference %v", what, decoded(e), want)
			}
			if want.PrimaryKey.HasIncompleteVersionstamp() {
				continue
			}
			if pk := e.PackedPrimaryKey(); !bytes.Equal(pk, want.PrimaryKey.Pack()) {
				t.Fatalf("%s: packed primary key %x, reference %x", what, pk, want.PrimaryKey.Pack())
			}
		}
	}
	if covered["error"] < 500 || covered["ok"] < 2000 {
		t.Errorf("too few outcomes of a kind: %v", covered)
	}
}
