// Package subspace provides key subspaces: fixed byte prefixes under which
// tuples are packed. A record store's contiguous key range (§3, §4) is a
// subspace; each index lives in a dedicated subspace within it (§6).
package subspace

import (
	"bytes"
	"errors"

	"recordlayer/internal/tuple"
)

// Subspace scopes tuple-encoded keys under a raw byte prefix.
type Subspace struct {
	prefix []byte
}

// FromBytes creates a subspace with the given raw prefix.
func FromBytes(prefix []byte) Subspace {
	return Subspace{prefix: append([]byte(nil), prefix...)}
}

// FromTuple creates a subspace whose prefix is the packed tuple.
func FromTuple(t tuple.Tuple) Subspace {
	return Subspace{prefix: t.Pack()}
}

// Sub returns a child subspace extending this one with more tuple elements.
func (s Subspace) Sub(elems ...interface{}) Subspace {
	return Subspace{prefix: s.Pack(elems)}
}

// Bytes returns the raw prefix. The result must not be modified; its capacity
// is clipped to its length, so appending to it copies.
func (s Subspace) Bytes() []byte { return s.prefix[:len(s.prefix):len(s.prefix)] }

// Pack encodes a tuple under this subspace's prefix, into one allocation.
func (s Subspace) Pack(t tuple.Tuple) []byte {
	return t.PackInto(append(make([]byte, 0, len(s.prefix)+t.PackedCap()), s.prefix...))
}

// PackWithVersionstamp encodes a tuple containing one incomplete versionstamp
// under this prefix, with the trailing offset expected by versionstamped-key
// mutations.
func (s Subspace) PackWithVersionstamp(t tuple.Tuple) ([]byte, error) {
	return t.PackWithVersionstamp(s.prefix)
}

// Unpack decodes a key produced by Pack back into its tuple.
func (s Subspace) Unpack(key []byte) (tuple.Tuple, error) {
	if !s.Contains(key) {
		return nil, errors.New("subspace: key is outside subspace")
	}
	return tuple.Unpack(key[len(s.prefix):])
}

// Contains reports whether key begins with this subspace's prefix.
func (s Subspace) Contains(key []byte) bool {
	return bytes.HasPrefix(key, s.prefix)
}

// Range returns the key range [begin, end) covering every tuple packed under
// this subspace.
func (s Subspace) Range() (begin, end []byte) {
	begin = append(append([]byte(nil), s.prefix...), 0x00)
	end = append(append([]byte(nil), s.prefix...), 0xFF)
	return begin, end
}

// RangeForTuple returns the range covering all keys extending the given
// tuple within this subspace. Both keys are packed into one allocation.
func (s Subspace) RangeForTuple(t tuple.Tuple) (begin, end []byte) {
	n := len(s.prefix) + t.PackedCap() + 1
	begin = append(t.PackInto(append(make([]byte, 0, 2*n), s.prefix...)), 0x00)
	end = append(begin[len(begin):], begin...)
	end[len(end)-1] = 0xFF
	return begin[:len(begin):len(begin)], end
}

// AllRange returns the range covering every key with this prefix, including
// the bare prefix itself and non-tuple suffixes.
func (s Subspace) AllRange() (begin, end []byte) {
	begin = append([]byte(nil), s.prefix...)
	e, err := tuple.Strinc(s.prefix)
	if err != nil {
		// All-0xFF prefix: fall back to the maximal range.
		e = append(append([]byte(nil), s.prefix...), bytes.Repeat([]byte{0xFF}, 16)...)
	}
	return begin, e
}
