package cluster

import "bytes"

// MutationType enumerates atomic read-modify-write operations (§2). Atomic
// mutations do not add read conflicts, so concurrent mutations of the same
// key never conflict — the property aggregate indexes rely on (§7).
type MutationType int

const (
	// MutationAdd performs little-endian integer addition.
	MutationAdd MutationType = iota
	// MutationBitAnd, MutationBitOr, MutationBitXor are bitwise ops.
	MutationBitAnd
	MutationBitOr
	MutationBitXor
	// MutationMax / MutationMin compare as little-endian unsigned integers.
	MutationMax
	MutationMin
	// MutationByteMax / MutationByteMin compare lexicographically. Because
	// tuple encoding is order-preserving, these implement MAX_EVER/MIN_EVER
	// over tuple-encoded values.
	MutationByteMax
	MutationByteMin
	// MutationAppendIfFits appends if the result stays within the value limit.
	MutationAppendIfFits
	// MutationCompareAndClear clears the key iff its value equals the param.
	MutationCompareAndClear
	// MutationSetVersionstampedKey substitutes the 10-byte commit versionstamp
	// into the key at the offset given by the key's final 4 little-endian
	// bytes (which are stripped).
	MutationSetVersionstampedKey
	// MutationSetVersionstampedValue does the same substitution in the value.
	MutationSetVersionstampedValue
)

// Mutation is one atomic op the write buffer holds pending.
type Mutation struct {
	Type  MutationType
	Param []byte
}

// BufEntry is what commit still owes a buffered key that is more than a plain
// set. Most keys of the write buffer have none: their entry already holds the
// bytes commit will store.
type BufEntry struct {
	// Ops are pending atomic ops. Without a versionstamp they fold over the
	// committed base when the key is read or committed, and the entry's value
	// means nothing while there are any.
	Ops []Mutation
	// VsOff is where commit writes the versionstamp into the entry's value;
	// -1 when the value is not versionstamped. Mutations apply in the order
	// they were issued, so commit writes the stamp first and then folds ops
	// over the stamped value. An int32, so that Fetched keeps the entry in
	// its 32-byte size class.
	VsOff int32
	// Fetched is the client's, and the cluster ignores it: a snapshot read
	// has read the key's base and left the ops pending, so later reads fold
	// them over the same snapshot entry without counting it again, as a
	// read-your-writes cache serves them.
	Fetched bool
}

// VsKey is a versionstamped key: commit writes the stamp into a copy of RawKey
// at Offset and sets the result to Value.
type VsKey struct {
	RawKey []byte // placeholder key with offset suffix stripped
	Offset int
	Value  []byte
}

// ApplyMutations folds atomic operations over a base value. The second
// result reports that the key should be cleared (CompareAndClear matched).
func ApplyMutations(base []byte, ops []Mutation, maxValue int) ([]byte, bool) {
	val := bytes.Clone(base)
	cleared := base == nil
	for _, m := range ops {
		switch m.Type {
		case MutationAdd:
			val = addLittleEndian(val, m.Param)
		case MutationBitAnd:
			val = bitOp(val, m.Param, func(a, b byte) byte { return a & b })
		case MutationBitOr:
			val = bitOp(val, m.Param, func(a, b byte) byte { return a | b })
		case MutationBitXor:
			val = bitOp(val, m.Param, func(a, b byte) byte { return a ^ b })
		case MutationMax:
			if cleared || compareLittleEndian(m.Param, val) > 0 {
				val = bytes.Clone(m.Param)
			}
		case MutationMin:
			if cleared || compareLittleEndian(m.Param, val) < 0 {
				val = bytes.Clone(m.Param)
			}
		case MutationByteMax:
			if cleared || bytes.Compare(m.Param, val) > 0 {
				val = bytes.Clone(m.Param)
			}
		case MutationByteMin:
			if cleared || bytes.Compare(m.Param, val) < 0 {
				val = bytes.Clone(m.Param)
			}
		case MutationAppendIfFits:
			if len(val)+len(m.Param) <= maxValue {
				val = append(val, m.Param...)
			}
		case MutationCompareAndClear:
			if bytes.Equal(val, m.Param) {
				return nil, true
			}
		}
		cleared = false
	}
	return val, false
}

// addLittleEndian adds two little-endian unsigned integers; the result has
// the parameter's length (FDB semantics), with wraparound.
func addLittleEndian(base, param []byte) []byte {
	out := make([]byte, len(param))
	var carry uint16
	for i := 0; i < len(param); i++ {
		var b byte
		if i < len(base) {
			b = base[i]
		}
		s := uint16(b) + uint16(param[i]) + carry
		out[i] = byte(s)
		carry = s >> 8
	}
	return out
}

func bitOp(base, param []byte, f func(a, b byte) byte) []byte {
	out := make([]byte, len(param))
	for i := 0; i < len(param); i++ {
		var b byte
		if i < len(base) {
			b = base[i]
		}
		out[i] = f(b, param[i])
	}
	return out
}

// compareLittleEndian compares little-endian unsigned integers of possibly
// different lengths.
func compareLittleEndian(a, b []byte) int {
	la, lb := len(a), len(b)
	n := la
	if lb > n {
		n = lb
	}
	for i := n - 1; i >= 0; i-- {
		var av, bv byte
		if i < la {
			av = a[i]
		}
		if i < lb {
			bv = b[i]
		}
		if av != bv {
			if av < bv {
				return -1
			}
			return 1
		}
	}
	return 0
}
