// Package tuple implements the FoundationDB tuple layer: an
// order-preserving encoding of typed tuples into byte strings.
//
// The encoding guarantees that the lexicographic (bytewise) order of two
// packed tuples equals the natural order of the tuples themselves: elements
// compare first by type rank, then by value. This property is what makes
// tuples the standard way to model structured keys on an ordered key-value
// store (§2 of the Record Layer paper).
//
// Supported element types: nil, []byte, string, int64 (and the other Go
// integer types), float32, float64, bool, UUID, Versionstamp, and nested
// Tuple values.
package tuple

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
)

// Type codes, chosen to match the FoundationDB tuple specification so that
// the ordering guarantees carry over.
const (
	codeNull    = 0x00
	codeBytes   = 0x01
	codeString  = 0x02
	codeNested  = 0x05
	codeIntZero = 0x14 // 0x0c..0x13 negative by length, 0x15..0x1c positive
	codeFloat   = 0x20
	codeDouble  = 0x21
	codeFalse   = 0x26
	codeTrue    = 0x27
	codeUUID    = 0x30
	codeVStamp  = 0x33
)

// A Tuple is an ordered list of typed elements.
type Tuple []interface{}

// UUID is a 16-byte universally unique identifier element.
type UUID [16]byte

// Versionstamp is a 12-byte value: a 10-byte transaction version assigned by
// the database at commit time followed by a 2-byte user version assigned by
// the client within the transaction (§7, VERSION indexes).
type Versionstamp struct {
	TransactionVersion [10]byte
	UserVersion        uint16
}

// IncompleteVersionstamp returns a versionstamp whose transaction version is
// not yet known; Pack of a tuple containing one fails, while
// PackWithVersionstamp records its offset for commit-time substitution.
func IncompleteVersionstamp(userVersion uint16) Versionstamp {
	var v Versionstamp
	for i := range v.TransactionVersion {
		v.TransactionVersion[i] = 0xFF
	}
	v.UserVersion = userVersion
	return v
}

// Complete reports whether the transaction version has been assigned.
func (v Versionstamp) Complete() bool {
	for _, b := range v.TransactionVersion {
		if b != 0xFF {
			return true
		}
	}
	return false
}

// Bytes returns the 12-byte serialized form.
func (v Versionstamp) Bytes() []byte {
	out := make([]byte, 12)
	copy(out, v.TransactionVersion[:])
	binary.BigEndian.PutUint16(out[10:], v.UserVersion)
	return out
}

// VersionstampFromBytes parses a 12-byte serialized versionstamp.
func VersionstampFromBytes(b []byte) (Versionstamp, error) {
	var v Versionstamp
	if len(b) != 12 {
		return v, fmt.Errorf("tuple: versionstamp must be 12 bytes, got %d", len(b))
	}
	copy(v.TransactionVersion[:], b[:10])
	v.UserVersion = binary.BigEndian.Uint16(b[10:])
	return v, nil
}

func (v Versionstamp) String() string {
	return fmt.Sprintf("Versionstamp(%x, %d)", v.TransactionVersion, v.UserVersion)
}

var errIncomplete = errors.New("tuple: cannot pack incomplete versionstamp without PackWithVersionstamp")

// Pack encodes the tuple into a key. It panics if the tuple contains an
// element of unsupported type (a programming error) and returns an error-free
// encoding otherwise. Incomplete versionstamps are rejected.
func (t Tuple) Pack() []byte {
	b, err := t.packInto(make([]byte, 0, t.PackedCap()), nil)
	if err != nil {
		panic(err)
	}
	return b
}

// PackInto encodes the tuple appending to buf, growing it as needed, and
// returns the extended slice. Panics on unsupported element types, like Pack.
// A caller that owns a buffer, a stack array or one sized with PackedCap,
// packs into it without a second allocation.
func (t Tuple) PackInto(buf []byte) []byte {
	b, err := t.packInto(buf, nil)
	if err != nil {
		panic(err)
	}
	return b
}

// PackedCap returns an upper bound on the packed encoding size, so Pack, and
// callers that PackInto a buffer of their own, can allocate it once instead of
// growing it through repeated appends: packing sits on every key construction
// in the layer.
func (t Tuple) PackedCap() int {
	n := 0
	for _, e := range t {
		switch v := e.(type) {
		case nil:
			n += 2 // nested nulls escape to two bytes
		case []byte:
			n += 2 + len(v) + bytes.Count(v, zeroByte)
		case string:
			n += 2 + len(v) + strings.Count(v, "\x00")
		case Tuple:
			n += 2 + v.PackedCap()
		case float32:
			n += 5
		case float64:
			n += 9
		case bool:
			n++
		case UUID:
			n += 17
		case Versionstamp:
			n += 13
		default:
			n += 9 // integer types: code byte + at most 8 value bytes
		}
	}
	return n
}

var zeroByte = []byte{0x00}

// PackWithVersionstamp encodes a tuple containing exactly one incomplete
// Versionstamp and appends the little-endian 4-byte offset of its 10-byte
// transaction-version placeholder, matching the convention expected by the
// SetVersionstampedKey atomic operation.
func (t Tuple) PackWithVersionstamp(prefix []byte) ([]byte, error) {
	offset := -1
	buf := make([]byte, 0, len(prefix)+t.PackedCap()+4)
	b, err := t.packInto(append(buf, prefix...), &offset)
	if err != nil {
		return nil, err
	}
	if offset < 0 {
		return nil, errors.New("tuple: no incomplete versionstamp in tuple")
	}
	var off [4]byte
	binary.LittleEndian.PutUint32(off[:], uint32(offset))
	return append(b, off[:]...), nil
}

// HasIncompleteVersionstamp reports whether any element (recursively) is an
// incomplete versionstamp.
func (t Tuple) HasIncompleteVersionstamp() bool {
	for _, e := range t {
		switch v := e.(type) {
		case Versionstamp:
			if !v.Complete() {
				return true
			}
		case Tuple:
			if v.HasIncompleteVersionstamp() {
				return true
			}
		}
	}
	return false
}

func (t Tuple) packInto(b []byte, vsOffset *int) ([]byte, error) {
	for _, e := range t {
		var err error
		b, err = encodeElement(b, e, vsOffset, false)
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

func encodeElement(b []byte, e interface{}, vsOffset *int, nested bool) ([]byte, error) {
	switch v := e.(type) {
	case nil:
		if nested {
			return append(b, codeNull, 0xFF), nil
		}
		return append(b, codeNull), nil
	case []byte:
		return encodeBytes(b, codeBytes, v), nil
	case string:
		return encodeBytes(b, codeString, []byte(v)), nil
	case Tuple:
		b = append(b, codeNested)
		for _, sub := range v {
			var err error
			b, err = encodeElement(b, sub, vsOffset, true)
			if err != nil {
				return nil, err
			}
		}
		return append(b, 0x00), nil
	case int:
		return encodeInt(b, int64(v)), nil
	case int8:
		return encodeInt(b, int64(v)), nil
	case int16:
		return encodeInt(b, int64(v)), nil
	case int32:
		return encodeInt(b, int64(v)), nil
	case int64:
		return encodeInt(b, v), nil
	case uint:
		return encodeUint(b, uint64(v))
	case uint8:
		return encodeInt(b, int64(v)), nil
	case uint16:
		return encodeInt(b, int64(v)), nil
	case uint32:
		return encodeInt(b, int64(v)), nil
	case uint64:
		return encodeUint(b, v)
	case float32:
		b = append(b, codeFloat)
		var buf [4]byte
		binary.BigEndian.PutUint32(buf[:], floatAdjust(math.Float32bits(v)))
		return append(b, buf[:]...), nil
	case float64:
		b = append(b, codeDouble)
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], doubleAdjust(math.Float64bits(v)))
		return append(b, buf[:]...), nil
	case bool:
		if v {
			return append(b, codeTrue), nil
		}
		return append(b, codeFalse), nil
	case UUID:
		b = append(b, codeUUID)
		return append(b, v[:]...), nil
	case Versionstamp:
		b = append(b, codeVStamp)
		if !v.Complete() {
			if vsOffset == nil {
				return nil, errIncomplete
			}
			if *vsOffset >= 0 {
				return nil, errors.New("tuple: multiple incomplete versionstamps")
			}
			*vsOffset = len(b)
		}
		return append(b, v.Bytes()...), nil
	default:
		return nil, fmt.Errorf("tuple: unsupported element type %T", e)
	}
}

func encodeBytes(b []byte, code byte, v []byte) []byte {
	b = append(b, code)
	for _, c := range v {
		if c == 0x00 {
			b = append(b, 0x00, 0xFF)
		} else {
			b = append(b, c)
		}
	}
	return append(b, 0x00)
}

func encodeInt(b []byte, v int64) []byte {
	if v == 0 {
		return append(b, codeIntZero)
	}
	if v > 0 {
		n := byteLen(uint64(v))
		b = append(b, byte(codeIntZero+n))
		for i := n - 1; i >= 0; i-- {
			b = append(b, byte(uint64(v)>>(8*uint(i))))
		}
		return b
	}
	// Negative: encode (2^(8n)-1) + v so larger (closer to zero) values sort
	// later, with shorter encodings for values closer to zero.
	m := uint64(-v)
	n := byteLen(m)
	adj := maxUintN(n) - m
	b = append(b, byte(codeIntZero-n))
	for i := n - 1; i >= 0; i-- {
		b = append(b, byte(adj>>(8*uint(i))))
	}
	return b
}

func encodeUint(b []byte, v uint64) ([]byte, error) {
	if v > math.MaxInt64 {
		// Full 8-byte positive integer, code 0x1c.
		b = append(b, codeIntZero+8)
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], v)
		return append(b, buf[:]...), nil
	}
	return encodeInt(b, int64(v)), nil
}

func byteLen(v uint64) int {
	n := 0
	for v > 0 {
		n++
		v >>= 8
	}
	return n
}

func maxUintN(n int) uint64 {
	if n >= 8 {
		return math.MaxUint64
	}
	return (uint64(1) << (8 * uint(n))) - 1
}

// floatAdjust transforms IEEE bits so bytewise comparison matches numeric
// order: negative numbers flip all bits, non-negative flip the sign bit.
func floatAdjust(u uint32) uint32 {
	if u&0x80000000 != 0 {
		return ^u
	}
	return u | 0x80000000
}

func floatUnadjust(u uint32) uint32 {
	if u&0x80000000 != 0 {
		return u &^ 0x80000000
	}
	return ^u
}

func doubleAdjust(u uint64) uint64 {
	if u&0x8000000000000000 != 0 {
		return ^u
	}
	return u | 0x8000000000000000
}

func doubleUnadjust(u uint64) uint64 {
	if u&0x8000000000000000 != 0 {
		return u &^ 0x8000000000000000
	}
	return ^u
}

// Count returns how many elements a packed tuple holds, walking ElementLen
// without decoding one; where ElementLen fails it stops, with that error.
func Count(b []byte) (n int, err error) {
	for l := 0; len(b) > 0; n++ {
		if l, err = ElementLen(b); err != nil {
			return n, err
		}
		b = b[l:]
	}
	return n, nil
}

// Unpack decodes a packed key back into a tuple. It counts the elements first,
// so the tuple is allocated once at its size; where the count stops, decoding
// reports the error.
func Unpack(b []byte) (Tuple, error) {
	n, _ := Count(b)
	var t Tuple
	if n > 0 {
		t = make(Tuple, 0, n)
	}
	for len(b) > 0 {
		e, rest, err := decodeElement(b, false)
		if err != nil {
			return nil, err
		}
		t = append(t, e)
		b = rest
	}
	return t, nil
}

func decodeElement(b []byte, nested bool) (interface{}, []byte, error) {
	if len(b) == 0 {
		return nil, nil, errors.New("tuple: truncated encoding")
	}
	code := b[0]
	if len(b) < int(fixedLen[code]) {
		return nil, nil, errors.New("tuple: truncated element")
	}
	switch {
	case code == codeNull:
		if nested {
			if len(b) < 2 || b[1] != 0xFF {
				return nil, nil, errors.New("tuple: malformed nested null")
			}
			return nil, b[2:], nil
		}
		return nil, b[1:], nil
	case code == codeBytes:
		v, rest, err := decodeBytes(b[1:])
		return v, rest, err
	case code == codeString:
		if v, n, ok := viewAt(b, codeString); ok {
			return string(v), b[n:], nil // one copy, not two
		}
		v, rest, err := decodeBytes(b[1:])
		if err != nil {
			return nil, nil, err
		}
		return string(v), rest, nil
	case code == codeNested:
		b = b[1:]
		var sub Tuple
		for {
			if len(b) == 0 {
				return nil, nil, errors.New("tuple: unterminated nested tuple")
			}
			if b[0] == 0x00 {
				if len(b) >= 2 && b[1] == 0xFF {
					// Escaped null inside nested tuple.
					sub = append(sub, nil)
					b = b[2:]
					continue
				}
				return sub, b[1:], nil
			}
			e, rest, err := decodeElement(b, true)
			if err != nil {
				return nil, nil, err
			}
			sub = append(sub, e)
			b = rest
		}
	case code >= 0x0C && code <= 0x1C:
		v, rest := decodeInt(b)
		return v, rest, nil
	case code == codeFloat:
		u := floatUnadjust(binary.BigEndian.Uint32(b[1:5]))
		return math.Float32frombits(u), b[5:], nil
	case code == codeDouble:
		u := doubleUnadjust(binary.BigEndian.Uint64(b[1:9]))
		return math.Float64frombits(u), b[9:], nil
	case code == codeFalse:
		return false, b[1:], nil
	case code == codeTrue:
		return true, b[1:], nil
	case code == codeUUID:
		var u UUID
		copy(u[:], b[1:17])
		return u, b[17:], nil
	case code == codeVStamp:
		v, _ := VersionstampFromBytes(b[1:13]) // fails only on a length other than 12
		return v, b[13:], nil
	default:
		return nil, nil, fmt.Errorf("tuple: unknown type code 0x%02x", code)
	}
}

// fixedLen is the encoded length of a fixed-size element by its type code —
// an integer is its code plus as many bytes as the code's distance from
// codeIntZero — and 0 for a variable-length or unknown code.
var fixedLen = [256]uint8{
	codeNull: 1, 0x0C: 9, 8, 7, 6, 5, 4, 3, 2, codeIntZero: 1, 2, 3, 4, 5, 6, 7, 8, 9,
	codeFloat: 5, codeDouble: 9, codeFalse: 1, codeTrue: 1, codeUUID: 17, codeVStamp: 13,
}

// ElementLen returns the length of the first element encoded in b without
// decoding it or allocating: a byte or string element runs to its unescaped
// terminator, a nested tuple to the end of its last element. It fails exactly
// where Unpack would fail on that element.
func ElementLen(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, errors.New("tuple: truncated encoding")
	}
	code, n := b[0], 1
	if code != codeBytes && code != codeString && code != codeNested {
		if n = int(fixedLen[code]); n == 0 {
			return 0, fmt.Errorf("tuple: unknown type code 0x%02x", code)
		}
		if len(b) < n {
			return 0, errors.New("tuple: truncated element")
		}
		return n, nil
	}
	for n < len(b) {
		switch {
		case b[n] == 0x00 && n+1 < len(b) && b[n+1] == 0xFF:
			n += 2 // an escaped zero byte, or a null in a nested tuple
		case b[n] == 0x00:
			return n + 1, nil
		case code != codeNested:
			n++
		default:
			m, err := ElementLen(b[n:])
			if err != nil {
				return 0, err
			}
			n += m
		}
	}
	return 0, errors.New("tuple: unterminated element")
}

// decodeBytes decodes the content of a byte or string element, b starting
// after its type code, into a slice allocated at its exact size (nil when
// empty), and returns the bytes after the terminator.
func decodeBytes(b []byte) ([]byte, []byte, error) {
	escapes := 0
	for i := 0; ; i += 2 {
		z := bytes.IndexByte(b[i:], 0x00)
		if z < 0 {
			return nil, nil, errors.New("tuple: unterminated byte string")
		}
		if i += z; i+1 < len(b) && b[i+1] == 0xFF {
			escapes++
			continue
		}
		if i == 0 {
			return nil, b[1:], nil
		}
		out := make([]byte, i-escapes)
		if escapes == 0 {
			copy(out, b)
		} else {
			for j, k := 0, 0; j < i; j, k = j+1, k+1 {
				out[k] = b[j]
				if b[j] == 0x00 {
					j++ // the 0xFF of an escape
				}
			}
		}
		return out, b[i+1:], nil
	}
}

// viewAt returns the content of the element of type code at the start of b
// in place, and the element's length; ok is false unless b begins with a
// well-formed element of that type whose content holds no zero byte, since an
// escaped zero byte makes the content differ from its encoding.
func viewAt(b []byte, code byte) (v []byte, n int, ok bool) {
	if len(b) == 0 || b[0] != code {
		return nil, 0, false
	}
	z := bytes.IndexByte(b[1:], 0x00)
	if z < 0 || (z+2 < len(b) && b[z+2] == 0xFF) {
		return nil, 0, false
	}
	return b[1 : 1+z : 1+z], z + 2, true
}

// BytesAt reads the byte-string element at the start of b without copying it:
// v aliases b, with its capacity clipped to its length, and n is the
// element's encoded length. ok is false when b does not begin with a
// well-formed byte string, or when the string holds a zero byte; Unpack then
// has to decode it.
func BytesAt(b []byte) (v []byte, n int, ok bool) { return viewAt(b, codeBytes) }

// StringAt is BytesAt for a string element. Converting v to a string copies
// it, unless the conversion is a map index the compiler can see.
func StringAt(b []byte) (v []byte, n int, ok bool) { return viewAt(b, codeString) }

// Int64At decodes the integer element at the start of b without boxing it,
// and returns its encoded length. ok is false unless Unpack would decode that
// element to an int64: b is empty or truncated, holds another type, or holds
// an integer above math.MaxInt64.
func Int64At(b []byte) (v int64, n int, ok bool) {
	if len(b) == 0 || b[0] < 0x0C || b[0] > 0x1C || len(b) < int(fixedLen[b[0]]) {
		return 0, 0, false
	}
	v, big := decodeInt64(b)
	return v, int(fixedLen[b[0]]), !big
}

// decodeInt decodes an integer element b holds in full.
func decodeInt(b []byte) (interface{}, []byte) {
	v, big := decodeInt64(b)
	rest := b[fixedLen[b[0]]:]
	if big {
		return uint64(v), rest // preserve large uint64
	}
	return v, rest
}

// decodeInt64 decodes an integer element b holds in full without boxing it;
// big reports a uint64 above math.MaxInt64, whose bits v then holds.
func decodeInt64(b []byte) (v int64, big bool) {
	code := int(b[0])
	n := code - codeIntZero
	neg := false
	if n < 0 {
		n = -n
		neg = true
	}
	var u uint64
	for i := 0; i < n; i++ {
		u = u<<8 | uint64(b[1+i])
	}
	if neg {
		return -int64(maxUintN(n) - u), false
	}
	return int64(u), n == 8 && u > math.MaxInt64
}

// Range returns begin and end keys such that every key starting with the
// packed tuple plus at least one more element falls in [begin, end).
func (t Tuple) Range() (begin, end []byte) {
	p := t.Pack()
	begin = append(append([]byte(nil), p...), 0x00)
	end = append(append([]byte(nil), p...), 0xFF)
	return begin, end
}

// Strinc returns the first key that does not have the given prefix: the
// prefix with its last non-0xFF byte incremented and the tail dropped.
func Strinc(prefix []byte) ([]byte, error) {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xFF {
			out := make([]byte, i+1)
			copy(out, prefix[:i+1])
			out[i]++
			return out, nil
		}
	}
	return nil, errors.New("tuple: key is all 0xFF bytes; no strinc exists")
}

// Compare orders two tuples by comparing their packed encodings, which by
// construction equals element-wise typed comparison.
func Compare(a, b Tuple) int {
	return bytes.Compare(a.Pack(), b.Pack())
}

// Equal reports whether two tuples have identical packed encodings.
func Equal(a, b Tuple) bool { return Compare(a, b) == 0 }

// String renders the tuple for debugging.
func (t Tuple) String() string {
	var buf bytes.Buffer
	buf.WriteByte('(')
	for i, e := range t {
		if i > 0 {
			buf.WriteString(", ")
		}
		switch v := e.(type) {
		case []byte:
			fmt.Fprintf(&buf, "%q", v)
		case string:
			fmt.Fprintf(&buf, "%q", v)
		case Tuple:
			buf.WriteString(v.String())
		default:
			fmt.Fprintf(&buf, "%v", e)
		}
	}
	buf.WriteByte(')')
	return buf.String()
}

// Append returns a new tuple with the given elements appended; the receiver
// is not modified even if it has spare capacity.
func (t Tuple) Append(elems ...interface{}) Tuple {
	out := make(Tuple, 0, len(t)+len(elems))
	out = append(out, t...)
	return append(out, elems...)
}
