package message

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// Protobuf wire types.
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

// maxDepth is how deep Unmarshal and Marshal let messages nest, protobuf-go's
// default recursion limit: a message with no nested message is one level deep.
const maxDepth = 10000

// errTooDeep reports a message nested more than maxDepth levels deep. It is
// returned as it is from every level, not wrapped once per level.
var errTooDeep = fmt.Errorf("message: nested more than %d levels deep", maxDepth)

func appendVarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendTag(b []byte, number int32, wt int) []byte {
	return appendVarint(b, uint64(number)<<3|uint64(wt))
}

// Marshal encodes the message in protobuf wire format. Known fields are
// emitted in field-number order, then unknown fields in their original order
// (preserving data written by newer schemata, §5).
func (m *Message) Marshal() ([]byte, error) {
	return m.appendTo(nil, 1)
}

// appendTo appends m, which is depth levels deep, to b. The slots are in
// field-number order, so walking them emits the fields in that order.
func (m *Message) appendTo(b []byte, depth int) ([]byte, error) {
	m.decode()
	if depth > maxDepth {
		return nil, errTooDeep
	}
	for i, v := range m.values {
		if v == nil {
			continue
		}
		f := m.desc.fields[i]
		if f.Repeated {
			for _, e := range v.([]interface{}) {
				var err error
				b, err = appendField(b, f, e, depth)
				if err != nil {
					return nil, err
				}
			}
			continue
		}
		var err error
		b, err = appendField(b, f, v, depth)
		if err != nil {
			return nil, err
		}
	}
	for _, u := range m.unknown {
		b = appendTag(b, u.number, u.wireType)
		if u.wireType == wireBytes {
			b = appendVarint(b, uint64(len(u.raw)))
		}
		b = append(b, u.raw...)
	}
	return b, nil
}

func appendField(b []byte, f *FieldDescriptor, v interface{}, depth int) ([]byte, error) {
	switch f.Type {
	case TypeInt64, TypeInt32, TypeEnum:
		return AppendVarintField(b, f.Number, uint64(v.(int64))), nil
	case TypeUint64:
		return AppendVarintField(b, f.Number, v.(uint64)), nil
	case TypeBool:
		if v.(bool) {
			return AppendVarintField(b, f.Number, 1), nil
		}
		return AppendVarintField(b, f.Number, 0), nil
	case TypeDouble:
		b = appendTag(b, f.Number, wireFixed64)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.(float64))), nil
	case TypeFloat:
		b = appendTag(b, f.Number, wireFixed32)
		return binary.LittleEndian.AppendUint32(b, math.Float32bits(v.(float32))), nil
	case TypeString:
		return AppendBytesField(b, f.Number, v.(string)), nil
	case TypeBytes:
		return AppendBytesField(b, f.Number, v.([]byte)), nil
	case TypeMessage:
		sub, err := v.(*Message).appendTo(nil, depth+1)
		if err != nil {
			return nil, err
		}
		return AppendBytesField(b, f.Number, sub), nil
	}
	return nil, fmt.Errorf("message: cannot encode field %s of type %v", f.Name, f.Type)
}

// AppendVarintField appends field number holding v, as Marshal encodes an
// int64, int32, enum (v is the int64's bits), uint64 or bool (0 or 1) field.
func AppendVarintField(b []byte, number int32, v uint64) []byte {
	return appendVarint(appendTag(b, number, wireVarint), v)
}

// AppendBytesField appends field number holding p, as Marshal encodes a
// string, bytes or nested message field.
func AppendBytesField[T string | []byte](b []byte, number int32, p T) []byte {
	return append(appendVarint(appendTag(b, number, wireBytes), uint64(len(p))), p...)
}

// Unmarshal checks protobuf wire data in full as a message of the given type,
// failing where decoding fails, and returns a message that holds the checked
// data. The fields are decoded on the message's first access, which cannot
// fail, and is safe for concurrent readers (see Message). A nested message is
// checked with its parent, and decoded on its own first access. Fields not
// present in the descriptor are preserved as unknown fields.
//
// The message keeps data: until it is decoded it views all of it, then its
// unknown fields and string fields do, so the caller must never modify data
// afterwards. Bytes fields are copies.
func Unmarshal(desc *Descriptor, data []byte) (*Message, error) {
	if err := walk(desc, nil, nil, data, 1); err != nil {
		return nil, err
	}
	return lazy(desc, data), nil
}

// Partial decodes messages of one type keeping only some of their top-level
// fields, into one message it reuses.
type Partial struct {
	m    *Message
	keep []bool // by slot
}

// NewPartial returns a Partial for messages of type desc that keeps the named
// fields; a name desc does not declare keeps nothing.
func NewPartial(desc *Descriptor, fields ...string) *Partial {
	p := &Partial{m: New(desc), keep: make([]bool, len(desc.fields))}
	for _, name := range fields {
		if i, ok := desc.byName[name]; ok {
			p.keep[i] = true
		}
	}
	return p
}

// Decode checks data exactly as Unmarshal does, failing where it fails with
// the same error, but decodes only the kept fields: the message it returns
// holds them as Unmarshal would, and no other field and no unknown field.
// Checking a field it does not keep allocates nothing, nested messages and
// packed runs included. The message is p's own until the next Decode, and it
// aliases data as Unmarshal's does.
func (p *Partial) Decode(data []byte) (*Message, error) {
	clear(p.m.values)
	if err := walk(p.m.desc, p.m, p.keep, data, 1); err != nil {
		return nil, err
	}
	return p.m, nil
}

// walk checks data, a message of type d that is depth levels deep, when m is
// nil, failing where decoding fails; checking allocates nothing. With m and
// keep set it checks data the same way and decodes into m the fields whose
// slot keep marks, dropping unknown fields. With m set and keep nil it decodes
// data, which a check has passed, into m, checking nothing again.
func walk(d *Descriptor, m *Message, keep []bool, data []byte, depth int) error {
	if depth > maxDepth {
		return errTooDeep
	}
	for len(data) > 0 {
		tag, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("message %s: bad tag varint", d.Name)
		}
		data = data[n:]
		number := int32(tag >> 3)
		wt := int(tag & 7)
		if number < 1 {
			return fmt.Errorf("message %s: invalid field number %d", d.Name, number)
		}

		payload, rest, err := consume(data, wt)
		if err != nil {
			return fmt.Errorf("message %s field %d: %v", d.Name, number, err)
		}
		data = rest

		i, known := d.slot(number)
		if !known || !wireTypeMatches(d.fields[i], wt) {
			if m != nil && keep == nil {
				m.unknown = append(m.unknown, unknownField{number: number, wireType: wt, raw: payload})
			}
			continue
		}
		into := m
		if keep != nil && !keep[i] {
			into = nil
		}
		f := d.fields[i]
		if f.Repeated && wt == wireBytes && isPackable(f.Type) {
			// Packed repeated scalars: a length-delimited run of encodings.
			if err := mergePacked(d, into, i, payload); err != nil {
				return err
			}
			continue
		}
		var v interface{}
		if into == nil || (keep != nil && f.Type == TypeMessage) {
			err = checkScalar(f, payload, depth) // decodeScalar leaves a message unchecked
		}
		if into != nil && err == nil {
			v, err = decodeScalar(f, payload)
		}
		if err == errTooDeep {
			return err
		}
		if err != nil {
			return fmt.Errorf("message %s field %s: %v", d.Name, f.Name, err)
		}
		switch {
		case into == nil:
		case f.Repeated:
			cur, _ := into.values[i].([]interface{})
			into.values[i] = append(cur, v)
		default:
			into.values[i] = v
		}
	}
	return nil
}

// consume splits one field payload off the front of data. For varint the
// payload is the varint's bytes; for fixed types the fixed width; for bytes
// the content after the length prefix.
func consume(data []byte, wt int) (payload, rest []byte, err error) {
	switch wt {
	case wireVarint:
		_, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, nil, fmt.Errorf("bad varint")
		}
		return data[:n], data[n:], nil
	case wireFixed64:
		if len(data) < 8 {
			return nil, nil, fmt.Errorf("truncated fixed64")
		}
		return data[:8], data[8:], nil
	case wireFixed32:
		if len(data) < 4 {
			return nil, nil, fmt.Errorf("truncated fixed32")
		}
		return data[:4], data[4:], nil
	case wireBytes:
		l, n := binary.Uvarint(data)
		if n <= 0 || uint64(len(data)-n) < l {
			return nil, nil, fmt.Errorf("truncated length-delimited field")
		}
		return data[n : n+int(l)], data[n+int(l):], nil
	default:
		return nil, nil, fmt.Errorf("unsupported wire type %d", wt)
	}
}

func wireTypeMatches(f *FieldDescriptor, wt int) bool {
	switch f.Type {
	case TypeInt64, TypeInt32, TypeUint64, TypeBool, TypeEnum:
		return wt == wireVarint || (f.Repeated && wt == wireBytes)
	case TypeDouble:
		return wt == wireFixed64 || (f.Repeated && wt == wireBytes)
	case TypeFloat:
		return wt == wireFixed32 || (f.Repeated && wt == wireBytes)
	case TypeString, TypeBytes, TypeMessage:
		return wt == wireBytes
	}
	return false
}

func isPackable(t FieldType) bool {
	switch t {
	case TypeInt64, TypeInt32, TypeUint64, TypeBool, TypeEnum, TypeDouble, TypeFloat:
		return true
	}
	return false
}

// mergePacked appends a packed run of encodings to the repeated field in slot
// i of m, a message of type d, or only checks the run when m is nil.
func mergePacked(d *Descriptor, m *Message, i int, payload []byte) error {
	f := d.fields[i]
	var cur []interface{}
	if m != nil {
		cur, _ = m.values[i].([]interface{})
	}
	for len(payload) > 0 {
		var wt int
		switch f.Type {
		case TypeDouble:
			wt = wireFixed64
		case TypeFloat:
			wt = wireFixed32
		default:
			wt = wireVarint
		}
		chunk, rest, err := consume(payload, wt)
		if err != nil {
			return fmt.Errorf("message %s field %s: packed: %v", d.Name, f.Name, err)
		}
		payload = rest
		if m == nil {
			if err := checkScalar(f, chunk, 0); err != nil {
				return err
			}
			continue
		}
		v, err := decodeScalar(f, chunk)
		if err != nil {
			return err
		}
		cur = append(cur, v)
	}
	if m != nil {
		m.values[i] = cur
	}
	return nil
}

// decodeScalar decodes one value of field f from its payload. A nested
// message it returns holds its payload undecoded and unchecked.
func decodeScalar(f *FieldDescriptor, payload []byte) (interface{}, error) {
	switch f.Type {
	case TypeInt64, TypeInt32, TypeEnum:
		u, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("bad varint")
		}
		return int64(u), nil
	case TypeUint64:
		u, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("bad varint")
		}
		return u, nil
	case TypeBool:
		u, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("bad varint")
		}
		return u != 0, nil
	case TypeDouble:
		return math.Float64frombits(binary.LittleEndian.Uint64(payload)), nil
	case TypeFloat:
		return math.Float32frombits(binary.LittleEndian.Uint32(payload)), nil
	case TypeString:
		if len(payload) == 0 {
			return "", nil
		}
		// A view of the wire bytes, not a copy: see Unmarshal.
		return unsafe.String(unsafe.SliceData(payload), len(payload)), nil
	case TypeBytes:
		return append([]byte(nil), payload...), nil
	case TypeMessage:
		if f.messageType == nil {
			return nil, fmt.Errorf("unresolved message type %s", f.MessageTypeName)
		}
		return lazy(f.messageType, payload), nil
	}
	return nil, fmt.Errorf("unsupported type %v", f.Type)
}

// checkScalar fails where decodeScalar fails, with the same error, without
// decoding the value or allocating.
func checkScalar(f *FieldDescriptor, payload []byte, depth int) error {
	switch f.Type {
	case TypeInt64, TypeInt32, TypeEnum, TypeUint64, TypeBool:
		if _, n := binary.Uvarint(payload); n <= 0 {
			return fmt.Errorf("bad varint")
		}
		return nil
	case TypeDouble, TypeFloat, TypeString, TypeBytes:
		return nil
	case TypeMessage:
		if f.messageType == nil {
			return fmt.Errorf("unresolved message type %s", f.MessageTypeName)
		}
		return walk(f.messageType, nil, nil, payload, depth+1)
	}
	return fmt.Errorf("unsupported type %v", f.Type)
}
