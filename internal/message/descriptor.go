// Package message is a from-scratch dynamic Protocol Buffers implementation:
// message descriptors, dynamic messages, and the protobuf wire format.
//
// Records in the Record Layer are Protocol Buffer messages (§3, §4); the
// paper's schema-evolution guarantees — new fields appear uninitialized in
// old records, unknown fields survive read-modify-write cycles, field
// numbers are never reused — are properties of this wire format, which is
// why the substrate is implemented faithfully rather than approximated.
//
// The layer is stateless, so every read decodes every message it fetches, and
// the layout is chosen for that:
//
//   - Slots. A Message holds one slot per field its Descriptor declares, in
//     field-number order; a nil slot is an unset field. The descriptor maps
//     names and numbers to slot positions, and Marshal walks the slots in
//     order, which is field-number order, so it sorts nothing. The trade: a
//     message pays 16 bytes per declared field, set or not, so a sparse type
//     with many unset fields costs more than a map of the set ones would.
//   - String views. Unmarshal does not copy string fields: each one views the
//     bytes it was decoded from, as unknown fields always have. The caller
//     must not modify those bytes afterwards, and a decoded string keeps the
//     whole buffer alive. Bytes fields are still copied, because callers may
//     modify what Get returns.
//   - A depth bound. A type may nest itself, so untrusted bytes could nest as
//     deep as they are long and overflow the goroutine's stack, a fatal error
//     that no recover catches. Unmarshal and Marshal refuse messages nested
//     more than 10 000 levels deep (protobuf-go's default recursion limit),
//     so a writer cannot store what a reader would refuse, and a message that
//     contains itself fails to marshal instead of overflowing.
//   - Partial decoding. A reader that decides from a few fields whether it
//     needs a message at all (a scan's residual filter) decodes those with a
//     Partial. It checks every byte as Unmarshal does, so it fails where
//     Unmarshal fails, but allocates nothing for the fields it skips.
package message

import (
	"fmt"
	"sort"
)

// FieldType enumerates the supported protobuf field types.
type FieldType int

const (
	// TypeInt64 is a varint-encoded signed integer (protobuf int64).
	TypeInt64 FieldType = iota
	// TypeInt32 is a varint-encoded signed integer (protobuf int32).
	TypeInt32
	// TypeUint64 is a varint-encoded unsigned integer.
	TypeUint64
	// TypeBool is a varint-encoded boolean.
	TypeBool
	// TypeEnum is a varint-encoded enumeration value.
	TypeEnum
	// TypeDouble is a fixed64-encoded IEEE double.
	TypeDouble
	// TypeFloat is a fixed32-encoded IEEE float.
	TypeFloat
	// TypeString is a length-delimited UTF-8 string.
	TypeString
	// TypeBytes is a length-delimited byte string.
	TypeBytes
	// TypeMessage is a length-delimited nested message.
	TypeMessage
)

var typeNames = map[FieldType]string{
	TypeInt64: "int64", TypeInt32: "int32", TypeUint64: "uint64",
	TypeBool: "bool", TypeEnum: "enum", TypeDouble: "double",
	TypeFloat: "float", TypeString: "string", TypeBytes: "bytes",
	TypeMessage: "message",
}

func (t FieldType) String() string {
	if n, ok := typeNames[t]; ok {
		return n
	}
	return fmt.Sprintf("FieldType(%d)", int(t))
}

// FieldDescriptor describes one field of a message type.
type FieldDescriptor struct {
	Name     string
	Number   int32
	Type     FieldType
	Repeated bool
	// MessageTypeName names the nested message type (TypeMessage fields);
	// resolved against a Registry or set directly via WithMessage.
	MessageTypeName string

	messageType *Descriptor
}

// Field constructs a scalar optional field descriptor.
func Field(name string, number int32, typ FieldType) *FieldDescriptor {
	return &FieldDescriptor{Name: name, Number: number, Type: typ}
}

// RepeatedField constructs a repeated field descriptor.
func RepeatedField(name string, number int32, typ FieldType) *FieldDescriptor {
	return &FieldDescriptor{Name: name, Number: number, Type: typ, Repeated: true}
}

// MessageField constructs a nested-message field bound to sub.
func MessageField(name string, number int32, sub *Descriptor) *FieldDescriptor {
	return &FieldDescriptor{Name: name, Number: number, Type: TypeMessage,
		MessageTypeName: sub.Name, messageType: sub}
}

// RepeatedMessageField constructs a repeated nested-message field.
func RepeatedMessageField(name string, number int32, sub *Descriptor) *FieldDescriptor {
	f := MessageField(name, number, sub)
	f.Repeated = true
	return f
}

// MessageType returns the resolved nested message descriptor, or nil.
func (f *FieldDescriptor) MessageType() *Descriptor { return f.messageType }

// Descriptor describes a message type: an ordered set of fields.
type Descriptor struct {
	Name string
	// fields are in field-number order, and a message's slots follow them:
	// byName and byNumber map to a field's position here; small maps a number
	// below 1024 to its position + 1 (0: none) without hashing, 4 bytes a
	// number up to the largest.
	fields   []*FieldDescriptor
	byName   map[string]int
	byNumber map[int32]int
	small    []int32
}

// NewDescriptor validates and builds a message descriptor.
func NewDescriptor(name string, fields ...*FieldDescriptor) (*Descriptor, error) {
	if name == "" {
		return nil, fmt.Errorf("message: descriptor needs a name")
	}
	d := &Descriptor{
		Name:     name,
		byName:   make(map[string]int, len(fields)),
		byNumber: make(map[int32]int, len(fields)),
	}
	for _, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("message %s: field needs a name", name)
		}
		if f.Number < 1 || f.Number >= 1<<29 {
			return nil, fmt.Errorf("message %s: field %s has invalid number %d", name, f.Name, f.Number)
		}
		if _, dup := d.byName[f.Name]; dup {
			return nil, fmt.Errorf("message %s: duplicate field name %s", name, f.Name)
		}
		if _, dup := d.byNumber[f.Number]; dup {
			return nil, fmt.Errorf("message %s: duplicate field number %d", name, f.Number)
		}
		if f.Type == TypeMessage && f.MessageTypeName == "" {
			return nil, fmt.Errorf("message %s: message field %s lacks a message type", name, f.Name)
		}
		d.byName[f.Name] = -1
		d.byNumber[f.Number] = -1
		d.fields = append(d.fields, f)
	}
	sort.Slice(d.fields, func(i, j int) bool { return d.fields[i].Number < d.fields[j].Number })
	for i, f := range d.fields {
		d.byName[f.Name] = i
		d.byNumber[f.Number] = i
		if f.Number < 1024 {
			d.small = append(d.small, make([]int32, int(f.Number)+1-len(d.small))...)
			d.small[f.Number] = int32(i) + 1
		}
	}
	return d, nil
}

// MustDescriptor is NewDescriptor for statically known schemas.
func MustDescriptor(name string, fields ...*FieldDescriptor) *Descriptor {
	d, err := NewDescriptor(name, fields...)
	if err != nil {
		panic(err)
	}
	return d
}

// Fields returns the fields in field-number order. Do not modify.
func (d *Descriptor) Fields() []*FieldDescriptor { return d.fields }

// FieldByName looks a field up by name.
func (d *Descriptor) FieldByName(name string) (*FieldDescriptor, bool) {
	i, ok := d.byName[name]
	if !ok {
		return nil, false
	}
	return d.fields[i], true
}

// FieldByNumber looks a field up by number.
func (d *Descriptor) FieldByNumber(num int32) (*FieldDescriptor, bool) {
	i, ok := d.slot(num)
	if !ok {
		return nil, false
	}
	return d.fields[i], true
}

// slot returns the position of field number num.
func (d *Descriptor) slot(num int32) (int, bool) {
	if uint32(num) < uint32(len(d.small)) {
		i := d.small[num]
		return int(i) - 1, i > 0
	}
	i, ok := d.byNumber[num]
	return i, ok
}
