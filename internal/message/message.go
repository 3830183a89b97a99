package message

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"unsafe"
)

// Message is a dynamic protobuf message: typed field values plus any unknown
// fields carried through from the wire (preserving data written by newer
// schema versions, §5).
//
// A message Unmarshal returns holds the wire bytes it checked, one allocation,
// and decodes them once, on its first access (any method but Descriptor).
// That decode cannot fail, and concurrent readers may make it.
type Message struct {
	desc *Descriptor
	// raw views the checked wire bytes while state is pending.
	raw   string
	state atomic.Uint32
	// values holds one slot per field of desc, in field-number order: the
	// canonical scalar, or []interface{} for a repeated field; nil when unset.
	values  []interface{}
	unknown []unknownField
}

// Message states. The zero state is decoded, so a message New builds is.
const (
	decoded  = iota // values and unknown hold the fields
	pending         // raw holds them, checked
	decoding        // one reader is moving them from raw into values
)

// lazy returns a message of type desc whose fields are data, already checked.
func lazy(desc *Descriptor, data []byte) *Message {
	m := &Message{desc: desc, raw: unsafe.String(unsafe.SliceData(data), len(data))}
	m.state.Store(pending)
	return m
}

// decode makes sure the fields are decoded; every accessor calls it first, and
// it inlines there, so a decoded message pays one atomic load.
func (m *Message) decode() {
	if m.state.Load() != decoded {
		m.decodeRaw()
	}
}

// decodeRaw decodes raw in place, or waits while another reader does.
func (m *Message) decodeRaw() {
	for m.state.Load() != decoded {
		if m.state.CompareAndSwap(pending, decoding) {
			m.values = make([]interface{}, len(m.desc.fields))
			// Unmarshal, or the parent's check, checked raw: this cannot fail.
			_ = walk(m.desc, m, nil, unsafe.Slice(unsafe.StringData(m.raw), len(m.raw)), 1)
			m.raw = ""
			m.state.Store(decoded)
			return
		}
		runtime.Gosched()
	}
}

type unknownField struct {
	number   int32
	wireType int
	raw      []byte // payload only; tag re-synthesized on marshal
}

// New creates an empty message of the given type.
func New(desc *Descriptor) *Message {
	return &Message{desc: desc, values: make([]interface{}, len(desc.fields))}
}

// Descriptor returns the message's type.
func (m *Message) Descriptor() *Descriptor { return m.desc }

// canonicalize converts accepted Go values to the canonical representation
// for a field type, or reports a type error.
func canonicalize(f *FieldDescriptor, v interface{}) (interface{}, error) {
	switch f.Type {
	case TypeInt64, TypeInt32, TypeEnum:
		switch x := v.(type) {
		case int:
			return int64(x), nil
		case int32:
			return int64(x), nil
		case int64:
			return x, nil
		}
	case TypeUint64:
		switch x := v.(type) {
		case uint64:
			return x, nil
		case uint:
			return uint64(x), nil
		case int:
			if x >= 0 {
				return uint64(x), nil
			}
		}
	case TypeBool:
		if x, ok := v.(bool); ok {
			return x, nil
		}
	case TypeDouble:
		switch x := v.(type) {
		case float64:
			return x, nil
		case float32:
			return float64(x), nil
		case int:
			return float64(x), nil
		}
	case TypeFloat:
		switch x := v.(type) {
		case float32:
			return x, nil
		case float64:
			return float32(x), nil
		}
	case TypeString:
		if x, ok := v.(string); ok {
			return x, nil
		}
	case TypeBytes:
		if x, ok := v.([]byte); ok {
			return append([]byte(nil), x...), nil
		}
	case TypeMessage:
		if x, ok := v.(*Message); ok {
			if f.messageType != nil && x.desc != f.messageType && x.desc.Name != f.MessageTypeName {
				return nil, fmt.Errorf("message: field %s expects %s, got %s", f.Name, f.MessageTypeName, x.desc.Name)
			}
			return x, nil
		}
	}
	return nil, fmt.Errorf("message: field %s (%v) cannot hold %T", f.Name, f.Type, v)
}

// Set assigns a scalar field or replaces a repeated field with a single
// element slice when given a []interface{}.
func (m *Message) Set(name string, v interface{}) error {
	m.decode()
	i, ok := m.desc.byName[name]
	if !ok {
		return fmt.Errorf("message %s: no field %s", m.desc.Name, name)
	}
	f := m.desc.fields[i]
	if f.Repeated {
		vs, ok := v.([]interface{})
		if !ok {
			return fmt.Errorf("message %s: field %s is repeated; use Add or pass []interface{}", m.desc.Name, name)
		}
		out := make([]interface{}, 0, len(vs))
		for _, e := range vs {
			c, err := canonicalize(f, e)
			if err != nil {
				return err
			}
			out = append(out, c)
		}
		m.values[i] = out
		return nil
	}
	c, err := canonicalize(f, v)
	if err != nil {
		return err
	}
	m.values[i] = c
	return nil
}

// MustSet is Set for values known to be type-correct.
func (m *Message) MustSet(name string, v interface{}) *Message {
	if err := m.Set(name, v); err != nil {
		panic(err)
	}
	return m
}

// Add appends a value to a repeated field.
func (m *Message) Add(name string, v interface{}) error {
	m.decode()
	i, ok := m.desc.byName[name]
	if !ok {
		return fmt.Errorf("message %s: no field %s", m.desc.Name, name)
	}
	f := m.desc.fields[i]
	if !f.Repeated {
		return fmt.Errorf("message %s: field %s is not repeated", m.desc.Name, name)
	}
	c, err := canonicalize(f, v)
	if err != nil {
		return err
	}
	cur, _ := m.values[i].([]interface{})
	m.values[i] = append(cur, c)
	return nil
}

// MustAdd is Add for values known to be type-correct.
func (m *Message) MustAdd(name string, v interface{}) *Message {
	if err := m.Add(name, v); err != nil {
		panic(err)
	}
	return m
}

// Get returns a field's value and whether it is set. Repeated fields return
// []interface{}. Unset fields return (nil, false) — the paper's "new fields
// appear as uninitialized in old records".
func (m *Message) Get(name string) (interface{}, bool) {
	m.decode()
	i, ok := m.desc.byName[name]
	if !ok {
		return nil, false
	}
	v := m.values[i]
	return v, v != nil
}

// GetMessage returns a nested message field, or nil if unset.
func (m *Message) GetMessage(name string) *Message {
	v, ok := m.Get(name)
	if !ok {
		return nil
	}
	sub, _ := v.(*Message)
	return sub
}

// GetRepeated returns the elements of a repeated field (possibly empty).
func (m *Message) GetRepeated(name string) []interface{} {
	v, ok := m.Get(name)
	if !ok {
		return nil
	}
	vs, _ := v.([]interface{})
	return vs
}

// Has reports whether the field is explicitly set.
func (m *Message) Has(name string) bool {
	_, ok := m.Get(name)
	return ok
}

// ClearField unsets a field.
func (m *Message) ClearField(name string) {
	m.decode()
	if i, ok := m.desc.byName[name]; ok {
		m.values[i] = nil
	}
}

// UnknownFieldCount returns how many unknown wire fields the message carries.
func (m *Message) UnknownFieldCount() int {
	m.decode()
	return len(m.unknown)
}

// Clone deep-copies the message.
func (m *Message) Clone() *Message {
	m.decode()
	out := New(m.desc)
	for i, v := range m.values {
		switch x := v.(type) {
		case *Message:
			out.values[i] = x.Clone()
		case []byte:
			out.values[i] = append([]byte(nil), x...)
		case []interface{}:
			cp := make([]interface{}, len(x))
			for j, e := range x {
				switch ee := e.(type) {
				case *Message:
					cp[j] = ee.Clone()
				case []byte:
					cp[j] = append([]byte(nil), ee...)
				default:
					cp[j] = ee
				}
			}
			out.values[i] = cp
		default:
			out.values[i] = v
		}
	}
	out.unknown = append([]unknownField(nil), m.unknown...)
	return out
}

// Equal compares two messages by wire encoding (descriptor-aware comparison
// of set fields, including unknowns).
func Equal(a, b *Message) bool {
	if a == nil || b == nil {
		return a == b
	}
	ab, err1 := a.Marshal()
	bb, err2 := b.Marshal()
	return err1 == nil && err2 == nil && string(ab) == string(bb)
}

// String renders the message for debugging.
func (m *Message) String() string {
	m.decode()
	var sb strings.Builder
	sb.WriteString(m.desc.Name)
	sb.WriteByte('{')
	first := true
	for i, v := range m.values {
		if v == nil {
			continue
		}
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%s: %v", m.desc.fields[i].Name, v)
	}
	if len(m.unknown) > 0 {
		fmt.Fprintf(&sb, " +%d unknown", len(m.unknown))
	}
	sb.WriteByte('}')
	return sb.String()
}
