package message

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
)

// refMessage is Message as it was before fields moved into descriptor-ordered
// slots: values live in a map keyed by field number, Marshal sorts the numbers
// it finds there, string fields are copied out of the wire bytes, and nesting
// is unbounded. TestMessageMatchesMapReference and FuzzMessageUnmarshal hold
// Message to it. The wire helpers it shares (consume, wireTypeMatches,
// isPackable, appendTag, appendVarint) are pure functions of their arguments.
type refMessage struct {
	desc    *Descriptor
	values  map[int32]interface{} // canonical scalar or []interface{} for repeated
	unknown []unknownField
}

func newRef(desc *Descriptor) *refMessage {
	return &refMessage{desc: desc, values: make(map[int32]interface{})}
}

func refCanonicalize(f *FieldDescriptor, v interface{}) (interface{}, error) {
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
		if x, ok := v.(*refMessage); ok {
			if f.messageType != nil && x.desc != f.messageType && x.desc.Name != f.MessageTypeName {
				return nil, fmt.Errorf("message: field %s expects %s, got %s", f.Name, f.MessageTypeName, x.desc.Name)
			}
			return x, nil
		}
	}
	if _, ok := v.(*refMessage); ok {
		v = (*Message)(nil) // name the type Message's error names
	}
	return nil, fmt.Errorf("message: field %s (%v) cannot hold %T", f.Name, f.Type, v)
}

func (m *refMessage) Set(name string, v interface{}) error {
	f, ok := m.desc.FieldByName(name)
	if !ok {
		return fmt.Errorf("message %s: no field %s", m.desc.Name, name)
	}
	if f.Repeated {
		vs, ok := v.([]interface{})
		if !ok {
			return fmt.Errorf("message %s: field %s is repeated; use Add or pass []interface{}", m.desc.Name, name)
		}
		out := make([]interface{}, 0, len(vs))
		for _, e := range vs {
			c, err := refCanonicalize(f, e)
			if err != nil {
				return err
			}
			out = append(out, c)
		}
		m.values[f.Number] = out
		return nil
	}
	c, err := refCanonicalize(f, v)
	if err != nil {
		return err
	}
	m.values[f.Number] = c
	return nil
}

func (m *refMessage) Add(name string, v interface{}) error {
	f, ok := m.desc.FieldByName(name)
	if !ok {
		return fmt.Errorf("message %s: no field %s", m.desc.Name, name)
	}
	if !f.Repeated {
		return fmt.Errorf("message %s: field %s is not repeated", m.desc.Name, name)
	}
	c, err := refCanonicalize(f, v)
	if err != nil {
		return err
	}
	cur, _ := m.values[f.Number].([]interface{})
	m.values[f.Number] = append(cur, c)
	return nil
}

func (m *refMessage) Get(name string) (interface{}, bool) {
	f, ok := m.desc.FieldByName(name)
	if !ok {
		return nil, false
	}
	v, ok := m.values[f.Number]
	return v, ok
}

func (m *refMessage) Has(name string) bool {
	_, ok := m.Get(name)
	return ok
}

func (m *refMessage) ClearField(name string) {
	if f, ok := m.desc.FieldByName(name); ok {
		delete(m.values, f.Number)
	}
}

func (m *refMessage) UnknownFieldCount() int { return len(m.unknown) }

func (m *refMessage) Clone() *refMessage {
	out := newRef(m.desc)
	for num, v := range m.values {
		switch x := v.(type) {
		case *refMessage:
			out.values[num] = x.Clone()
		case []byte:
			out.values[num] = append([]byte(nil), x...)
		case []interface{}:
			cp := make([]interface{}, len(x))
			for i, e := range x {
				switch ee := e.(type) {
				case *refMessage:
					cp[i] = ee.Clone()
				case []byte:
					cp[i] = append([]byte(nil), ee...)
				default:
					cp[i] = ee
				}
			}
			out.values[num] = cp
		default:
			out.values[num] = v
		}
	}
	out.unknown = append([]unknownField(nil), m.unknown...)
	return out
}

func (m *refMessage) String() string {
	var sb strings.Builder
	sb.WriteString(m.desc.Name)
	sb.WriteByte('{')
	first := true
	for _, f := range m.desc.Fields() {
		v, ok := m.values[f.Number]
		if !ok {
			continue
		}
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%s: %v", f.Name, v)
	}
	if len(m.unknown) > 0 {
		fmt.Fprintf(&sb, " +%d unknown", len(m.unknown))
	}
	sb.WriteByte('}')
	return sb.String()
}

func (m *refMessage) Marshal() ([]byte, error) {
	return m.appendTo(nil)
}

func (m *refMessage) appendTo(b []byte) ([]byte, error) {
	nums := make([]int32, 0, len(m.values))
	for n := range m.values {
		nums = append(nums, n)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	for _, n := range nums {
		f, _ := m.desc.FieldByNumber(n)
		v := m.values[n]
		if f.Repeated {
			for _, e := range v.([]interface{}) {
				var err error
				b, err = refAppendField(b, f, e)
				if err != nil {
					return nil, err
				}
			}
			continue
		}
		var err error
		b, err = refAppendField(b, f, v)
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

func refAppendField(b []byte, f *FieldDescriptor, v interface{}) ([]byte, error) {
	switch f.Type {
	case TypeInt64, TypeInt32, TypeEnum:
		b = appendTag(b, f.Number, wireVarint)
		return appendVarint(b, uint64(v.(int64))), nil
	case TypeUint64:
		b = appendTag(b, f.Number, wireVarint)
		return appendVarint(b, v.(uint64)), nil
	case TypeBool:
		b = appendTag(b, f.Number, wireVarint)
		if v.(bool) {
			return appendVarint(b, 1), nil
		}
		return appendVarint(b, 0), nil
	case TypeDouble:
		b = appendTag(b, f.Number, wireFixed64)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.(float64))), nil
	case TypeFloat:
		b = appendTag(b, f.Number, wireFixed32)
		return binary.LittleEndian.AppendUint32(b, math.Float32bits(v.(float32))), nil
	case TypeString:
		b = appendTag(b, f.Number, wireBytes)
		s := v.(string)
		b = appendVarint(b, uint64(len(s)))
		return append(b, s...), nil
	case TypeBytes:
		b = appendTag(b, f.Number, wireBytes)
		p := v.([]byte)
		b = appendVarint(b, uint64(len(p)))
		return append(b, p...), nil
	case TypeMessage:
		sub, err := v.(*refMessage).Marshal()
		if err != nil {
			return nil, err
		}
		b = appendTag(b, f.Number, wireBytes)
		b = appendVarint(b, uint64(len(sub)))
		return append(b, sub...), nil
	}
	return nil, fmt.Errorf("message: cannot encode field %s of type %v", f.Name, f.Type)
}

func refUnmarshal(desc *Descriptor, data []byte) (*refMessage, error) {
	m := newRef(desc)
	if err := m.merge(data); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *refMessage) merge(data []byte) error {
	for len(data) > 0 {
		tag, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("message %s: bad tag varint", m.desc.Name)
		}
		data = data[n:]
		number := int32(tag >> 3)
		wt := int(tag & 7)
		if number < 1 {
			return fmt.Errorf("message %s: invalid field number %d", m.desc.Name, number)
		}

		payload, rest, err := consume(data, wt)
		if err != nil {
			return fmt.Errorf("message %s field %d: %v", m.desc.Name, number, err)
		}
		data = rest

		f, known := m.desc.FieldByNumber(number)
		if !known || !wireTypeMatches(f, wt) {
			m.unknown = append(m.unknown, unknownField{number: number, wireType: wt, raw: payload})
			continue
		}
		if f.Repeated && wt == wireBytes && isPackable(f.Type) {
			if err := m.mergePacked(f, payload); err != nil {
				return err
			}
			continue
		}
		v, err := refDecodeScalar(f, wt, payload)
		if err != nil {
			return fmt.Errorf("message %s field %s: %v", m.desc.Name, f.Name, err)
		}
		if f.Repeated {
			cur, _ := m.values[f.Number].([]interface{})
			m.values[f.Number] = append(cur, v)
		} else {
			m.values[f.Number] = v
		}
	}
	return nil
}

func (m *refMessage) mergePacked(f *FieldDescriptor, payload []byte) error {
	cur, _ := m.values[f.Number].([]interface{})
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
			return fmt.Errorf("message %s field %s: packed: %v", m.desc.Name, f.Name, err)
		}
		payload = rest
		v, err := refDecodeScalar(f, wt, chunk)
		if err != nil {
			return err
		}
		cur = append(cur, v)
	}
	m.values[f.Number] = cur
	return nil
}

func refDecodeScalar(f *FieldDescriptor, wt int, payload []byte) (interface{}, error) {
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
		return string(payload), nil
	case TypeBytes:
		return append([]byte(nil), payload...), nil
	case TypeMessage:
		if f.messageType == nil {
			return nil, fmt.Errorf("unresolved message type %s", f.MessageTypeName)
		}
		return refUnmarshal(f.messageType, payload)
	}
	return nil, fmt.Errorf("unsupported type %v", f.Type)
}
