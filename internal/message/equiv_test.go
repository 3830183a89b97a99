package message

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fieldNumbers are the numbers a generated field draws from: the small ones,
// the edges of one- to five-byte tags, and the largest protobuf allows.
var fieldNumbers = []int32{1, 2, 3, 4, 5, 6, 7, 15, 16, 17, 2047, 2048, 1<<21 - 1, 1 << 21, 1<<29 - 2, 1<<29 - 1}

// twin is one value as each implementation takes it: the same Go value, except
// that a nested message is a *Message on one side and a *refMessage on the
// other.
type twin struct{ m, r interface{} }

// equivGen draws schemas, values, operations and wire bytes from one seed.
type equivGen struct {
	r     *rand.Rand
	types []*Descriptor
}

// randSchema registers one to three message types whose fields cover every
// scalar type, repeated and nested fields (a type may nest itself) and field
// numbers up to 2^29-1, declared out of number order. One message field in
// thirty names a type no one registers.
func (g *equivGen) randSchema() {
	n := 1 + g.r.Intn(3)
	reg := NewRegistry()
	for i := 0; i < n; i++ {
		var fields []*FieldDescriptor
		for j, k := range g.r.Perm(len(fieldNumbers))[:1+g.r.Intn(8)] {
			f := &FieldDescriptor{
				Name:     fmt.Sprintf("f%d", j),
				Number:   fieldNumbers[k],
				Type:     FieldType(g.r.Intn(int(TypeMessage) + 1)),
				Repeated: g.r.Intn(3) == 0,
			}
			if f.Type == TypeMessage {
				f.MessageTypeName = fmt.Sprintf("T%d", g.r.Intn(n))
				if g.r.Intn(30) == 0 {
					f.MessageTypeName = "Missing"
				}
			}
			fields = append(fields, f)
		}
		d := MustDescriptor(fmt.Sprintf("T%d", i), fields...)
		if err := reg.Add(d); err != nil {
			panic(err)
		}
		g.types = append(g.types, d)
	}
}

func (g *equivGen) str() string {
	alphabet := []byte{0x00, 0x00, 0x01, 'a', 'z', 0x7F, 0xC3, 0xFF}
	b := make([]byte, g.r.Intn(7))
	for i := range b {
		b[i] = alphabet[g.r.Intn(len(alphabet))]
	}
	return string(b)
}

func (g *equivGen) int64() int64 {
	edges := []int64{0, 1, -1, 127, 128, 255, 256, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	if g.r.Intn(2) == 0 {
		return edges[g.r.Intn(len(edges))]
	}
	return int64(g.r.Uint64()) >> uint(g.r.Intn(64))
}

func (g *equivGen) float64() float64 {
	edges := []float64{0, math.Copysign(0, -1), 1.5, -2.25, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64}
	if g.r.Intn(2) == 0 {
		return edges[g.r.Intn(len(edges))]
	}
	return g.r.NormFloat64() * 1e6
}

// value draws a value for field f: one of the Go types Set accepts for it,
// and about one time in twelve a type it refuses.
func (g *equivGen) value(f *FieldDescriptor, depth int) twin {
	if g.r.Intn(12) == 0 {
		wrong := []interface{}{"s", int64(1), -1, uint(3), true, 1.5, float32(2.5), []byte{1}, int32(-3), nil, struct{}{}}
		v := wrong[g.r.Intn(len(wrong))]
		return twin{v, v}
	}
	var v interface{}
	switch f.Type {
	case TypeInt64, TypeInt32, TypeEnum:
		switch x := g.int64(); g.r.Intn(3) {
		case 0:
			v = int(x)
		case 1:
			v = int32(x)
		default:
			v = x
		}
	case TypeUint64:
		switch x := g.int64(); g.r.Intn(3) {
		case 0:
			v = int(x) // refused when negative
		case 1:
			v = uint(x)
		default:
			v = uint64(x)
		}
	case TypeBool:
		v = g.r.Intn(2) == 0
	case TypeDouble, TypeFloat:
		switch x := g.float64(); g.r.Intn(3) {
		case 0:
			v = float32(x)
		case 1:
			v = int(g.int64()) // double fields take an int, float fields refuse it
		default:
			v = x
		}
	case TypeString:
		v = g.str()
	case TypeBytes:
		if s := g.str(); s != "" || g.r.Intn(2) == 0 {
			v = []byte(s)
		} else {
			v = []byte(nil)
		}
	case TypeMessage:
		d := f.messageType
		if d == nil || g.r.Intn(10) == 0 {
			d = g.types[g.r.Intn(len(g.types))] // maybe of the wrong type
		}
		m, r := g.message(d, depth+1)
		return twin{m, r}
	}
	return twin{v, v}
}

// message builds a pair of equal messages of type d with a few Sets and Adds;
// past depth 3 they stay empty.
func (g *equivGen) message(d *Descriptor, depth int) (*Message, *refMessage) {
	m, r := New(d), newRef(d)
	if depth > 3 {
		return m, r
	}
	for i := g.r.Intn(4); i > 0 && len(d.Fields()) > 0; i-- {
		f := d.Fields()[g.r.Intn(len(d.Fields()))]
		v := g.value(f, depth)
		if f.Repeated {
			_ = m.Add(f.Name, v.m)
			_ = r.Add(f.Name, v.r)
		} else {
			_ = m.Set(f.Name, v.m)
			_ = r.Set(f.Name, v.r)
		}
	}
	return m, r
}

// wire draws protobuf bytes for type d: fields the type declares, in wire
// types that match them or not, packed and unpacked runs, nested messages,
// unknown field numbers, non-minimal varints, and one time in three a
// corruption (truncation, a flipped byte, a group wire type, field number 0 or
// an unterminated varint).
func (g *equivGen) wire(d *Descriptor, depth int) []byte {
	var b []byte
	for i := g.r.Intn(7); i > 0; i-- {
		var f *FieldDescriptor
		num := fieldNumbers[g.r.Intn(len(fieldNumbers))]
		if fs := d.Fields(); len(fs) > 0 && g.r.Intn(4) != 0 {
			f = fs[g.r.Intn(len(fs))]
			num = f.Number
		}
		wt := []int{wireVarint, wireFixed64, wireBytes, wireFixed32}[g.r.Intn(4)]
		if f != nil && g.r.Intn(5) != 0 {
			wt = naturalWireType(f.Type)
			if f.Repeated && isPackable(f.Type) && g.r.Intn(2) == 0 {
				wt = wireBytes
			}
		}
		b = appendTag(b, num, wt)
		switch wt {
		case wireVarint:
			b = appendVarint(b, uint64(g.int64()))
			if g.r.Intn(8) == 0 { // a non-minimal encoding of the same number
				b[len(b)-1] |= 0x80
				b = append(b, 0x00)
			}
		case wireFixed64:
			b = binary64(b, math.Float64bits(g.float64()))
		case wireFixed32:
			b = binary32(b, math.Float32bits(float32(g.float64())))
		case wireBytes:
			var p []byte
			switch {
			case f != nil && f.Type == TypeMessage && f.messageType != nil && depth < 3:
				p = g.wire(f.messageType, depth+1)
			case f != nil && isPackable(f.Type):
				for j := g.r.Intn(4); j > 0; j-- {
					switch naturalWireType(f.Type) {
					case wireFixed64:
						p = binary64(p, math.Float64bits(g.float64()))
					case wireFixed32:
						p = binary32(p, math.Float32bits(float32(g.float64())))
					default:
						p = appendVarint(p, uint64(g.int64()))
					}
				}
				if len(p) > 0 && g.r.Intn(6) == 0 {
					p = p[:len(p)-1] // a truncated last element
				}
			default:
				p = []byte(g.str())
			}
			b = appendVarint(b, uint64(len(p)))
			b = append(b, p...)
		}
	}
	switch g.r.Intn(18) {
	case 0:
		if len(b) > 0 {
			b = b[:g.r.Intn(len(b))]
		}
	case 1:
		if len(b) > 0 {
			b[g.r.Intn(len(b))] ^= byte(1 << g.r.Intn(8))
		}
	case 2:
		b = appendTag(b, fieldNumbers[g.r.Intn(len(fieldNumbers))], []int{3, 4, 6, 7}[g.r.Intn(4)])
	case 3:
		b = appendTag(b, 0, wireVarint)
		b = append(b, 1)
	case 4:
		b = append(b, 0x80)
	case 5:
		b = appendTag(b, 1, wireBytes)
		b = append(b, 0x7F, 1) // longer than what follows
	}
	return b
}

func naturalWireType(t FieldType) int {
	switch t {
	case TypeDouble:
		return wireFixed64
	case TypeFloat:
		return wireFixed32
	case TypeString, TypeBytes, TypeMessage:
		return wireBytes
	}
	return wireVarint
}

func binary64(b []byte, u uint64) []byte {
	for i := 0; i < 8; i++ {
		b = append(b, byte(u>>(8*i)))
	}
	return b
}

func binary32(b []byte, u uint32) []byte {
	for i := 0; i < 4; i++ {
		b = append(b, byte(u>>(8*i)))
	}
	return b
}

// sameErr reports whether two errors are both nil or say the same thing.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// sameValue compares what Get returned from a Message (a) and a refMessage
// (b): equal dynamic types and values, floats by their bits, nested messages
// field by field.
func sameValue(a, b interface{}) bool {
	switch x := a.(type) {
	case *Message:
		y, ok := b.(*refMessage)
		return ok && diffFields(x, y) == ""
	case []interface{}:
		y, ok := b.([]interface{})
		if !ok || len(x) != len(y) || (x == nil) != (y == nil) {
			return false
		}
		for i := range x {
			if !sameValue(x[i], y[i]) {
				return false
			}
		}
		return true
	case []byte:
		y, ok := b.([]byte)
		return ok && bytes.Equal(x, y) && (x == nil) == (y == nil)
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case float32:
		y, ok := b.(float32)
		return ok && math.Float32bits(x) == math.Float32bits(y)
	}
	return a == b
}

// diffMessage describes how m and r differ, "" when they do not: their
// fields (diffFields), String, and Marshal's bytes and error.
func diffMessage(m *Message, r *refMessage) string {
	if d := diffFields(m, r); d != "" {
		return d
	}
	if ms, rs := m.String(), r.String(); ms != rs {
		return fmt.Sprintf("String() = %q, want %q", ms, rs)
	}
	mb, merr := m.Marshal()
	rb, rerr := r.Marshal()
	if !sameErr(merr, rerr) || !bytes.Equal(mb, rb) {
		return fmt.Sprintf("Marshal() = %x, %v; want %x, %v", mb, merr, rb, rerr)
	}
	return ""
}

// diffFields compares every field's Get and Has (and a name the type does not
// declare) and UnknownFieldCount, nested messages recursively. String and
// Marshal cover nested messages already, so diffMessage compares them once, at
// the top: per level they would cost the cube of the depth.
func diffFields(m *Message, r *refMessage) string {
	if m.Descriptor() != r.desc {
		return fmt.Sprintf("type %s, want %s", m.Descriptor().Name, r.desc.Name)
	}
	for _, name := range append(fieldNames(r.desc), "nope") {
		mv, mok := m.Get(name)
		rv, rok := r.Get(name)
		if mok != rok || !sameValue(mv, rv) {
			return fmt.Sprintf("Get(%s) = %v, %v; want %v, %v", name, mv, mok, rv, rok)
		}
		if m.Has(name) != r.Has(name) {
			return fmt.Sprintf("Has(%s) = %v, want %v", name, m.Has(name), r.Has(name))
		}
	}
	if m.UnknownFieldCount() != r.UnknownFieldCount() {
		return fmt.Sprintf("UnknownFieldCount() = %d, want %d", m.UnknownFieldCount(), r.UnknownFieldCount())
	}
	return ""
}

func fieldNames(d *Descriptor) []string {
	var out []string
	for _, f := range d.Fields() {
		out = append(out, f.Name)
	}
	return out
}

// TestMessageMatchesMapReference holds Message to refMessage, the map-backed
// implementation it replaced, over 300 seeded schemas and operation lists:
// Set (scalars, lists for repeated fields, refused types, messages of the
// wrong type), Add, ClearField, Clone (then changing a nested message of the
// clone, after which the original must be unchanged), re-decoding the
// message's own bytes, and decoding drawn wire bytes that hold unknown fields,
// wire-type mismatches, packed runs and corruptions. After every operation
// both must agree on Get, Has, String, UnknownFieldCount, Marshal's bytes and
// every error.
func TestMessageMatchesMapReference(t *testing.T) {
	covered := map[string]int{}
	for seed := int64(1); seed <= 300; seed++ {
		g := &equivGen{r: rand.New(rand.NewSource(seed))}
		g.randSchema()
		d := g.types[0]
		m, r := New(d), newRef(d)
		type pair struct {
			m *Message
			r *refMessage
		}
		var retired []pair // originals of clones, which no later operation may reach
		check := func(step int, what string) {
			t.Helper()
			if diff := diffMessage(m, r); diff != "" {
				t.Fatalf("seed %d step %d (%s): %s", seed, step, what, diff)
			}
		}
		errs := func(step int, what string, merr, rerr error) {
			t.Helper()
			if !sameErr(merr, rerr) {
				t.Fatalf("seed %d step %d (%s): error %v, want %v", seed, step, what, merr, rerr)
			}
			if rerr != nil {
				covered["error: "+what]++
			}
		}
		names := append(fieldNames(d), "nope")
		for step := 0; step < 40; step++ {
			name := names[g.r.Intn(len(names))]
			f, _ := d.FieldByName(name)
			if f == nil {
				f = Field("nope", 1, TypeString)
			}
			switch op := g.r.Intn(10); {
			case op < 3:
				what := "set"
				var v twin
				if f.Repeated && g.r.Intn(6) != 0 {
					var ms, rs []interface{}
					for i := g.r.Intn(4); i > 0; i-- {
						e := g.value(f, 0)
						ms, rs = append(ms, e.m), append(rs, e.r)
					}
					if ms == nil && g.r.Intn(2) == 0 {
						ms, rs = []interface{}{}, []interface{}{}
					}
					v, what = twin{ms, rs}, "set list"
				} else {
					v = g.value(f, 0)
				}
				errs(step, what, m.Set(name, v.m), r.Set(name, v.r))
				check(step, what)
			case op < 5:
				v := g.value(f, 0)
				errs(step, "add", m.Add(name, v.m), r.Add(name, v.r))
				check(step, "add")
			case op < 6:
				m.ClearField(name)
				r.ClearField(name)
				check(step, "clear")
			case op < 7:
				retired = append(retired, pair{m, r})
				m, r = m.Clone(), r.Clone()
				check(step, "clone")
				// Change one nested message in place: no clone may share it.
				for _, f := range d.Fields() {
					if sub := m.GetMessage(f.Name); sub != nil && len(sub.Descriptor().Fields()) > 0 {
						rv, _ := r.Get(f.Name)
						sf := sub.Descriptor().Fields()[0]
						v := g.value(sf, 3)
						if sf.Repeated {
							v = twin{[]interface{}{v.m}, []interface{}{v.r}}
						}
						errs(step, "set nested", sub.Set(sf.Name, v.m), rv.(*refMessage).Set(sf.Name, v.r))
						covered["set nested"]++
						break
					}
				}
				check(step, "clone then set nested")
			case op < 8:
				b, err := m.Marshal()
				rb, rerr := r.Marshal()
				errs(step, "marshal", err, rerr)
				if err != nil {
					continue
				}
				m2, err := Unmarshal(d, b)
				r2, rerr := refUnmarshal(d, rb)
				errs(step, "re-decode", err, rerr)
				if rerr == nil {
					m, r = m2, r2
					check(step, "re-decode")
				}
			default:
				b := g.wire(d, 0)
				m2, err := Unmarshal(d, b)
				r2, rerr := refUnmarshal(d, b)
				errs(step, "decode", err, rerr)
				if rerr == nil {
					m, r = m2, r2
					check(step, fmt.Sprintf("decode %x", b))
					covered["decoded"]++
					if r.UnknownFieldCount() > 0 {
						covered["unknown fields"]++
					}
				}
			}
		}
		for i, p := range retired {
			if diff := diffMessage(p.m, p.r); diff != "" {
				t.Fatalf("seed %d: clone %d changed after it was taken: %s", seed, i, diff)
			}
		}
		for _, f := range d.Fields() {
			if v, ok := r.Get(f.Name); ok {
				covered[fmt.Sprintf("%v repeated=%v", f.Type, f.Repeated)]++
				if s, ok := v.(string); ok && bytes.IndexByte([]byte(s), 0) >= 0 {
					covered["string holding 0x00"]++
				}
			}
		}
	}
	want := []string{"decoded", "unknown fields", "set nested", "string holding 0x00",
		"error: set", "error: set list", "error: add", "error: decode"}
	for typ := TypeInt64; typ <= TypeMessage; typ++ {
		for _, rep := range []bool{false, true} {
			want = append(want, fmt.Sprintf("%v repeated=%v", typ, rep))
		}
	}
	for _, c := range want {
		if covered[c] == 0 {
			t.Errorf("no %q in any seed: %v", c, covered)
		}
	}
}
