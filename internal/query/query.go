// Package query implements the Record Layer's declarative query API
// (Appendix C): a fluent component tree specifying which records to return —
// record types, Boolean filter predicates over (possibly nested and
// repeated) fields, and a requested sort order. It is "akin to an abstract
// syntax tree for a SQL-like query language exposed as an API".
//
// Components evaluate directly against records, which is how residual
// (post-index) filtering executes in query plans.
package query

import (
	"bytes"
	"fmt"
	"strings"

	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
)

// Comparison enumerates field predicates.
type Comparison int

// Supported comparisons.
const (
	EQ Comparison = iota
	NEQ
	LT
	LE
	GT
	GE
	StartsWith
	IsNull
	NotNull
	In
)

func (c Comparison) String() string {
	switch c {
	case EQ:
		return "="
	case NEQ:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	case StartsWith:
		return "startsWith"
	case IsNull:
		return "isNull"
	case NotNull:
		return "notNull"
	case In:
		return "in"
	}
	return "?"
}

// Component is a Boolean predicate over a record.
type Component interface {
	// Eval evaluates the predicate against a record.
	Eval(msg *message.Message) (bool, error)
	// String renders a canonical form.
	String() string
}

// FieldPath names a (possibly nested) field for predicates.
type FieldPath struct {
	path  []string
	anyOf bool // repeated field: true if any element may satisfy
}

// Field starts a path at a top-level field.
func Field(name string) FieldPath { return FieldPath{path: []string{name}} }

// Nest descends into a nested message field.
func (f FieldPath) Nest(name string) FieldPath {
	return FieldPath{path: append(append([]string(nil), f.path...), name), anyOf: f.anyOf}
}

// OneOfThem marks a repeated field: the predicate holds if any element
// satisfies it (matching FanOut indexes).
func (f FieldPath) OneOfThem() FieldPath {
	f.anyOf = true
	return f
}

// Path returns the dotted path.
func (f FieldPath) Path() []string { return f.path }

// AnyOf reports whether this is a one-of-them (repeated) predicate.
func (f FieldPath) AnyOf() bool { return f.anyOf }

// FieldComponent compares a field against an operand.
type FieldComponent struct {
	FieldPath
	Op      Comparison
	Operand interface{}
	List    []interface{} // for In
}

// Equals builds field = v.
func (f FieldPath) Equals(v interface{}) *FieldComponent {
	return &FieldComponent{FieldPath: f, Op: EQ, Operand: normalizeOperand(v)}
}

// NotEquals builds field != v.
func (f FieldPath) NotEquals(v interface{}) *FieldComponent {
	return &FieldComponent{FieldPath: f, Op: NEQ, Operand: normalizeOperand(v)}
}

// LessThan builds field < v.
func (f FieldPath) LessThan(v interface{}) *FieldComponent {
	return &FieldComponent{FieldPath: f, Op: LT, Operand: normalizeOperand(v)}
}

// LessOrEqual builds field <= v.
func (f FieldPath) LessOrEqual(v interface{}) *FieldComponent {
	return &FieldComponent{FieldPath: f, Op: LE, Operand: normalizeOperand(v)}
}

// GreaterThan builds field > v.
func (f FieldPath) GreaterThan(v interface{}) *FieldComponent {
	return &FieldComponent{FieldPath: f, Op: GT, Operand: normalizeOperand(v)}
}

// GreaterOrEqual builds field >= v.
func (f FieldPath) GreaterOrEqual(v interface{}) *FieldComponent {
	return &FieldComponent{FieldPath: f, Op: GE, Operand: normalizeOperand(v)}
}

// BeginsWith builds a string prefix predicate.
func (f FieldPath) BeginsWith(prefix string) *FieldComponent {
	return &FieldComponent{FieldPath: f, Op: StartsWith, Operand: prefix}
}

// Null builds field IS NULL.
func (f FieldPath) Null() *FieldComponent { return &FieldComponent{FieldPath: f, Op: IsNull} }

// NotNullC builds field IS NOT NULL.
func (f FieldPath) NotNullC() *FieldComponent { return &FieldComponent{FieldPath: f, Op: NotNull} }

// OneOf builds field IN (vs...).
func (f FieldPath) OneOf(vs ...interface{}) *FieldComponent {
	list := make([]interface{}, len(vs))
	for i, v := range vs {
		list[i] = normalizeOperand(v)
	}
	return &FieldComponent{FieldPath: f, Op: In, List: list}
}

func normalizeOperand(v interface{}) interface{} {
	switch x := v.(type) {
	case int:
		return int64(x)
	case int32:
		return int64(x)
	case float32:
		return float64(x)
	}
	return v
}

// Eval implements Component. On a path with no repeated field it allocates
// nothing: a scan's residual filter runs it once per record it reads.
func (c *FieldComponent) Eval(msg *message.Message) (bool, error) { return c.eval(msg, nil) }

// eval is Eval with c's slot, if it is one, filled from b.
func (c *FieldComponent) eval(msg *message.Message, b Bindings) (bool, error) {
	operand, list, err := c.operands(b)
	if err != nil {
		return false, err
	}
	if !c.anyOf {
		// An unset field, or an unset message on the way to it, is null.
		v, err := resolveScalar(msg, c.path)
		if err != nil {
			return false, err
		}
		return compare(c.Op, v, operand, list)
	}
	vals, err := resolvePath(msg, c.path)
	if err != nil {
		return false, err
	}
	for _, v := range vals {
		if ok, err := compare(c.Op, v, operand, list); ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}

// hasSlot reports whether c compares against an operand: every comparison
// but IsNull and NotNull does.
func (c *FieldComponent) hasSlot() bool { return c.Op != IsNull && c.Op != NotNull }

// operands returns c's operand and In list, a Param filled from b.
func (c *FieldComponent) operands(b Bindings) (interface{}, []interface{}, error) {
	p, ok := c.Operand.(Param)
	if !ok {
		return c.Operand, c.List, nil
	}
	v, err := b.at(p)
	if err != nil || c.Op != In {
		return v, nil, err
	}
	list, _ := v.([]interface{})
	return nil, list, nil
}

// resolveScalar walks a path with no repeated field to the value at its end,
// nil when a field on the way is unset.
func resolveScalar(msg *message.Message, path []string) (interface{}, error) {
	if msg == nil {
		return nil, nil
	}
	var cur interface{} = msg
	for _, name := range path {
		m, ok := cur.(*message.Message)
		if !ok {
			return nil, fmt.Errorf("query: cannot descend into non-message at %q", name)
		}
		fd, ok := m.Descriptor().FieldByName(name)
		if !ok {
			return nil, fmt.Errorf("query: record type %s has no field %q", m.Descriptor().Name, name)
		}
		if fd.Repeated {
			return nil, fmt.Errorf("query: field %q is repeated; use OneOfThem()", name)
		}
		if cur, ok = m.Get(name); !ok {
			return nil, nil
		}
	}
	return cur, nil
}

// resolvePath walks a one-of-them path, fanning out over repeated fields, to
// the values at its end: nil for an unset field there, none past an unset
// message.
func resolvePath(msg *message.Message, path []string) ([]interface{}, error) {
	if msg == nil {
		return nil, nil
	}
	cur := []interface{}{msg}
	for i, name := range path {
		var next []interface{}
		last := i == len(path)-1
		for _, c := range cur {
			m, ok := c.(*message.Message)
			if !ok {
				return nil, fmt.Errorf("query: cannot descend into non-message at %q", name)
			}
			fd, ok := m.Descriptor().FieldByName(name)
			if !ok {
				return nil, fmt.Errorf("query: record type %s has no field %q", m.Descriptor().Name, name)
			}
			if fd.Repeated {
				next = append(next, m.GetRepeated(name)...)
				continue
			}
			v, ok := m.Get(name)
			if !ok {
				if last {
					next = append(next, nil)
				}
				continue
			}
			next = append(next, v)
		}
		cur = next
	}
	return cur, nil
}

// compare applies a comparison between a field value and the operand.
func compare(op Comparison, v, operand interface{}, list []interface{}) (bool, error) {
	switch op {
	case IsNull:
		return v == nil, nil
	case NotNull:
		return v != nil, nil
	case In:
		for _, o := range list {
			ok, err := compare(EQ, v, o, nil)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	case StartsWith:
		s, ok := v.(string)
		p, ok2 := operand.(string)
		if !ok || !ok2 {
			if b, ok := v.([]byte); ok {
				if pb, ok2 := operand.([]byte); ok2 {
					return bytes.HasPrefix(b, pb), nil
				}
			}
			return false, nil
		}
		return strings.HasPrefix(s, p), nil
	}
	if v == nil || operand == nil {
		// SQL-ish: comparisons against null are false except NEQ of non-null.
		if op == NEQ {
			return v != operand, nil
		}
		return false, nil
	}
	c, err := orderValues(v, operand)
	if err != nil {
		return false, err
	}
	switch op {
	case EQ:
		return c == 0, nil
	case NEQ:
		return c != 0, nil
	case LT:
		return c < 0, nil
	case LE:
		return c <= 0, nil
	case GT:
		return c > 0, nil
	case GE:
		return c >= 0, nil
	}
	return false, fmt.Errorf("query: unsupported comparison %v", op)
}

func orderValues(a, b interface{}) (int, error) {
	switch av := a.(type) {
	case int64:
		if bv, ok := b.(int64); ok {
			switch {
			case av < bv:
				return -1, nil
			case av > bv:
				return 1, nil
			}
			return 0, nil
		}
	case uint64:
		if bv, ok := b.(uint64); ok {
			switch {
			case av < bv:
				return -1, nil
			case av > bv:
				return 1, nil
			}
			return 0, nil
		}
	case string:
		if bv, ok := b.(string); ok {
			return strings.Compare(av, bv), nil
		}
	case []byte:
		if bv, ok := b.([]byte); ok {
			return bytes.Compare(av, bv), nil
		}
	case float64:
		if bv, ok := b.(float64); ok {
			switch {
			case av < bv:
				return -1, nil
			case av > bv:
				return 1, nil
			}
			return 0, nil
		}
	case float32:
		if bv, ok := b.(float32); ok {
			switch {
			case av < bv:
				return -1, nil
			case av > bv:
				return 1, nil
			}
			return 0, nil
		}
	case bool:
		if bv, ok := b.(bool); ok {
			switch {
			case av == bv:
				return 0, nil
			case !av:
				return -1, nil
			}
			return 1, nil
		}
	}
	return 0, fmt.Errorf("query: cannot compare %T with %T", a, b)
}

// String implements Component.
func (c *FieldComponent) String() string { return Format(c, nil) }

// AndComponent is a conjunction.
type AndComponent struct{ Children []Component }

// And builds a conjunction, flattening nested ANDs.
func And(children ...Component) Component {
	if len(children) == 1 {
		return children[0]
	}
	var flat []Component
	for _, c := range children {
		if a, ok := c.(*AndComponent); ok {
			flat = append(flat, a.Children...)
		} else {
			flat = append(flat, c)
		}
	}
	return &AndComponent{Children: flat}
}

// Eval implements Component.
func (c *AndComponent) Eval(msg *message.Message) (bool, error) { return EvalBound(c, msg, nil) }

// String implements Component.
func (c *AndComponent) String() string { return Format(c, nil) }

// OrComponent is a disjunction.
type OrComponent struct{ Children []Component }

// Or builds a disjunction, flattening nested ORs.
func Or(children ...Component) Component {
	if len(children) == 1 {
		return children[0]
	}
	var flat []Component
	for _, c := range children {
		if o, ok := c.(*OrComponent); ok {
			flat = append(flat, o.Children...)
		} else {
			flat = append(flat, c)
		}
	}
	return &OrComponent{Children: flat}
}

// Eval implements Component.
func (c *OrComponent) Eval(msg *message.Message) (bool, error) { return EvalBound(c, msg, nil) }

// String implements Component.
func (c *OrComponent) String() string { return Format(c, nil) }

// NotComponent negates a predicate.
type NotComponent struct{ Child Component }

// Not negates a predicate.
func Not(c Component) Component { return &NotComponent{Child: c} }

// Eval implements Component.
func (c *NotComponent) Eval(msg *message.Message) (bool, error) { return EvalBound(c, msg, nil) }

// String implements Component.
func (c *NotComponent) String() string { return Format(c, nil) }

// RecordQuery is a declarative query: which record types, a filter, and an
// optional sort order that must be satisfiable by an index (§3.1: the
// streaming model supports ORDER BY only with an index providing the order).
type RecordQuery struct {
	// RecordTypes restricts the query; empty means all types.
	RecordTypes []string
	// Filter is the Boolean predicate; nil matches everything.
	Filter Component
	// Sort requests result order by a key expression; nil accepts any order.
	Sort keyexpr.Expression
	// SortReverse reverses the sort.
	SortReverse bool
	// Projection names the top-level fields the caller will read from the
	// results. It is a promise, not a transformation: when every projected
	// field (plus any residual-filter fields) can be reconstructed from an
	// index entry, the planner emits a covering plan that synthesizes partial
	// records straight from the index — zero record-subspace reads (§6,
	// Appendix A's KeyWithValue) — and those partial records carry only the
	// projected and filter fields, no record version, and a zero stored Size.
	// Plans that fetch anyway return full records unchanged. Empty means the
	// whole record is needed. Build with Select.
	Projection []string
}

// Select returns a copy of the query projecting the named top-level fields —
// the opt-in that enables covering index plans.
func (q RecordQuery) Select(fields ...string) RecordQuery {
	q.Projection = append([]string(nil), fields...)
	return q
}

// String renders the query.
func (q RecordQuery) String() string {
	out, _ := appendQuery(nil, q, nil, false)
	return string(out)
}
