// Package keyexpr implements key expressions (§4, Appendix A): functions
// from a record to one or more tuples, used to form primary keys and index
// keys. Expressions may "fan out" over repeated fields, producing one index
// entry per element, or concatenate all elements into a single entry.
//
// Keys are built by a compiled Packer, which appends each key's tuple
// encoding straight from the record's fields into one caller-owned buffer;
// the metadata compiles one per index and per record type. Evaluate, which
// returns the keys as tuples, is the reference the packer is checked against
// byte for byte (TestPackerMatchesEvaluate, FuzzKeyPacker).
package keyexpr

import (
	"errors"
	"fmt"
	"strings"

	"recordlayer/internal/message"
	"recordlayer/internal/tuple"
)

// FanType controls how repeated fields expand (Appendix A).
type FanType int

const (
	// FanScalar treats the field as single-valued.
	FanScalar FanType = iota
	// FanOut produces a separate tuple per repeated element.
	FanOut
	// FanConcatenate produces one tuple containing the list of all elements.
	FanConcatenate
)

func (f FanType) String() string {
	switch f {
	case FanScalar:
		return "scalar"
	case FanOut:
		return "fanout"
	case FanConcatenate:
		return "concatenate"
	}
	return "unknown"
}

// Context supplies the record and its environment during evaluation.
type Context struct {
	// Message is the record being indexed.
	Message *message.Message
	// RecordTypeKey is the value the record type key expression produces for
	// this record's type (its name, or an explicit short key).
	RecordTypeKey interface{}
	// Version is the record's commit version, when known. VERSION index
	// entries for unversioned records use an incomplete versionstamp that the
	// store completes at commit time.
	Version tuple.Versionstamp
	// HasVersion reports whether Version is meaningful.
	HasVersion bool
	// PendingUserVersion is the 2-byte per-transaction counter value already
	// assigned to this record's commit version (§7); incomplete stamps carry
	// it so index entries and the record's version slot agree.
	PendingUserVersion uint16
}

// Expression is a key expression: record -> one or more tuples.
type Expression interface {
	// Evaluate produces the expression's tuples for a record. Every returned
	// tuple has exactly ColumnCount elements.
	Evaluate(ctx *Context) ([]tuple.Tuple, error)
	// ColumnCount is the number of tuple elements each evaluation result has.
	ColumnCount() int
	// Columns describes each produced column for planner matching. The
	// slice may be shared: callers must not modify it.
	Columns() []Column
	// String renders a canonical form; two expressions are interchangeable
	// iff their strings are equal.
	String() string
}

// ColumnKind classifies a produced column for the query planner.
type ColumnKind int

const (
	// ColField columns carry a (possibly nested) record field value.
	ColField ColumnKind = iota
	// ColRecordType columns carry the record type key.
	ColRecordType
	// ColVersion columns carry the record's commit version.
	ColVersion
	// ColLiteral columns carry a constant.
	ColLiteral
	// ColFunction columns are computed by a registered function.
	ColFunction
)

// Column describes one produced column.
type Column struct {
	Kind     ColumnKind
	Path     []string // field path from the record root (ColField)
	Fan      FanType  // how repeated values expand (ColField)
	Literal  interface{}
	Function string
}

// PathString renders the field path ("parent.a").
func (c Column) PathString() string { return strings.Join(c.Path, ".") }

// ---------------------------------------------------------------- field

type fieldExpr struct {
	name string
	fan  FanType
}

// Field references a top-level record field with scalar semantics.
func Field(name string) Expression { return fieldExpr{name: name, fan: FanScalar} }

// FieldFan references a top-level field with explicit fan semantics.
func FieldFan(name string, fan FanType) Expression { return fieldExpr{name: name, fan: fan} }

func (e fieldExpr) ColumnCount() int { return 1 }

func (e fieldExpr) Columns() []Column {
	return []Column{{Kind: ColField, Path: []string{e.name}, Fan: e.fan}}
}

func (e fieldExpr) String() string {
	if e.fan == FanScalar {
		return fmt.Sprintf("field(%q)", e.name)
	}
	return fmt.Sprintf("field(%q,%s)", e.name, e.fan)
}

func (e fieldExpr) Evaluate(ctx *Context) ([]tuple.Tuple, error) {
	return evalField(ctx.Message, e.name, e.fan)
}

func evalField(m *message.Message, name string, fan FanType) ([]tuple.Tuple, error) {
	v, vals, err := fieldValues(m, name, fan)
	if err != nil {
		return nil, err
	}
	switch fan {
	case FanOut:
		out := make([]tuple.Tuple, 0, len(vals))
		for _, v := range vals {
			out = append(out, tuple.Tuple{v})
		}
		return out, nil
	case FanConcatenate:
		return []tuple.Tuple{{append(make(tuple.Tuple, 0, len(vals)), vals...)}}, nil
	}
	return []tuple.Tuple{{v}}, nil
}

// fieldValues reads field name of m as fan reads it: for FanOut and
// FanConcatenate the elements of a repeated field, otherwise the field's
// value, nil when unset. A nil m has a nil value and no elements. Every value
// is checked to be a tuple element. A field m's type lacks, and a fan type
// that does not fit the field, are errors. Evaluate and Packer both read
// fields through it.
func fieldValues(m *message.Message, name string, fan FanType) (interface{}, []interface{}, error) {
	if m == nil {
		return nil, nil, nil
	}
	fd, ok := m.Descriptor().FieldByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("keyexpr: record type %s has no field %q", m.Descriptor().Name, name)
	}
	if fd.Repeated {
		if fan != FanOut && fan != FanConcatenate {
			return nil, nil, fmt.Errorf("keyexpr: field %q is repeated; use FanOut or FanConcatenate", name)
		}
		vals := m.GetRepeated(name)
		for _, v := range vals {
			if _, err := toTupleValue(v); err != nil {
				return nil, nil, err
			}
		}
		return nil, vals, nil
	}
	if fan != FanScalar {
		return nil, nil, fmt.Errorf("keyexpr: field %q is not repeated; fan type %v invalid", name, fan)
	}
	v, _ := m.Get(name)
	_, err := toTupleValue(v)
	return v, nil, err
}

// toTupleValue maps message values onto tuple element types.
func toTupleValue(v interface{}) (interface{}, error) {
	switch x := v.(type) {
	case int64, uint64, bool, string, []byte, float64, float32, nil:
		return x, nil
	case *message.Message:
		return nil, fmt.Errorf("keyexpr: cannot index a message value directly; use Nest")
	default:
		return nil, fmt.Errorf("keyexpr: unsupported value type %T", v)
	}
}

// ---------------------------------------------------------------- nest

type nestExpr struct {
	name  string
	fan   FanType
	child Expression
	cols  []Column // computed once, by newNest
}

// Nest evaluates child against the nested message in the named field
// (Appendix A: field("parent").nest("a")).
func Nest(name string, child Expression) Expression { return newNest(name, FanScalar, child) }

// NestFan evaluates child against each element of a repeated message field.
func NestFan(name string, fan FanType, child Expression) Expression {
	return newNest(name, fan, child)
}

func newNest(name string, fan FanType, child Expression) nestExpr {
	e := nestExpr{name: name, fan: fan, child: child}
	cols := child.Columns()
	e.cols = make([]Column, len(cols))
	for i, c := range cols {
		e.cols[i] = c
		if c.Kind == ColField {
			e.cols[i].Path = append([]string{name}, c.Path...)
			if fan == FanOut {
				e.cols[i].Fan = FanOut
			}
		}
	}
	return e
}

func (e nestExpr) ColumnCount() int { return e.child.ColumnCount() }

func (e nestExpr) Columns() []Column { return e.cols }

func (e nestExpr) String() string {
	if e.fan == FanScalar {
		return fmt.Sprintf("nest(%q,%s)", e.name, e.child)
	}
	return fmt.Sprintf("nest(%q,%s,%s)", e.name, e.fan, e.child)
}

func (e nestExpr) Evaluate(ctx *Context) ([]tuple.Tuple, error) {
	one, sub, elems, err := nested(ctx.Message, e.name, e.fan)
	if err != nil {
		return nil, err
	}
	subs := make([]*message.Message, 0, len(elems)+1)
	if one {
		subs = append(subs, sub)
	}
	for _, v := range elems {
		subs = append(subs, v.(*message.Message))
	}
	var out []tuple.Tuple
	for _, sub := range subs {
		subCtx := *ctx
		subCtx.Message = sub
		ts, err := e.child.Evaluate(&subCtx)
		if err != nil {
			return nil, err
		}
		out = append(out, ts...)
	}
	return out, nil
}

// nested resolves the messages a nest over m evaluates its child over: one
// message, nil when the field is unset or m is nil (one); or the elements of a
// repeated field. An unset parent under FanOut has no elements, as
// evalField(nil, FanOut) has none. Evaluate and Packer both resolve nests
// through it.
func nested(m *message.Message, name string, fan FanType) (one bool, sub *message.Message, elems []interface{}, err error) {
	if m == nil {
		return fan != FanOut, nil, nil, nil
	}
	fd, ok := m.Descriptor().FieldByName(name)
	if !ok {
		return false, nil, nil, fmt.Errorf("keyexpr: record type %s has no field %q", m.Descriptor().Name, name)
	}
	if fd.Type != message.TypeMessage {
		return false, nil, nil, fmt.Errorf("keyexpr: field %q is not a message; cannot nest", name)
	}
	if !fd.Repeated {
		if fan != FanScalar {
			return false, nil, nil, fmt.Errorf("keyexpr: field %q is not repeated; fan type %v invalid", name, fan)
		}
		return true, m.GetMessage(name), nil, nil
	}
	if fan != FanOut {
		return false, nil, nil, fmt.Errorf("keyexpr: repeated message field %q requires FanOut", name)
	}
	return false, nil, m.GetRepeated(name), nil
}

// ---------------------------------------------------------------- then

type thenExpr struct {
	children []Expression
	cols     []Column // computed once, by Then
}

// Then concatenates sub-expressions into a compound key. If sub-expressions
// produce multiple tuples, the result is their Cartesian product
// (Appendix A).
func Then(children ...Expression) Expression {
	if len(children) == 1 {
		return children[0]
	}
	flat := make([]Expression, 0, len(children))
	var cols []Column
	for _, c := range children {
		if t, ok := c.(thenExpr); ok {
			flat = append(flat, t.children...)
		} else {
			flat = append(flat, c)
		}
		cols = append(cols, c.Columns()...)
	}
	return thenExpr{children: flat, cols: cols}
}

func (e thenExpr) ColumnCount() int {
	n := 0
	for _, c := range e.children {
		n += c.ColumnCount()
	}
	return n
}

func (e thenExpr) Columns() []Column { return e.cols }

func (e thenExpr) String() string {
	parts := make([]string, len(e.children))
	for i, c := range e.children {
		parts[i] = c.String()
	}
	return "concat(" + strings.Join(parts, ",") + ")"
}

func (e thenExpr) Evaluate(ctx *Context) ([]tuple.Tuple, error) {
	acc := []tuple.Tuple{{}}
	for _, c := range e.children {
		ts, err := c.Evaluate(ctx)
		if err != nil {
			return nil, err
		}
		next := make([]tuple.Tuple, 0, len(acc)*len(ts))
		for _, a := range acc {
			for _, t := range ts {
				next = append(next, a.Append(t...))
			}
		}
		acc = next
	}
	return acc, nil
}

// ---------------------------------------------------------------- grouping

// GroupingExpression divides an index key into grouping columns and grouped
// (aggregated) columns, for aggregate indexes like SUM (§7, Appendix A).
type GroupingExpression struct {
	whole   Expression
	grouped int // trailing columns that are aggregated
}

// GroupBy builds a grouping where value's columns are aggregated within each
// distinct combination of groupKeys' columns.
func GroupBy(value Expression, groupKeys ...Expression) GroupingExpression {
	whole := Then(append(append([]Expression{}, groupKeys...), value)...)
	return GroupingExpression{whole: whole, grouped: value.ColumnCount()}
}

// Ungrouped aggregates over the entire record store (no group keys).
func Ungrouped(value Expression) GroupingExpression {
	return GroupingExpression{whole: value, grouped: value.ColumnCount()}
}

// Evaluate evaluates the full expression.
func (e GroupingExpression) Evaluate(ctx *Context) ([]tuple.Tuple, error) {
	return e.whole.Evaluate(ctx)
}

// ColumnCount returns the total column count (group + grouped).
func (e GroupingExpression) ColumnCount() int { return e.whole.ColumnCount() }

// Columns describes all columns.
func (e GroupingExpression) Columns() []Column { return e.whole.Columns() }

// GroupedCount returns how many trailing columns are aggregated.
func (e GroupingExpression) GroupedCount() int { return e.grouped }

// GroupingCount returns how many leading columns form the group key.
func (e GroupingExpression) GroupingCount() int { return e.ColumnCount() - e.grouped }

func (e GroupingExpression) String() string {
	return fmt.Sprintf("grouping(%s,%d)", e.whole, e.grouped)
}

// Split divides an evaluated tuple into (groupKey, groupedValue).
func (e GroupingExpression) Split(t tuple.Tuple) (group, value tuple.Tuple) {
	k := e.GroupingCount()
	return t[:k], t[k:]
}

// ---------------------------------------------------------------- key-with-value

// KeyWithValueExpression splits columns between an index entry's key and its
// value, enabling covering indexes (Appendix A).
type KeyWithValueExpression struct {
	child Expression
	split int // columns in the key
}

// KeyWithValue places child's first split columns in the index key and the
// remainder in the index value.
func KeyWithValue(child Expression, split int) KeyWithValueExpression {
	return KeyWithValueExpression{child: child, split: split}
}

// Evaluate evaluates the full expression.
func (e KeyWithValueExpression) Evaluate(ctx *Context) ([]tuple.Tuple, error) {
	return e.child.Evaluate(ctx)
}

// ColumnCount returns the total column count.
func (e KeyWithValueExpression) ColumnCount() int { return e.child.ColumnCount() }

// Columns describes all columns.
func (e KeyWithValueExpression) Columns() []Column { return e.child.Columns() }

// KeyColumns returns how many leading columns belong to the index key.
func (e KeyWithValueExpression) KeyColumns() int { return e.split }

func (e KeyWithValueExpression) String() string {
	return fmt.Sprintf("keyWithValue(%s,%d)", e.child, e.split)
}

// Split divides an evaluated tuple into (key part, value part).
func (e KeyWithValueExpression) Split(t tuple.Tuple) (key, value tuple.Tuple) {
	return t[:e.split], t[e.split:]
}

// ---------------------------------------------------------------- specials

type recordTypeExpr struct{}

// RecordType produces a value unique to each record type (Appendix A); in a
// primary key it emulates per-table extents (§10.2).
func RecordType() Expression { return recordTypeExpr{} }

func (recordTypeExpr) ColumnCount() int  { return 1 }
func (recordTypeExpr) String() string    { return "recordType()" }
func (recordTypeExpr) Columns() []Column { return []Column{{Kind: ColRecordType}} }

func (recordTypeExpr) Evaluate(ctx *Context) ([]tuple.Tuple, error) {
	if ctx.RecordTypeKey == nil {
		return nil, errNoTypeKey
	}
	return []tuple.Tuple{{ctx.RecordTypeKey}}, nil
}

var errNoTypeKey = errors.New("keyexpr: no record type key in context")

type versionExpr struct{}

// Version produces the record's 12-byte commit version (§7, VERSION indexes).
func Version() Expression { return versionExpr{} }

func (versionExpr) ColumnCount() int  { return 1 }
func (versionExpr) String() string    { return "version()" }
func (versionExpr) Columns() []Column { return []Column{{Kind: ColVersion}} }

func (versionExpr) Evaluate(ctx *Context) ([]tuple.Tuple, error) {
	if !ctx.HasVersion {
		// The version is assigned at commit: emit an incomplete stamp
		// (carrying the record's user version) that the index maintainer
		// completes via a versionstamped key.
		return []tuple.Tuple{{tuple.IncompleteVersionstamp(ctx.PendingUserVersion)}}, nil
	}
	return []tuple.Tuple{{ctx.Version}}, nil
}

type literalExpr struct {
	value interface{}
}

// Literal produces a constant column.
func Literal(v interface{}) Expression { return literalExpr{value: v} }

func (e literalExpr) ColumnCount() int  { return 1 }
func (e literalExpr) String() string    { return fmt.Sprintf("literal(%v)", e.value) }
func (e literalExpr) Columns() []Column { return []Column{{Kind: ColLiteral, Literal: e.value}} }

func (e literalExpr) Evaluate(*Context) ([]tuple.Tuple, error) {
	return []tuple.Tuple{{e.value}}, nil
}

type emptyExpr struct{}

// Empty produces a single empty tuple (zero columns); the key expression for
// ungrouped COUNT indexes.
func Empty() Expression { return emptyExpr{} }

func (emptyExpr) ColumnCount() int  { return 0 }
func (emptyExpr) String() string    { return "empty()" }
func (emptyExpr) Columns() []Column { return nil }

func (emptyExpr) Evaluate(*Context) ([]tuple.Tuple, error) {
	return []tuple.Tuple{{}}, nil
}
