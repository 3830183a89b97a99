package plan

import (
	"fmt"

	"recordlayer/internal/core"
	"recordlayer/internal/cursor"
	"recordlayer/internal/index"
	"recordlayer/internal/query"
	"recordlayer/internal/tuple"
)

// Bound is a shape's plan bound to one query's literals: what Planner.Plan
// returns. The shape is planned once (PlanShape) and serves every literal of
// its query shape; the bindings fill its index ranges and residual filters
// when it executes, and its rendering is the plan the literals would have
// been planned to.
type Bound struct {
	Shape    Plan
	Bindings query.Bindings
}

// Bind binds a shape's plan to a query's literals (RecordQuery.Shape or
// AppendShape).
func Bind(shape Plan, b query.Bindings) *Bound { return &Bound{Shape: shape, Bindings: b} }

// Execute implements Plan.
func (p *Bound) Execute(s *core.Store, opts ExecuteOptions) (cursor.Cursor[*core.StoredRecord], error) {
	opts.bindings = p.Bindings
	return p.Shape.Execute(s, opts)
}

// OrderedByPrimaryKey implements Plan.
func (p *Bound) OrderedByPrimaryKey() bool { return p.Shape.OrderedByPrimaryKey() }

// String implements Plan.
func (p *Bound) String() string { return describe(p.Shape, p.Bindings, true) }

// Label implements Plan.
func (p *Bound) Label() string { return describe(p.Shape, p.Bindings, false) }

// describer is a plan node that renders itself with its slots filled.
type describer interface {
	describe(b query.Bindings, deep bool) string
}

// describe renders p with its slots filled from b: the whole tree, as String
// does, or with deep false the node alone, as Label does. A slot b does not
// fill renders as "?".
func describe(p Plan, b query.Bindings, deep bool) string {
	if d, ok := p.(describer); ok {
		return d.describe(b, deep)
	}
	if deep {
		return p.String()
	}
	return p.Label()
}

// successor is the high bound of a StartsWith range: the least string above
// every string with the prefix Of stands for.
type successor struct{ Of interface{} }

func (s successor) String() string { return fmt.Sprintf("next(%v)", s.Of) }

// bindRange fills r's slots from b. A range holding none is returned as is.
// A prefix with no successor ("" or all 0xFF bytes) leaves the high bound at
// the elements before it, inclusive.
func bindRange(r index.TupleRange, b query.Bindings) (index.TupleRange, error) {
	low, _, err := bindTuple(r.Low, b)
	if err != nil {
		return r, err
	}
	high, open, err := bindTuple(r.High, b)
	if err != nil {
		return r, err
	}
	r.Low, r.High = low, high
	if open {
		r.HighInclusive = true
		if len(high) == 0 {
			r.High = nil
		}
	}
	return r, nil
}

func hasSlot(t tuple.Tuple) bool {
	for _, e := range t {
		switch e.(type) {
		case query.Param, successor:
			return true
		}
	}
	return false
}

// bindTuple returns t with its slots filled from b, t itself when it holds
// none. A successor, always last, becomes the prefix's successor, or when it
// has none is dropped and open reported.
func bindTuple(t tuple.Tuple, b query.Bindings) (bound tuple.Tuple, open bool, err error) {
	if !hasSlot(t) {
		return t, false, nil
	}
	bound = make(tuple.Tuple, len(t))
	for i, e := range t {
		s, ok := e.(successor)
		if !ok {
			if bound[i], err = b.Value(e); err != nil {
				return nil, false, err
			}
			continue
		}
		v, err := b.Value(s.Of)
		if err != nil {
			return nil, false, err
		}
		prefix, ok := v.(string)
		if !ok {
			return nil, false, fmt.Errorf("plan: startsWith operand %T is not a string", v)
		}
		next, ok := nextString(prefix)
		if !ok {
			return bound[:i], true, nil
		}
		bound[i] = next
	}
	return bound, false, nil
}
