package query

import (
	"fmt"
	"strconv"

	"recordlayer/internal/message"
)

// Param is a slot: a comparison operand a query's shape leaves open, filled
// at execution from the query's bindings. Param(i) stands for binding i. A
// shape is planned once and its plan serves every literal of the shape — the
// paper's "SQL PREPARE" idiom (Appendix C).
type Param int

// String renders a slot as "?", in shapes and in the ranges planned from them.
func (p Param) String() string { return "?" }

// Bindings are a query's comparison operands in walk order — depth first,
// children in order — one per slot: every comparison but IsNull and NotNull
// has one, and a OneOf list is one slot holding its []interface{}.
type Bindings []interface{}

// Value returns v, or the binding it stands for when v is a Param.
func (b Bindings) Value(v interface{}) (interface{}, error) {
	if p, ok := v.(Param); ok {
		return b.at(p)
	}
	return v, nil
}

func (b Bindings) at(p Param) (interface{}, error) {
	if int(p) < 0 || int(p) >= len(b) {
		return nil, fmt.Errorf("query: slot %d has no binding (%d bound)", int(p), len(b))
	}
	return b[p], nil
}

// EvalBound evaluates c against a record with its slots filled from b. A
// component holding no Param evaluates as its Eval does.
func EvalBound(c Component, msg *message.Message, b Bindings) (bool, error) {
	switch x := c.(type) {
	case *FieldComponent:
		return x.eval(msg, b)
	case *AndComponent:
		for _, ch := range x.Children {
			ok, err := EvalBound(ch, msg, b)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case *OrComponent:
		for _, ch := range x.Children {
			ok, err := EvalBound(ch, msg, b)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	case *NotComponent:
		ok, err := EvalBound(x.Child, msg, b)
		return !ok, err
	}
	return c.Eval(msg)
}

// Format renders c with its slots filled from b, as String renders the
// component the literals were taken from.
func Format(c Component, b Bindings) string {
	out, _ := appendComponent(nil, c, b, false)
	return string(out)
}

// AppendShape appends the canonical rendering of q's shape to key — String's
// text with "?" in every slot, so two queries differing only in their
// literals share it — and q's operands to b in walk order.
func (q RecordQuery) AppendShape(key []byte, b Bindings) ([]byte, Bindings) {
	return appendQuery(key, q, b, true)
}

// Shape returns q with every comparison operand replaced by its slot, and the
// operands it replaced: the query a shape's plan is planned from.
func (q RecordQuery) Shape() (RecordQuery, Bindings) {
	var b Bindings
	q.Filter = parameterize(q.Filter, &b)
	return q, b
}

func parameterize(c Component, b *Bindings) Component {
	switch x := c.(type) {
	case *FieldComponent:
		if !x.hasSlot() {
			return x
		}
		p := *x
		*b = append(*b, slotOperand(x))
		p.Operand, p.List = Param(len(*b)-1), nil
		return &p
	case *AndComponent:
		return &AndComponent{Children: parameterizeAll(x.Children, b)}
	case *OrComponent:
		return &OrComponent{Children: parameterizeAll(x.Children, b)}
	case *NotComponent:
		return &NotComponent{Child: parameterize(x.Child, b)}
	}
	return c
}

func parameterizeAll(children []Component, b *Bindings) []Component {
	out := make([]Component, len(children))
	for i, ch := range children {
		out[i] = parameterize(ch, b)
	}
	return out
}

// slotOperand is what c's slot binds: its In list, or its operand.
func slotOperand(c *FieldComponent) interface{} {
	if c.Op == In {
		return c.List
	}
	return c.Operand
}

// appendQuery appends q's rendering to dst, as appendComponent renders its
// filter.
func appendQuery(dst []byte, q RecordQuery, b Bindings, shape bool) ([]byte, Bindings) {
	dst = append(dst, "query(types="...)
	if len(q.RecordTypes) > 0 {
		dst = appendNames(dst, q.RecordTypes)
	} else {
		dst = append(dst, '*')
	}
	if q.Filter != nil {
		dst, b = appendComponent(append(dst, ", filter="...), q.Filter, b, shape)
	}
	if q.Sort != nil {
		dst = append(append(dst, ", sort="...), q.Sort.String()...)
		dst = strconv.AppendBool(append(dst, " reverse="...), q.SortReverse)
	}
	if len(q.Projection) > 0 {
		// Rendered so plan-cache keys distinguish projected queries: the
		// same filter plans differently with and without a projection.
		dst = appendNames(append(dst, ", select="...), q.Projection)
	}
	return append(dst, ')'), b
}

// appendNames renders names as %v renders a []string.
func appendNames(dst []byte, names []string) []byte {
	dst = append(dst, '[')
	for i, n := range names {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, n...)
	}
	return append(dst, ']')
}

// appendComponent appends c's rendering to dst. Rendering a shape, it writes
// every operand as "?" and appends it to b; otherwise it writes each operand
// with %v, a Param filled from b, or "?" when b has no such binding. It walks
// the tree with a stack of its own rather than by recursion, which would move
// a caller's buffers to the heap.
func appendComponent(dst []byte, c Component, b Bindings, shape bool) ([]byte, Bindings) {
	type item struct {
		c Component // rendered when non-nil
		s string    // written when c is nil
	}
	var stack [16]item
	todo := append(stack[:0], item{c: c})
	for len(todo) > 0 {
		it := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		var children []Component
		sep := ""
		switch x := it.c.(type) {
		case nil:
			dst = append(dst, it.s...)
		case *FieldComponent:
			dst, b = appendField(dst, x, b, shape)
		case *AndComponent:
			children, sep = x.Children, " AND "
		case *OrComponent:
			children, sep = x.Children, " OR "
		case *NotComponent:
			dst = append(dst, "NOT "...)
			todo = append(todo, item{c: x.Child})
		default:
			dst = append(dst, x.String()...)
		}
		if sep == "" {
			continue
		}
		// "(" now; the children, separated, then ")" from the stack.
		dst = append(dst, '(')
		todo = append(todo, item{s: ")"})
		for i := len(children) - 1; i >= 0; i-- {
			todo = append(todo, item{c: children[i]})
			if i > 0 {
				todo = append(todo, item{s: sep})
			}
		}
	}
	return dst, b
}

func appendField(dst []byte, c *FieldComponent, b Bindings, shape bool) ([]byte, Bindings) {
	if c.anyOf {
		dst = append(dst, "any("...)
	}
	for i, name := range c.path {
		if i > 0 {
			dst = append(dst, '.')
		}
		dst = append(dst, name...)
	}
	if c.anyOf {
		dst = append(dst, ')')
	}
	dst = append(append(dst, ' '), c.Op.String()...)
	if !c.hasSlot() {
		return dst, b
	}
	dst = append(dst, ' ')
	if shape {
		return append(dst, '?'), append(b, slotOperand(c))
	}
	operand, list, err := c.operands(b)
	switch {
	case err != nil:
		return append(dst, '?'), b
	case c.Op == In:
		return fmt.Appendf(dst, "%v", list), b
	}
	return fmt.Appendf(dst, "%v", operand), b
}
