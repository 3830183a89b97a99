package keyexpr

import (
	"bytes"
	"errors"

	"recordlayer/internal/message"
	"recordlayer/internal/tuple"
)

// Packer builds an expression's keys straight from a record: each key is the
// tuple encoding of one tuple Evaluate returns, appended to a caller-owned
// buffer with no boxed tuple in between. Compile it once per expression; the
// metadata compiles one per index and per record type when it is built or
// decoded. For every record its keys equal Pack(Evaluate(…)) byte for byte
// and in order, and it fails exactly where Evaluate fails.
type Packer struct {
	steps []step
	// split is how many leading columns lie before the split point:
	// GroupingCount for a grouping, KeyColumns for a KeyWithValue; -1 when
	// the expression has none.
	split int
}

type stepKind uint8

const (
	stepField stepKind = iota
	stepNest
	stepRecordType
	stepVersion
	stepLiteral
	stepEval // a function, or an Expression from outside this package
)

// step is one factor of a Cartesian product: the Then children of an
// expression, flattened. Each yields zero or more fragments of cols columns.
type step struct {
	kind  stepKind
	name  string
	fan   FanType
	cols  int
	child []step      // stepNest: the nested product
	value interface{} // stepLiteral
	expr  Expression  // stepEval
}

// Compile compiles e into a Packer.
func Compile(e Expression) *Packer {
	p := &Packer{steps: compile(e, nil), split: -1}
	switch x := e.(type) {
	case GroupingExpression:
		p.split = x.GroupingCount()
	case KeyWithValueExpression:
		p.split = x.KeyColumns()
	}
	return p
}

// compile appends e's product factors to out. A product is associative and
// Evaluate visits Then's children depth first, so flattening keeps both the
// keys and the order in which errors are met.
func compile(e Expression, out []step) []step {
	switch x := e.(type) {
	case thenExpr:
		for _, c := range x.children {
			out = compile(c, out)
		}
		return out
	case GroupingExpression:
		return compile(x.whole, out)
	case KeyWithValueExpression:
		return compile(x.child, out)
	case emptyExpr:
		return out // the product's identity: one empty fragment
	case fieldExpr:
		return append(out, step{kind: stepField, name: x.name, fan: x.fan, cols: 1})
	case nestExpr:
		return append(out, step{kind: stepNest, name: x.name, fan: x.fan, cols: x.ColumnCount(), child: compile(x.child, nil)})
	case recordTypeExpr:
		return append(out, step{kind: stepRecordType, cols: 1})
	case versionExpr:
		return append(out, step{kind: stepVersion, cols: 1})
	case literalExpr:
		return append(out, step{kind: stepLiteral, value: x.value, cols: 1})
	}
	return append(out, step{kind: stepEval, expr: e, cols: e.ColumnCount()})
}

// KeySpan locates one key, or one fragment of a key while it is being built,
// in a Keys' buffer. Callers only declare arrays of them, as a Keys' first
// storage.
type KeySpan struct {
	start, end int32
	// split is where the columns after the split point start; end when the
	// packer has no split.
	split int32
	// stamp is where an incomplete versionstamp's 10-byte placeholder starts,
	// -1 when there is none, and severalStamps when there are more.
	stamp int32
	// wide has bit i set when column i (i < 64) holds an integer whose type
	// is not int64: its encoding is an int64's, but Evaluate returns it as
	// another type. Columns count from the fragment's first, and once Pack
	// returns, from the split point.
	wide uint64
}

const severalStamps = -2

// Keys holds the keys Pack built, back to back in one buffer. It is a value:
// Pack takes one and returns it extended, so a caller that starts it on stack
// arrays (NewKeys) builds a record's keys with no allocation at all.
type Keys struct {
	buf   []byte
	spans []KeySpan
}

// NewKeys returns an empty Keys that fills buf and spans first, and grows past
// them onto the heap.
func NewKeys(buf []byte, spans []KeySpan) Keys { return Keys{buf: buf[:0], spans: spans[:0]} }

// Len returns how many keys k holds.
func (k Keys) Len() int { return len(k.spans) }

// Key returns key i, every column of it.
func (k Keys) Key(i int) []byte {
	s := k.spans[i]
	return k.buf[s.start:s.end:s.end]
}

// Head returns key i's columns before the packer's split point: the group of
// a grouping, the key columns of a KeyWithValue, the whole key otherwise.
func (k Keys) Head(i int) []byte {
	s := k.spans[i]
	return k.buf[s.start:s.split:s.split]
}

// Tail returns key i's columns after the split point: the grouped columns,
// the covering value columns, or nothing.
func (k Keys) Tail(i int) []byte {
	s := k.spans[i]
	return k.buf[s.split:s.end:s.end]
}

// Has reports whether k holds key, compared whole.
func (k Keys) Has(key []byte) bool {
	for i := range k.spans {
		if bytes.Equal(k.Key(i), key) {
			return true
		}
	}
	return false
}

// TailInt64 returns key i's one column after the split point as an int64,
// and whether Evaluate returns it as one: an integer of another type (a
// uint64 field, say) packs alike but reports false.
func (k Keys) TailInt64(i int) (int64, bool) {
	if k.spans[i].wide&1 != 0 {
		return 0, false
	}
	tail := k.Tail(i)
	v, n, ok := tuple.Int64At(tail)
	return v, ok && n == len(tail)
}

// ErrSeveralStamps is Incomplete's error for a key holding more than one
// incomplete versionstamp, which no versionstamped key can complete.
var ErrSeveralStamps = errors.New("tuple: multiple incomplete versionstamps")

// Incomplete returns where in Key(i) an incomplete versionstamp's 10-byte
// placeholder starts, or -1 when the key holds none.
func (k Keys) Incomplete(i int) (int, error) {
	s := k.spans[i]
	switch {
	case s.stamp == severalStamps:
		return 0, ErrSeveralStamps
	case s.stamp < 0:
		return -1, nil
	}
	return int(s.stamp - s.start), nil
}

// Pack appends the record's keys to k, in Evaluate's order. ctx is read
// during the call only.
func (p *Packer) Pack(k Keys, ctx *Context) (Keys, error) {
	base := len(k.spans)
	k, err := p.product(k, p.steps, ctx, ctx.Message)
	if err != nil {
		return k, err
	}
	for i := base; i < len(k.spans); i++ {
		s := &k.spans[i]
		s.split = s.end
		if p.split < 0 {
			continue
		}
		at := int(s.start)
		for c := 0; c < p.split && at < int(s.end); c++ {
			n, _ := tuple.ElementLen(k.buf[at:s.end]) // the packer's own encoding
			at += n
		}
		s.split = int32(at)
		if p.split < 64 {
			s.wide >>= p.split
		} else {
			s.wide = 0
		}
	}
	return k, nil
}

// product appends the fragments of steps' Cartesian product over m to k,
// first step slowest, as Then's Evaluate orders them. Every step is evaluated
// even after one yields nothing, since Evaluate's are.
//
// A step that yields one fragment right after another factor's one fragment
// joins that factor in place, so a product of scalars is one run of bytes
// from the start, and takes one span. Only factors that yield other counts
// are kept apart and combined by copying, at the end.
func (p *Packer) product(k Keys, steps []step, ctx *Context, m *message.Message) (Keys, error) {
	base := len(k.spans)
	if len(steps) == 0 {
		k.spans = append(k.spans, KeySpan{start: int32(len(k.buf)), end: int32(len(k.buf)), stamp: -1})
		return k, nil
	}
	// Factor f's fragments are k.spans[bounds[f]:bounds[f+1]], each of
	// cols[f] columns.
	var boundsStack, colsStack [8]int
	bounds, cols := boundsStack[:0], colsStack[:0]
	if len(steps) >= len(boundsStack) {
		bounds, cols = make([]int, 0, len(steps)+1), make([]int, 0, len(steps))
	}
	var err error
	for i := range steps {
		st := &steps[i]
		from := len(k.spans)
		if st.kind != stepNest {
			if k, err = leaf(k, st, ctx, m); err != nil {
				return k, err
			}
		} else {
			// A nest recurses here, not in a helper: the compiler keeps k's
			// arrays on the caller's stack through a function that calls
			// itself, not through two that call each other.
			one, sub, elems, err := nested(m, st.name, st.fan)
			if err != nil {
				return k, err
			}
			if one {
				elems = nil
				if k, err = p.product(k, st.child, ctx, sub); err != nil {
					return k, err
				}
			}
			for _, e := range elems {
				if k, err = p.product(k, st.child, ctx, e.(*message.Message)); err != nil {
					return k, err
				}
			}
		}
		if f := len(bounds) - 1; f >= 0 && bounds[f] == from-1 && len(k.spans) == from+1 && k.spans[from-1].end == k.spans[from].start {
			prev, next := &k.spans[from-1], k.spans[from]
			prev.end, prev.stamp = next.end, mergeStamp(prev.stamp, next.stamp)
			prev.wide |= shiftWide(next.wide, cols[f])
			cols[f] += st.cols
			k.spans = k.spans[:from]
			continue
		}
		bounds, cols = append(bounds, from), append(cols, st.cols)
	}
	if len(bounds) == 1 {
		return k, nil
	}
	bounds = append(bounds, len(k.spans))
	total := 1
	for f := range cols {
		total *= bounds[f+1] - bounds[f]
	}
	out := len(k.spans)
	var odometer [8]int
	idx := odometer[:]
	if len(cols) > len(odometer) {
		idx = make([]int, len(cols))
	}
	for ; total > 0; total-- {
		key := KeySpan{start: int32(len(k.buf)), stamp: -1}
		shift := 0
		for f := range cols {
			frag := k.spans[bounds[f]+idx[f]]
			if frag.stamp >= 0 {
				frag.stamp += int32(len(k.buf)) - frag.start
			}
			key.stamp = mergeStamp(key.stamp, frag.stamp)
			key.wide |= shiftWide(frag.wide, shift)
			shift += cols[f]
			k.buf = append(k.buf, k.buf[frag.start:frag.end]...)
		}
		key.end = int32(len(k.buf))
		k.spans = append(k.spans, key)
		for f := len(cols) - 1; f >= 0; f-- {
			if idx[f]++; idx[f] < bounds[f+1]-bounds[f] {
				break
			}
			idx[f] = 0
		}
	}
	n := copy(k.spans[base:], k.spans[out:])
	k.spans = k.spans[:base+n]
	return k, nil
}

func mergeStamp(a, b int32) int32 {
	switch {
	case a == -1:
		return b
	case b == -1:
		return a
	}
	return severalStamps
}

func shiftWide(w uint64, cols int) uint64 {
	if cols >= 64 {
		return 0
	}
	return w << cols
}

// leaf appends the fragments over m of a factor that is not a nest to k.
func leaf(k Keys, st *step, ctx *Context, m *message.Message) (Keys, error) {
	switch st.kind {
	case stepField:
		return packField(k, m, st.name, st.fan)
	case stepRecordType:
		if ctx.RecordTypeKey == nil {
			return k, errNoTypeKey
		}
		return k.element(ctx.RecordTypeKey)
	case stepVersion:
		v := ctx.Version
		if !ctx.HasVersion {
			v = tuple.IncompleteVersionstamp(ctx.PendingUserVersion)
		}
		s := KeySpan{start: int32(len(k.buf)), stamp: -1}
		var off int
		k.buf, off = tuple.AppendVersionstamp(k.buf, v)
		if !v.Complete() { // a record saved earlier in this transaction has one too
			s.stamp = int32(off)
		}
		s.end = int32(len(k.buf))
		k.spans = append(k.spans, s)
		return k, nil
	case stepLiteral:
		return k.element(st.value)
	}
	return evaluate(k, st, ctx, m)
}

// evaluate is a function's step, or a foreign expression's: call it over m,
// and pack what it returns. It is given a copy of the context, so the
// caller's stays the caller's (and on its stack).
func evaluate(k Keys, st *step, ctx *Context, m *message.Message) (Keys, error) {
	sub := *ctx
	sub.Message = m
	ts, err := st.expr.Evaluate(&sub)
	if err != nil {
		return k, err
	}
	for _, t := range ts {
		s := KeySpan{start: int32(len(k.buf)), stamp: -1}
		for c, e := range t {
			stamp := -1
			if k.buf, err = tuple.AppendElement(k.buf, e, &stamp); err != nil {
				return k, err
			}
			if stamp >= 0 {
				s.stamp = mergeStamp(s.stamp, int32(stamp))
			}
			if c < 64 && wideInt(e) {
				s.wide |= 1 << c
			}
		}
		s.end = int32(len(k.buf))
		k.spans = append(k.spans, s)
	}
	return k, nil
}

// element appends one fragment holding the single column v.
func (k Keys) element(v interface{}) (Keys, error) {
	s := KeySpan{start: int32(len(k.buf)), stamp: -1}
	stamp := -1
	var err error
	if k.buf, err = tuple.AppendElement(k.buf, v, &stamp); err != nil {
		return k, err
	}
	if stamp >= 0 {
		s.stamp = int32(stamp)
	}
	if wideInt(v) {
		s.wide = 1
	}
	s.end = int32(len(k.buf))
	k.spans = append(k.spans, s)
	return k, nil
}

// wideInt reports an integer that packs as an int64 does but is not one.
func wideInt(v interface{}) bool {
	switch v.(type) {
	case int, int8, int16, int32, uint, uint8, uint16, uint32, uint64:
		return true
	}
	return false
}

// packField is evalField on bytes: the same fragments, the same errors.
func packField(k Keys, m *message.Message, name string, fan FanType) (Keys, error) {
	v, vals, err := fieldValues(m, name, fan)
	if err != nil {
		return k, err
	}
	switch fan {
	case FanOut:
		for _, v := range vals {
			if k, err = k.element(v); err != nil {
				return k, err
			}
		}
		return k, nil
	case FanConcatenate:
		buf, err := tuple.AppendNestedElements(k.buf, vals, nil)
		if err != nil {
			return k, err
		}
		return k.fragment(buf), nil
	}
	return k.element(v)
}

// fragment records buf's bytes past k's as one fragment.
func (k Keys) fragment(buf []byte) Keys {
	k.spans = append(k.spans, KeySpan{start: int32(len(k.buf)), end: int32(len(buf)), stamp: -1})
	k.buf = buf
	return k
}
