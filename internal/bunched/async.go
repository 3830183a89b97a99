package bunched

import (
	"bytes"
	"slices"

	"recordlayer/internal/fdb"
	"recordlayer/internal/overlay"
	"recordlayer/internal/tuple"
)

// Async pipelines bunched-map mutations over one transaction: IssueInsert and
// IssueDelete send the boundary reads an operation needs — the locate scan,
// and for inserts the forward neighbor scan — without awaiting any, and the
// returned Op applies the rewrite later. A text-heavy save's token updates
// issue all their boundary reads in one latency window instead of one per
// token.
//
// A boundary read sees the transaction as of its issue, not the bunches
// rewritten by ops applied since. Every Async write therefore goes through an
// overlay.Overlay, which remembers the latest value of each physical key
// written and corrects each boundary read against it at apply time (see that
// package, also under rankedset.Async). Ops must be applied in issue order.
type Async struct {
	m  *Map
	tr *fdb.Transaction
	ov *overlay.Overlay
}

// Async creates a pipelining view of the map over one transaction. Every
// mutation of the map's subspace in this transaction must go through it for
// boundary reads to resolve exactly.
func (m *Map) Async(tr *fdb.Transaction) *Async {
	return &Async{m: m, tr: tr, ov: overlay.New(tr)}
}

// Op is one issued-but-unapplied mutation. Its keys are packed at issue into
// one buffer, key: logical = (token, pk) and a 0x00, so that after = logical +
// 0x00 is the same bytes one longer; for inserts the entry's offsets as a
// bunch value holds them; then the token's range [begin, end). pk, the suffix
// of logical after the token, is also as a bunch value holds it. Every slice
// the accessors hand out is clipped to its length, so appending to one
// copies.
type Op struct {
	a      *Async
	insert bool
	seq    int
	key    []byte
	// logical is key[:n], pk key[tok:n], the offsets key[n+1:off], begin
	// key[off:off+tok+1] and end the rest.
	n, tok, off  int
	locate, next *fdb.FutureRange
}

func (op *Op) logical() []byte { return op.key[:op.n:op.n] }
func (op *Op) after() []byte   { return op.key[: op.n+1 : op.n+1] }
func (op *Op) pk() []byte      { return op.key[op.tok:op.n:op.n] }
func (op *Op) offsets() []byte { return op.key[op.n+1 : op.off : op.off] }
func (op *Op) begin() []byte   { return op.key[op.off : op.off+op.tok+1 : op.off+op.tok+1] }
func (op *Op) end() []byte     { return op.key[op.off+op.tok+1:] }

// IssueInsert appends to ops an insert/upsert of (token, pk) -> offsets and
// sends its boundary scans: the locate scan a delete issues and then the
// neighbor scan. The neighbor read is consumed only on the spill path, but
// issuing it up front keeps the op at one latency window. The spill entry's
// primary key is always >= pk and below the next bunch's anchor, so the one
// neighbor scan serves either spill shape. A caller issuing many ops holds
// them in one slice.
func (a *Async) IssueInsert(ops []Op, token string, pk tuple.Tuple, offsets []int64) []Op {
	return a.issue(ops, token, pk, offsets, true)
}

// IssueDelete appends to ops a delete of (token, pk); only the locate scan is
// needed.
func (a *Async) IssueDelete(ops []Op, token string, pk tuple.Tuple) []Op {
	return a.issue(ops, token, pk, nil, false)
}

func (a *Async) issue(ops []Op, token string, pk tuple.Tuple, offsets []int64, insert bool) []Op {
	// Pack logical, its successor byte and the offsets on the stack, then
	// copy them and the token's bounds into the op's one buffer.
	var stack [256]byte
	body := tuple.AppendString(append(stack[:0], a.m.space.Bytes()...), token)
	tok := len(body) // logical[:tok] is the token's bounds' common prefix
	body = tuple.AppendNested(body, pk)
	n := len(body)
	body = append(body, 0x00)
	if insert {
		body = append(body, codeNested)
		for _, o := range offsets {
			body = tuple.AppendInt64(body, o)
		}
		body = append(body, 0x00)
	}
	key := make([]byte, len(body)+2*(tok+1))
	off := copy(key, body)
	copy(key[off:], body[:tok])
	copy(key[off+tok+1:], body[:tok])
	key[len(key)-1] = 0xFF
	ops = append(ops, Op{a: a, insert: insert, seq: a.ov.Issue(), key: key, n: n, tok: tok, off: off})
	op := &ops[len(ops)-1]
	op.locate = a.tr.GetRangeAsync(op.begin(), op.after(), fdb.RangeOptions{Limit: 1, Reverse: true})
	if insert {
		op.next = a.tr.GetRangeAsync(op.after(), op.end(), fdb.RangeOptions{Limit: 1})
	}
	return ops
}

// boundary resolves one Limit-1 scan over [begin, end) to the physical pair a
// serial read at apply time would have returned.
func (op *Op) boundary(fut *fdb.FutureRange, begin, end []byte, reverse bool) (fdb.KeyValue, bool, error) {
	return op.a.ov.Boundary(fut, begin, end, reverse, false)
}

// Apply completes the op. For inserts the boolean result is always true; for
// deletes it reports whether (token, pk) was present.
func (op *Op) Apply() (bool, error) {
	if err := op.a.ov.Turn(op.seq); err != nil {
		return false, err
	}
	if op.insert {
		return true, op.applyInsert()
	}
	return op.applyDelete()
}

// bunch is a pair of the op's token walked as bytes. Its n entries are the
// anchor pk (the key's suffix after the token) with the offsets opening the
// value, then (pk, offsets) pairs; positions index the value. at is where
// the op's pk sorts: the first entry whose pk is >= it (0 is the anchor), or
// len(value). found says that pk is the op's; pkLen and offLen measure it.
// The last entry's pk starts at last and its offsets at lastOffsets.
type bunch struct {
	anchor               []byte
	n, at, pkLen, offLen int
	last, lastOffsets    int
	found                bool
}

// walk checks the shape of a pair in the op's token range, element by
// element, and finds where the op's pk sorts in it.
func (op *Op) walk(kv fdb.KeyValue) (b bunch, err error) {
	v := kv.Value
	b.anchor, b.at = kv.Key[op.tok:], -1
	if nestedLen(b.anchor) != len(b.anchor) {
		return b, malformed(kv.Key)
	}
	for pos, pl := 0, 0; b.n == 0 || pos < len(v); b.n++ {
		pk := b.anchor
		if pos > 0 {
			pl = nestedLen(v[pos:])
			pk = v[pos : pos+pl]
		}
		ol := offsetsLen(v[pos+pl:])
		if len(pk) == 0 || ol == 0 {
			return b, malformed(kv.Key)
		}
		if b.at < 0 && bytes.Compare(pk, op.pk()) >= 0 {
			b.at, b.found, b.pkLen, b.offLen = pos, bytes.Equal(pk, op.pk()), pl, ol
		}
		b.last, b.lastOffsets = pos, pos+pl
		pos += pl + ol
	}
	if b.at < 0 {
		b.at = len(v)
	}
	return b, nil
}

// Tuple type codes: a nested tuple, and integer zero (0x0c..0x13 code the
// negative integers by byte length, 0x15..0x1c the positive ones).
const codeNested, codeIntZero = 0x05, 0x14

// nestedLen returns the length of the nested tuple opening b, 0 if none does.
func nestedLen(b []byte) int {
	if n, err := tuple.ElementLen(b); err == nil && b[0] == codeNested {
		return n
	}
	return 0
}

// offsetsLen returns the length of the offset list opening b, a nested tuple
// of integers that fit an int64, or 0 if none does.
func offsetsLen(b []byte) int {
	for i := 1; len(b) > 0 && b[0] == codeNested && i < len(b); {
		if b[i] == 0x00 {
			return i + 1
		}
		c := int(b[i]) - codeIntZero
		n := max(c, -c)
		if n > 8 || i+n >= len(b) || c == 8 && b[i+1] >= 0x80 {
			return 0
		}
		i += 1 + n
	}
	return 0
}

// keyFor is the physical key of a bunch anchored at the encoded pk.
func (op *Op) keyFor(pk []byte) []byte {
	return slices.Concat(op.key[:op.tok], pk)
}

func (op *Op) applyInsert() error {
	a := op.a
	loc, ok, err := op.boundary(op.locate, op.begin(), op.after(), true)
	if err != nil {
		return err
	}
	if !ok {
		return op.applySpill(op.logical(), op.offsets())
	}
	b, err := op.walk(loc)
	if err != nil {
		return err
	}
	v := loc.Value
	if b.found {
		p := b.at + b.pkLen
		return a.ov.Set(loc.Key, slices.Concat(v[:p], op.offsets(), v[p+b.offLen:]))
	}
	if b.n < a.m.bunchSize {
		return a.ov.Set(loc.Key, slices.Concat(v[:b.at], op.pk(), op.offsets(), v[b.at:]))
	}
	// Overflow: evict the biggest primary key, then absorb the neighbor
	// bunch when the result fits. When the new entry sorts last it is the
	// one evicted, and the bunch is written back unchanged.
	kept, key, offsets := v, op.logical(), op.offsets()
	if b.at < len(v) {
		kept = slices.Concat(v[:b.at], op.pk(), op.offsets(), v[b.at:b.last])
		key, offsets = op.keyFor(v[b.last:b.lastOffsets]), v[b.lastOffsets:]
	}
	if err := a.ov.Set(loc.Key, kept); err != nil {
		return err
	}
	return op.applySpill(key, offsets)
}

// applySpill writes the entry key -> offsets as a new bunch, merging the
// following bunch into it when the combination fits — insertSpill resolved
// through the pipeline.
func (op *Op) applySpill(key, offsets []byte) error {
	a := op.a
	nbr, ok, err := op.boundary(op.next, op.after(), op.end(), false)
	if err != nil {
		return err
	}
	value := offsets
	if ok {
		b, err := op.walk(nbr)
		if err != nil {
			return err
		}
		if b.n+1 <= a.m.bunchSize {
			if err := a.ov.Clear(nbr.Key); err != nil {
				return err
			}
			value = slices.Concat(offsets, b.anchor, nbr.Value)
		}
	}
	return a.ov.Set(key, value)
}

func (op *Op) applyDelete() (bool, error) {
	a := op.a
	loc, ok, err := op.boundary(op.locate, op.begin(), op.after(), true)
	if err != nil || !ok {
		return false, err
	}
	b, err := op.walk(loc)
	if err != nil || !b.found {
		return false, err
	}
	if b.n == 1 {
		return true, a.ov.Clear(loc.Key)
	}
	v := loc.Value
	if b.at == 0 {
		// The bunch's key carried this primary key: re-anchor at the next,
		// whose pk follows the deleted offsets.
		pl := nestedLen(v[b.offLen:])
		if err := a.ov.Clear(loc.Key); err != nil {
			return false, err
		}
		return true, a.ov.Set(op.keyFor(v[b.offLen:b.offLen+pl]), v[b.offLen+pl:])
	}
	return true, a.ov.Set(loc.Key, slices.Concat(v[:b.at], v[b.at+b.pkLen+b.offLen:]))
}
