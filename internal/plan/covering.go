package plan

import (
	"bytes"
	"fmt"
	"sort"

	"recordlayer/internal/core"
	"recordlayer/internal/cursor"
	"recordlayer/internal/index"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/query"
	"recordlayer/internal/tuple"
)

// FieldSourceKind locates where within an index entry a record field can be
// reconstructed from.
type FieldSourceKind int

const (
	// FromIndexKey reads position Pos of the entry's key tuple.
	FromIndexKey FieldSourceKind = iota
	// FromIndexValue reads position Pos of the entry's covering value tuple
	// (the KeyWithValue columns, Appendix A).
	FromIndexValue
	// FromPrimaryKey reads position Pos of the primary key appended to the
	// entry.
	FromPrimaryKey
)

// FieldSource maps one record field onto its position in an index entry.
type FieldSource struct {
	Field string
	From  FieldSourceKind
	Pos   int
}

// CoveringIndexScanPlan answers a query from index entries alone (§6,
// Appendix A): every field the query needs — the projection plus any residual
// filter fields — is reconstructible from the entry's key tuple, its
// KeyWithValue covering values, or the appended primary key, so the plan
// synthesizes partial records without a single record-subspace read. This is
// the biggest read-amplification lever on the query hot path: a scan of N
// entries costs the index range read instead of N additional record fetches.
//
// Synthesized records carry the reconstructed fields, the record type, and
// the primary key; they have no stored version and a zero Size/SplitChunks —
// the contract Query.Select opts the caller into.
type CoveringIndexScanPlan struct {
	IndexName string
	Range     index.TupleRange
	Reverse   bool
	// FullyBound mirrors IndexScanPlan: all key columns pinned by equality.
	FullyBound bool
	// RecordType is the single record type the scanned index is typed to.
	RecordType string
	// Fields are the reconstructed fields, in deterministic order.
	Fields []FieldSource
}

// Execute implements Plan.
func (p *CoveringIndexScanPlan) Execute(s *core.Store, opts ExecuteOptions) (cursor.Cursor[*core.StoredRecord], error) {
	rt, ok := s.MetaData().RecordType(p.RecordType)
	if !ok {
		return nil, fmt.Errorf("plan: covering plan over unknown record type %q", p.RecordType)
	}
	entries, err := scanEntries(s, p.IndexName, p.Range, p.Reverse, opts)
	if err != nil {
		return nil, err
	}
	fds := make([]*message.FieldDescriptor, len(p.Fields))
	for i, fs := range p.Fields {
		fds[i], _ = rt.Descriptor.FieldByName(fs.Field)
	}
	return observe(opts.Stats, s, true, cursor.Map(entries, func(e index.Entry) (*core.StoredRecord, error) {
		key, value := e.PackedColumns()
		msg, err := coveredMessage(rt, p.Fields, fds, key, value, e.PackedPrimaryKey())
		if err != nil {
			return nil, err
		}
		return &core.StoredRecord{Type: rt, Message: msg, PrimaryKey: e.PrimaryKey()}, nil
	})), nil
}

// coveredMessage builds a row of type rt from an entry's packed key columns,
// value columns and primary key: each field (fds[i] describes fields[i], nil
// for a name rt lacks) goes from its element straight to wire bytes, and the
// row is a message that decodes them on its first access.
func coveredMessage(rt *metadata.RecordType, fields []FieldSource, fds []*message.FieldDescriptor, key, value, pk []byte) (*message.Message, error) {
	var stack [128]byte
	buf := stack[:0]
	for i, fs := range fields {
		src := pk
		switch fs.From {
		case FromIndexKey:
			src = key
		case FromIndexValue:
			src = value
		}
		elem := elementAt(src, fs.Pos)
		if len(elem) == 0 || elem[0] == 0x00 {
			continue // indexed as null: the field was unset on the record
		}
		var err error
		if buf, err = appendColumn(buf, rt.Descriptor, fs.Field, fds[i], elem); err != nil {
			return nil, fmt.Errorf("plan: covering reconstruction of %s.%s: %v", rt.Name, fs.Field, err)
		}
	}
	return message.Unmarshal(rt.Descriptor, bytes.Clone(buf))
}

// elementAt returns element pos of a packed tuple the entry's decoder has
// walked, or nil past its end.
func elementAt(b []byte, pos int) []byte {
	for ; len(b) > 0; pos-- {
		n, _ := tuple.ElementLen(b)
		if pos == 0 {
			return b[:n]
		}
		b = b[n:]
	}
	return nil
}

// appendColumn appends field f (named name; nil when desc has none) to b from
// elem, one packed tuple element. An integer, or a string or bytes without a
// zero byte, is read in place; a small uint64 decodes as an int64, which a
// uint64 field takes. Any other element is unpacked, set on a scratch message
// and marshalled, so it encodes, or fails, as Set and Marshal do.
func appendColumn(b []byte, desc *message.Descriptor, name string, f *message.FieldDescriptor, elem []byte) ([]byte, error) {
	typ := message.FieldType(-1) // holds nothing
	if f != nil && !f.Repeated {
		typ = f.Type
	}
	switch typ {
	case message.TypeInt64, message.TypeInt32, message.TypeEnum, message.TypeUint64:
		if v, _, ok := tuple.Int64At(elem); ok && (v >= 0 || typ != message.TypeUint64) {
			return message.AppendVarintField(b, f.Number, uint64(v)), nil
		}
	case message.TypeString:
		if v, _, ok := tuple.StringAt(elem); ok {
			return message.AppendBytesField(b, f.Number, v), nil
		}
	case message.TypeBytes:
		if v, _, ok := tuple.BytesAt(elem); ok {
			return message.AppendBytesField(b, f.Number, v), nil
		}
	}
	t, _ := tuple.Unpack(elem)
	m := message.New(desc)
	if err := m.Set(name, t[0]); err != nil {
		return b, err
	}
	w, err := m.Marshal()
	return append(b, w...), err
}

// OrderedByPrimaryKey implements Plan, matching IndexScanPlan: with every key
// column pinned by equality, remaining entry order is the appended primary
// key.
func (p *CoveringIndexScanPlan) OrderedByPrimaryKey() bool { return p.FullyBound && !p.Reverse }

// String implements Plan.
func (p *CoveringIndexScanPlan) String() string { return p.describe(nil, true) }

func (p *CoveringIndexScanPlan) describe(b query.Bindings, _ bool) string {
	return fmt.Sprintf("Covering(Index(%s %s%s))", p.IndexName, rangeString(p.Range, b), revString(p.Reverse))
}

// Label implements Plan. Leaves have no children, so Label is String.
func (p *CoveringIndexScanPlan) Label() string { return p.String() }

// coveringFor decides whether an index match can be promoted to a covering
// plan, and builds it. Covering requires:
//
//   - an explicit projection (Query.Select): the caller opted into partial
//     records;
//   - a VALUE index typed to exactly the one queried record type, so every
//     scanned entry belongs to that type;
//   - no fan-out columns anywhere in the index expression — a fan-out index
//     yields several entries per record, so synthesizing a record per entry
//     would fabricate duplicates (covering must be refused);
//   - every needed field (projection ∪ residual filter fields) reconstructible
//     from a scalar, top-level field column of the entry key, the KeyWithValue
//     covering values, or the primary key.
func (p *Planner) coveringFor(ix *metadata.Index, q query.RecordQuery, conjuncts []*conjunct, m *indexMatch) *CoveringIndexScanPlan {
	if len(q.Projection) == 0 || ix.Type != metadata.IndexValue {
		return nil
	}
	if len(q.RecordTypes) != 1 || len(ix.RecordTypes) != 1 || ix.RecordTypes[0] != q.RecordTypes[0] {
		return nil
	}
	rt, ok := p.md.RecordType(q.RecordTypes[0])
	if !ok {
		return nil
	}
	avail := map[string]FieldSource{}
	keyCols := ix.Expression.ColumnCount()
	if kwv, ok := ix.Expression.(keyexpr.KeyWithValueExpression); ok {
		keyCols = kwv.KeyColumns()
	}
	for i, col := range ix.Expression.Columns() {
		if col.Fan != keyexpr.FanScalar {
			return nil
		}
		if col.Kind != keyexpr.ColField || len(col.Path) != 1 {
			continue
		}
		fs := FieldSource{Field: col.Path[0], From: FromIndexKey, Pos: i}
		if i >= keyCols {
			fs.From, fs.Pos = FromIndexValue, i-keyCols
		}
		if _, dup := avail[fs.Field]; !dup {
			avail[fs.Field] = fs
		}
	}
	// Primary-key fields are always reconstructed into the partial record —
	// they come with every entry for free, and callers navigating results by
	// key expect them (the Java layer's covering records do the same).
	needed := map[string]bool{}
	for i, col := range rt.PrimaryKey.Columns() {
		if col.Kind != keyexpr.ColField || col.Fan != keyexpr.FanScalar || len(col.Path) != 1 {
			continue // non-field components (record type tags, …) hold their position
		}
		if _, dup := avail[col.Path[0]]; !dup {
			avail[col.Path[0]] = FieldSource{Field: col.Path[0], From: FromPrimaryKey, Pos: i}
		}
		needed[col.Path[0]] = true
	}
	for _, f := range q.Projection {
		if _, ok := rt.Descriptor.FieldByName(f); !ok {
			return nil // unknown field: let the fetching plan's semantics apply
		}
		needed[f] = true
	}
	inMatch := map[int]bool{}
	for _, i := range m.used {
		inMatch[i] = true
	}
	for i, c := range conjuncts {
		if c.consumed || inMatch[i] {
			continue
		}
		fields, ok := componentFields(c.c)
		if !ok {
			return nil
		}
		for _, f := range fields {
			needed[f] = true
		}
	}
	fields := make([]FieldSource, 0, len(needed))
	for f := range needed {
		fs, ok := avail[f]
		if !ok {
			return nil
		}
		fields = append(fields, fs)
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].Field < fields[j].Field })
	return &CoveringIndexScanPlan{
		IndexName:  ix.Name,
		Range:      m.plan.Range,
		Reverse:    m.plan.Reverse,
		FullyBound: m.plan.FullyBound,
		RecordType: rt.Name,
		Fields:     fields,
	}
}

// componentFields collects the top-level scalar fields a residual predicate
// reads, or reports that it cannot name them (nested paths, one-of-them
// repeated fields, unknown component types): a covering plan must supply
// those fields, and a full scan decodes only them before the filter runs.
func componentFields(c query.Component) ([]string, bool) {
	switch x := c.(type) {
	case *query.FieldComponent:
		if x.AnyOf() || len(x.Path()) != 1 {
			return nil, false
		}
		return []string{x.Path()[0]}, true
	case *query.AndComponent:
		return componentListFields(x.Children)
	case *query.OrComponent:
		return componentListFields(x.Children)
	case *query.NotComponent:
		return componentFields(x.Child)
	}
	return nil, false
}

func componentListFields(children []query.Component) ([]string, bool) {
	var out []string
	for _, ch := range children {
		fs, ok := componentFields(ch)
		if !ok {
			return nil, false
		}
		out = append(out, fs...)
	}
	return out, true
}
