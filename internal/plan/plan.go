// Package plan implements query planning and execution (Appendix C): the
// conversion of declarative queries into combinations of streaming
// operations — index scans, filters, unions, intersections — plus the
// planners that choose them. Plans execute as cursors, so every query
// supports continuations and resource limits like any other scan (§4, §8.2).
package plan

import (
	"fmt"
	"strings"

	"recordlayer/internal/core"
	"recordlayer/internal/cursor"
	"recordlayer/internal/index"
	"recordlayer/internal/message"
	"recordlayer/internal/obs"
	"recordlayer/internal/query"
)

// ExecuteOptions carries per-execution state.
type ExecuteOptions struct {
	// Continuation resumes a previous execution of the same plan.
	Continuation []byte
	// Limiter enforces record/byte/time limits (§8.2); nil is unlimited.
	Limiter *cursor.Limiter
	// Snapshot executes every scan at snapshot isolation: reads add no
	// conflict ranges, so long queries never abort concurrent writers.
	Snapshot bool
	// PipelineDepth bounds how far record fetches above a merge run past the
	// entries its scans have read (§8's asynchronous pipelining); fetches for
	// entries in hand go out together. <= 1 fetches sequentially. A bare
	// IndexScanPlan has nothing to pipeline: it reads each batch's records
	// with the batch (core.Store.ScanIndexRecords).
	PipelineDepth int
	// Stats, when non-nil, is the obs.PlanStats node this plan fills during
	// execution — rows in/out, attributed simulator I/O, continuation pages —
	// the substrate of EXPLAIN ANALYZE. Each plan creates its children's
	// nodes positionally (Stats.Child), so a resumed execution handed the
	// same tree accumulates across pages. Nil (the default) keeps execution
	// at one pointer check per node.
	Stats *obs.PlanStats

	// bindings fill the slots of a shape's plan: Bound sets them, and every
	// node below reads its range bounds and filter operands from them.
	bindings query.Bindings
}

// Plan is an executable query plan. Plans are immutable and reusable across
// stores and transactions — the paper's clients cache them like SQL PREPARE
// statements (Appendix C). A shape's plan holds slots (query.Param) where a
// query's literals go; Bind fills them for one execution.
type Plan interface {
	// Execute runs the plan against a store.
	Execute(s *core.Store, opts ExecuteOptions) (cursor.Cursor[*core.StoredRecord], error)
	// OrderedByPrimaryKey reports whether results stream in primary key
	// order, the property union/intersection merging requires.
	OrderedByPrimaryKey() bool
	// String renders the plan tree.
	String() string
	// Label renders this node alone (no children) — the per-node line of an
	// EXPLAIN ANALYZE tree.
	Label() string
}

// childOptions derives the options a merge plan hands child i: the parent's
// execution knobs with the child's own continuation and, when stats collection
// is on, its own positionally-stable node under the parent's, labelled with
// the child's slots filled. Single-sited so a new ExecuteOptions field cannot
// be propagated to some children and not others.
func childOptions(opts ExecuteOptions, i int, child Plan, cont []byte) ExecuteOptions {
	opts.Continuation = cont
	if opts.Stats != nil {
		opts.Stats = opts.Stats.Child(i, describe(child, opts.bindings, false))
	}
	return opts
}

// childBuilders wraps each child plan as a continuation-taking cursor
// builder, the shape cursor.Union/Intersection/Concat consume.
func childBuilders(s *core.Store, children []Plan, opts ExecuteOptions) []func([]byte) cursor.Cursor[*core.StoredRecord] {
	builders := make([]func([]byte) cursor.Cursor[*core.StoredRecord], len(children))
	for i, child := range children {
		builders[i] = func(cont []byte) cursor.Cursor[*core.StoredRecord] {
			c, err := child.Execute(s, childOptions(opts, i, child, cont))
			if err != nil {
				return cursor.Fail[*core.StoredRecord](err)
			}
			return c
		}
	}
	return builders
}

// indexScans returns children as index scans when each is a bare IndexScanPlan:
// the shape that merges, or de-duplicates, on the primary keys in its index
// entries and fetches once above (fetchAbove). A child under a residual filter
// needs its record to decide what it emits, and keeps the merge on records.
func indexScans(children ...Plan) []*IndexScanPlan {
	scans := make([]*IndexScanPlan, len(children))
	for i, child := range children {
		scan, ok := child.(*IndexScanPlan)
		if !ok {
			return nil
		}
		scans[i] = scan
	}
	return scans
}

// entryBuilders is childBuilders for index scans merged on their entries: each
// child's node reports the entries it scanned and its index I/O.
func entryBuilders(s *core.Store, scans []*IndexScanPlan, opts ExecuteOptions) []func([]byte) cursor.Cursor[index.Entry] {
	builders := make([]func([]byte) cursor.Cursor[index.Entry], len(scans))
	for i, scan := range scans {
		builders[i] = func(cont []byte) cursor.Cursor[index.Entry] {
			co := childOptions(opts, i, scan, cont)
			c, err := scanEntries(s, scan.IndexName, scan.Range, scan.Reverse, co)
			if err != nil {
				return cursor.Fail[index.Entry](err)
			}
			return observe(co.Stats, s, true, c)
		}
	}
	return builders
}

// fetchAbove fetches the records behind scanned, merged or de-duplicated
// entries through one pipeline: every index range is read in the first window,
// nothing is fetched that a merge drops, and the fetch window follows the
// entries in hand. Continuations are the entries' — in a merge a child's slot
// is its scan's last key, as when each child fetched for itself — and the
// fetches are the I/O of the plan's own node.
func fetchAbove(s *core.Store, opts ExecuteOptions, entries cursor.Cursor[index.Entry]) cursor.Cursor[*core.StoredRecord] {
	return observe(opts.Stats, s, true, s.FetchIndexedPipelined(entries, opts.Snapshot, opts.PipelineDepth))
}

func pkOf(r *core.StoredRecord) []byte { return r.PrimaryKey.Pack() }

// unseen is an in-memory seen-set's predicate: true the first time a key comes
// by. Only a key it keeps is copied.
func unseen[T any](keyOf func(T) []byte) func(T) (bool, error) {
	seen := map[string]bool{}
	return func(v T) (bool, error) {
		k := keyOf(v)
		if seen[string(k)] {
			return false, nil
		}
		seen[string(k)] = true
		return true, nil
	}
}

// ------------------------------------------------------------ execution stats

// statsCursor counts the values a plan node emits; with st set it also
// attributes the transaction I/O performed inside each of its Next and
// Prefetch calls — keys and bytes read, simulated wait — to the node, less
// what its children attributed to themselves meanwhile: a leaf scan's own
// reads, and the fetches of a plan that fetches above merged children. Other
// composites would hold nothing of their own, so they count rows alone.
type statsCursor[T any] struct {
	cursor.Forward[T]
	node *obs.PlanStats
	st   *core.Store
	// ioOnly leaves the node's rows to the cursor it wraps (observeIO).
	ioOnly bool
}

// attribute runs f and adds the I/O it did, net of the children's, to the node.
func (c *statsCursor[T]) attribute(f func()) {
	if c.st == nil {
		f()
		return
	}
	below := func() (keys, bytes, wait int64) {
		for _, ch := range c.node.Children {
			keys, bytes, wait = keys+ch.SimReads, bytes+ch.SimReadBytes, wait+ch.SimWaitNanos
		}
		return
	}
	before := c.st.TxnStats()
	k0, b0, w0 := below()
	f()
	after := c.st.TxnStats()
	k1, b1, w1 := below()
	//lint:allow obsguard observe() returns early on nil node; statsCursor exists only when node != nil
	c.node.AddIO(int64(after.KeysRead-before.KeysRead)-(k1-k0), int64(after.BytesRead-before.BytesRead)-(b1-b0),
		after.SimWaitNanos-before.SimWaitNanos-(w1-w0))
}

// Prefetch forwards to the wrapped node; a range read it issues is counted
// when issued, so it is attributed here.
func (c *statsCursor[T]) Prefetch() { c.attribute(c.Inner.Prefetch) }

func (c *statsCursor[T]) Next() (r cursor.Result[T], err error) {
	c.attribute(func() { r, err = c.Inner.Next() })
	if err == nil && r.OK && !c.ioOnly {
		c.node.AddRowOut() //lint:allow obsguard observe() returns early on nil node; statsCursor exists only when node != nil
	}
	return r, err
}

// observe wraps a node's output cursor when stats collection is on (one nil
// check when off); io attributes per-call transaction deltas to the node.
func observe[T any](node *obs.PlanStats, s *core.Store, io bool, c cursor.Cursor[T]) cursor.Cursor[T] {
	if node == nil {
		return c
	}
	node.AddPage()
	var st *core.Store
	if io {
		st = s
	}
	return &statsCursor[T]{Forward: cursor.Forward[T]{Inner: c}, node: node, st: st}
}

// observeIO is observe for a scan that counts its node's rows itself: the
// wrapper counts the page and attributes I/O, and counts no rows.
func observeIO(node *obs.PlanStats, s *core.Store, c cursor.Cursor[*core.StoredRecord]) cursor.Cursor[*core.StoredRecord] {
	if node == nil {
		return c
	}
	node.AddPage()
	return &statsCursor[*core.StoredRecord]{Forward: cursor.Forward[*core.StoredRecord]{Inner: c}, node: node, st: s, ioOnly: true}
}

// rowInCursor counts the index entries a leaf scans as the node's RowsIn.
type rowInCursor[T any] struct {
	cursor.Forward[T]
	node *obs.PlanStats
}

func (c *rowInCursor[T]) Next() (cursor.Result[T], error) {
	r, err := c.Inner.Next()
	if err == nil && r.OK {
		c.node.AddRowIn() //lint:allow obsguard observeIn() returns early on nil node; rowInCursor exists only when node != nil
	}
	return r, err
}

func observeIn[T any](node *obs.PlanStats, c cursor.Cursor[T]) cursor.Cursor[T] {
	if node == nil {
		return c
	}
	return &rowInCursor[T]{Forward: cursor.Forward[T]{Inner: c}, node: node}
}

// ---------------------------------------------------------------- full scan

// FullScanPlan scans every record, optionally filtering record types — the
// fallback when no index matches (§10.2: "selecting all records of a
// particular type requires a full scan that skips over records of other
// types").
type FullScanPlan struct {
	Types   []string // empty = all types
	Reverse bool
}

// Execute implements Plan.
func (p *FullScanPlan) Execute(s *core.Store, opts ExecuteOptions) (cursor.Cursor[*core.StoredRecord], error) {
	return p.scan(s, opts, nil, nil), nil
}

// scan runs the scan with filter, which reads only fields, evaluated inside
// it: the type check and the filter run on each record's wire bytes
// (core.RecordFilter), and only the records they keep are built. The node's
// rows in and out are counted there too, where the dropped records are seen.
func (p *FullScanPlan) scan(s *core.Store, opts ExecuteOptions, filter query.Component, fields []string) cursor.Cursor[*core.StoredRecord] {
	so := core.ScanOptions{
		Reverse:      p.Reverse,
		Limiter:      opts.Limiter,
		Continuation: opts.Continuation,
		Snapshot:     opts.Snapshot,
	}
	if len(p.Types) == 0 && filter == nil {
		return observe(opts.Stats, s, true, s.ScanRecords(so))
	}
	node, typed := opts.Stats, len(p.Types) > 0
	so.Filter = &core.RecordFilter{Types: p.Types, Fields: fields, Keep: func(msg *message.Message) (bool, error) {
		if node != nil {
			if typed {
				node.AddRowIn()
			}
			if msg != nil {
				node.AddRowOut()
			}
		}
		if msg == nil || filter == nil {
			return msg != nil, nil
		}
		return query.EvalBound(filter, msg, opts.bindings)
	}}
	return observeIO(opts.Stats, s, s.ScanRecords(so))
}

// OrderedByPrimaryKey implements Plan.
func (p *FullScanPlan) OrderedByPrimaryKey() bool { return !p.Reverse }

// String implements Plan.
func (p *FullScanPlan) String() string {
	if len(p.Types) == 0 {
		return "Scan(<all>)"
	}
	return fmt.Sprintf("Scan(%s)", strings.Join(p.Types, ","))
}

// Label implements Plan. Leaves have no children, so Label is String.
func (p *FullScanPlan) Label() string { return p.String() }

// ---------------------------------------------------------------- index scan

// IndexScanPlan scans an index over a tuple range and fetches the records
// behind the entries.
type IndexScanPlan struct {
	IndexName string
	Range     index.TupleRange
	Reverse   bool
	// FullyBound reports that every index key column is pinned by equality,
	// making the output primary-key ordered.
	FullyBound bool
	// FanOut marks scans over fan-out entries, which may repeat records.
	FanOut bool
}

// Execute implements Plan. The range's slots are filled from the bindings.
// Each batch of entries arrives with its records (core.ScanIndexRecords), so
// the node's rows in, one per entry, are its records.
func (p *IndexScanPlan) Execute(s *core.Store, opts ExecuteOptions) (cursor.Cursor[*core.StoredRecord], error) {
	r, err := bindRange(p.Range, opts.bindings)
	if err != nil {
		return nil, err
	}
	recs, err := s.ScanIndexRecords(p.IndexName, r, scanOptions(p.Reverse, opts))
	if err != nil {
		return nil, err
	}
	return observe(opts.Stats, s, true, observeIn(opts.Stats, recs)), nil
}

// scanEntries scans an index over r, its slots filled from opts' bindings;
// its entries are the node's rows in.
func scanEntries(s *core.Store, name string, r index.TupleRange, reverse bool, opts ExecuteOptions) (cursor.Cursor[index.Entry], error) {
	r, err := bindRange(r, opts.bindings)
	if err != nil {
		return nil, err
	}
	entries, err := s.ScanIndex(name, r, scanOptions(reverse, opts))
	if err != nil {
		return nil, err
	}
	return observeIn(opts.Stats, entries), nil
}

func scanOptions(reverse bool, opts ExecuteOptions) index.ScanOptions {
	return index.ScanOptions{
		Reverse:      reverse,
		Limiter:      opts.Limiter,
		Continuation: opts.Continuation,
		Snapshot:     opts.Snapshot,
	}
}

// OrderedByPrimaryKey implements Plan.
//
// When every key column is pinned by equality, remaining entry order is the
// appended primary key — even for fan-out indexes, whose (value, pk) entry
// keys are unique for a fixed value.
func (p *IndexScanPlan) OrderedByPrimaryKey() bool { return p.FullyBound && !p.Reverse }

// String implements Plan.
func (p *IndexScanPlan) String() string { return p.describe(nil, true) }

// Label implements Plan. Leaves have no children, so Label is String.
func (p *IndexScanPlan) Label() string { return p.String() }

func (p *IndexScanPlan) describe(b query.Bindings, _ bool) string {
	return fmt.Sprintf("Index(%s %s%s)", p.IndexName, rangeString(p.Range, b), revString(p.Reverse))
}

// rangeString renders r with its slots filled from b, or as "?" when b does
// not fill them.
func rangeString(r index.TupleRange, b query.Bindings) string {
	if bound, err := bindRange(r, b); err == nil {
		r = bound
	}
	lo, hi := "<,", ",>"
	if r.Low != nil {
		b := "("
		if r.LowInclusive {
			b = "["
		}
		lo = b + r.Low.String()
	}
	if r.High != nil {
		b := ")"
		if r.HighInclusive {
			b = "]"
		}
		hi = r.High.String() + b
	}
	return lo + " - " + hi
}

func revString(r bool) string {
	if r {
		return " reverse"
	}
	return ""
}

// ---------------------------------------------------------------- filter

// FilterPlan applies a residual predicate to its child's records.
type FilterPlan struct {
	Child  Plan
	Filter query.Component
}

// Execute implements Plan. Over a full scan, a filter whose fields
// componentFields can name runs inside the scan, on each record's wire bytes.
func (p *FilterPlan) Execute(s *core.Store, opts ExecuteOptions) (cursor.Cursor[*core.StoredRecord], error) {
	co := childOptions(opts, 0, p.Child, opts.Continuation)
	if scan, ok := p.Child.(*FullScanPlan); ok {
		if fields, ok := componentFields(p.Filter); ok {
			return observe(opts.Stats, s, false, scan.scan(s, co, p.Filter, fields)), nil
		}
	}
	c, err := p.Child.Execute(s, co)
	if err != nil {
		return nil, err
	}
	return observe(opts.Stats, s, false, cursor.Filter(c, func(r *core.StoredRecord) (bool, error) {
		return query.EvalBound(p.Filter, r.Message, opts.bindings)
	})), nil
}

// OrderedByPrimaryKey implements Plan.
func (p *FilterPlan) OrderedByPrimaryKey() bool { return p.Child.OrderedByPrimaryKey() }

// String implements Plan.
func (p *FilterPlan) String() string { return p.describe(nil, true) }

// Label implements Plan.
func (p *FilterPlan) Label() string { return p.describe(nil, false) }

func (p *FilterPlan) describe(b query.Bindings, deep bool) string {
	if !deep {
		return "Filter(" + query.Format(p.Filter, b) + ")"
	}
	return "Filter(" + query.Format(p.Filter, b) + " | " + describe(p.Child, b, true) + ")"
}

// ---------------------------------------------------------------- distinct

// DistinctPlan removes duplicate records by primary key — required after
// fan-out index scans, where one record may produce several entries. The
// seen-set lives in memory for the duration of one execution; a resumed
// execution starts a fresh set, so duplicates spanning a continuation
// boundary can reappear (the Java implementation shares this property for
// unordered streams).
type DistinctPlan struct {
	Child Plan
}

// Execute implements Plan. Over a bare index scan the seen-set is keyed on the
// entries' primary keys, so a record behind k entries is fetched once.
func (p *DistinctPlan) Execute(s *core.Store, opts ExecuteOptions) (cursor.Cursor[*core.StoredRecord], error) {
	if scans := indexScans(p.Child); scans != nil {
		entries := entryBuilders(s, scans, opts)[0](opts.Continuation)
		return fetchAbove(s, opts, cursor.Filter(entries, unseen(index.Entry.PackedPrimaryKey))), nil
	}
	c, err := p.Child.Execute(s, childOptions(opts, 0, p.Child, opts.Continuation))
	if err != nil {
		return nil, err
	}
	return observe(opts.Stats, s, false, cursor.Filter(c, unseen(pkOf))), nil
}

// OrderedByPrimaryKey implements Plan.
func (p *DistinctPlan) OrderedByPrimaryKey() bool { return p.Child.OrderedByPrimaryKey() }

// String implements Plan.
func (p *DistinctPlan) String() string { return p.describe(nil, true) }

// Label implements Plan.
func (p *DistinctPlan) Label() string { return "Distinct" }

func (p *DistinctPlan) describe(b query.Bindings, deep bool) string {
	if !deep {
		return p.Label()
	}
	return "Distinct(" + describe(p.Child, b, true) + ")"
}

// ---------------------------------------------------------------- union

// UnionPlan merges child streams. When every child is primary-key ordered
// the merge is an ordered, deduplicating streaming union; otherwise children
// run sequentially with an in-memory seen-set.
type UnionPlan struct {
	Children []Plan
}

// Execute implements Plan.
func (p *UnionPlan) Execute(s *core.Store, opts ExecuteOptions) (cursor.Cursor[*core.StoredRecord], error) {
	if scans := indexScans(p.Children...); scans != nil {
		entries, err := unionOf(opts.Continuation, p.OrderedByPrimaryKey(), index.Entry.PackedPrimaryKey, entryBuilders(s, scans, opts))
		if err != nil {
			return nil, err
		}
		return fetchAbove(s, opts, entries), nil
	}
	c, err := unionOf(opts.Continuation, p.OrderedByPrimaryKey(), pkOf, childBuilders(s, p.Children, opts))
	if err != nil {
		return nil, err
	}
	return observe(opts.Stats, s, false, c), nil
}

// unionOf is the union of records or of index entries: ordered children merge,
// unordered ones chain behind a seen-set.
func unionOf[T any](cont []byte, ordered bool, keyOf func(T) []byte, builders []func([]byte) cursor.Cursor[T]) (cursor.Cursor[T], error) {
	if ordered {
		return cursor.Union(cont, keyOf, builders...)
	}
	chained, err := cursor.Concat(cont, builders...)
	if err != nil {
		return nil, err
	}
	return cursor.Filter(chained, unseen(keyOf)), nil
}

// OrderedByPrimaryKey implements Plan.
func (p *UnionPlan) OrderedByPrimaryKey() bool {
	for _, c := range p.Children {
		if !c.OrderedByPrimaryKey() {
			return false
		}
	}
	return true
}

// String implements Plan.
func (p *UnionPlan) String() string { return p.describe(nil, true) }

func (p *UnionPlan) describe(b query.Bindings, deep bool) string {
	if !deep {
		return p.Label()
	}
	return p.Label() + "(" + describeAll(p.Children, b, " ∪ ") + ")"
}

// describeAll renders children with their slots filled from b, joined by sep.
func describeAll(children []Plan, b query.Bindings, sep string) string {
	parts := make([]string, len(children))
	for i, c := range children {
		parts[i] = describe(c, b, true)
	}
	return strings.Join(parts, sep)
}

// Label implements Plan.
func (p *UnionPlan) Label() string {
	if p.OrderedByPrimaryKey() {
		return "Union"
	}
	return "UnorderedUnion"
}

// ---------------------------------------------------------------- intersection

// IntersectionPlan merges primary-key-ordered children, emitting records
// present in all of them (AND of independently indexed predicates).
type IntersectionPlan struct {
	Children []Plan
}

// Execute implements Plan.
func (p *IntersectionPlan) Execute(s *core.Store, opts ExecuteOptions) (cursor.Cursor[*core.StoredRecord], error) {
	if !p.OrderedByPrimaryKey() {
		return nil, fmt.Errorf("plan: intersection requires primary-key ordered children")
	}
	if scans := indexScans(p.Children...); scans != nil {
		entries, err := cursor.Intersection(opts.Continuation, index.Entry.PackedPrimaryKey, entryBuilders(s, scans, opts)...)
		if err != nil {
			return nil, err
		}
		return fetchAbove(s, opts, entries), nil
	}
	c, err := cursor.Intersection(opts.Continuation, pkOf, childBuilders(s, p.Children, opts)...)
	if err != nil {
		return nil, err
	}
	return observe(opts.Stats, s, false, c), nil
}

// OrderedByPrimaryKey implements Plan.
func (p *IntersectionPlan) OrderedByPrimaryKey() bool {
	for _, c := range p.Children {
		if !c.OrderedByPrimaryKey() {
			return false
		}
	}
	return true
}

// String implements Plan.
func (p *IntersectionPlan) String() string { return p.describe(nil, true) }

func (p *IntersectionPlan) describe(b query.Bindings, deep bool) string {
	if !deep {
		return p.Label()
	}
	return "Intersection(" + describeAll(p.Children, b, " ∩ ") + ")"
}

// Label implements Plan.
func (p *IntersectionPlan) Label() string { return "Intersection" }
