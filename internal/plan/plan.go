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
	// PipelineDepth is how many record fetches an index scan keeps in flight
	// (§8's asynchronous pipelining); <= 1 fetches sequentially.
	PipelineDepth int
	// Stats, when non-nil, is the obs.PlanStats node this plan fills during
	// execution — rows in/out, attributed simulator I/O, continuation pages —
	// the substrate of EXPLAIN ANALYZE. Each plan creates its children's
	// nodes positionally (Stats.Child), so a resumed execution handed the
	// same tree accumulates across pages. Nil (the default) keeps execution
	// at one pointer check per node.
	Stats *obs.PlanStats
}

// Plan is an executable query plan. Plans are immutable and reusable across
// stores and transactions — the paper's clients cache them like SQL PREPARE
// statements (Appendix C).
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

func errPlanCursor(err error) cursor.Cursor[*core.StoredRecord] {
	return cursor.Func[*core.StoredRecord](func() (cursor.Result[*core.StoredRecord], error) {
		return cursor.Result[*core.StoredRecord]{}, err
	})
}

// childOptions derives the options a merge plan hands each child: the
// parent's execution knobs with the child's own continuation. Single-sited so
// a new ExecuteOptions field cannot be propagated to some children and not
// others.
func childOptions(opts ExecuteOptions, cont []byte) ExecuteOptions {
	opts.Continuation = cont
	return opts
}

// childBuilders wraps each child plan as a continuation-taking cursor
// builder, the shape cursor.Union/Intersection/Concat consume. When stats
// collection is on, each child fills its own positionally-stable node under
// the parent's.
func childBuilders(s *core.Store, children []Plan, opts ExecuteOptions) []func([]byte) cursor.Cursor[*core.StoredRecord] {
	builders := make([]func([]byte) cursor.Cursor[*core.StoredRecord], len(children))
	parent := opts.Stats
	for i, child := range children {
		i, child := i, child
		builders[i] = func(cont []byte) cursor.Cursor[*core.StoredRecord] {
			co := childOptions(opts, cont)
			co.Stats = parent.Child(i, child.Label())
			c, err := child.Execute(s, co)
			if err != nil {
				return errPlanCursor(err)
			}
			return c
		}
	}
	return builders
}

// ------------------------------------------------------------ execution stats

// statsCursor counts the records a plan node emits; with st set (leaf scans
// only) it also attributes the transaction I/O performed inside each Next —
// keys and bytes read, simulated wait — to the node. Leaf windows contain
// exactly the leaf's own reads; a composite's window would double-count its
// children's, so composites count rows alone.
type statsCursor struct {
	inner cursor.Cursor[*core.StoredRecord]
	node  *obs.PlanStats
	st    *core.Store
}

// Prefetch implements cursor.Prefetcher by forwarding to the wrapped node.
// The issued I/O lands in the same transaction stats either way; only its
// latency window moves.
func (c *statsCursor) Prefetch() { cursor.Prefetch(c.inner) }

// Demand implements cursor.Demander: one record out per record in.
func (c *statsCursor) Demand(n int) { cursor.Demand(c.inner, n) }

func (c *statsCursor) Next() (cursor.Result[*core.StoredRecord], error) {
	if c.st == nil {
		r, err := c.inner.Next()
		if err == nil && r.OK {
			c.node.AddRowOut() //lint:allow obsguard observe() returns early on nil node; statsCursor exists only when node != nil
		}
		return r, err
	}
	before := c.st.TxnStats()
	r, err := c.inner.Next()
	after := c.st.TxnStats()
	//lint:allow obsguard observe() returns early on nil node; statsCursor exists only when node != nil
	c.node.AddIO(int64(after.KeysRead-before.KeysRead), int64(after.BytesRead-before.BytesRead),
		after.SimWaitNanos-before.SimWaitNanos)
	if err == nil && r.OK {
		c.node.AddRowOut() //lint:allow obsguard observe() returns early on nil node; statsCursor exists only when node != nil
	}
	return r, err
}

// observe wraps a node's output cursor when stats collection is on (one nil
// check when off); io attributes per-Next transaction deltas to the node.
func observe(node *obs.PlanStats, s *core.Store, io bool, c cursor.Cursor[*core.StoredRecord]) cursor.Cursor[*core.StoredRecord] {
	if node == nil {
		return c
	}
	node.AddPage()
	var st *core.Store
	if io {
		st = s
	}
	return &statsCursor{inner: c, node: node, st: st}
}

// rowInCursor counts the source items a leaf scans (index entries, raw
// records ahead of a type filter) as the node's RowsIn.
type rowInCursor[T any] struct {
	inner cursor.Cursor[T]
	node  *obs.PlanStats
}

// Prefetch implements cursor.Prefetcher by forwarding to the wrapped node.
func (c *rowInCursor[T]) Prefetch() { cursor.Prefetch(c.inner) }

// Demand implements cursor.Demander: one item out per item in.
func (c *rowInCursor[T]) Demand(n int) { cursor.Demand(c.inner, n) }

func (c *rowInCursor[T]) Next() (cursor.Result[T], error) {
	r, err := c.inner.Next()
	if err == nil && r.OK {
		c.node.AddRowIn() //lint:allow obsguard observeIn() returns early on nil node; rowInCursor exists only when node != nil
	}
	return r, err
}

func observeIn[T any](node *obs.PlanStats, c cursor.Cursor[T]) cursor.Cursor[T] {
	if node == nil {
		return c
	}
	return &rowInCursor[T]{inner: c, node: node}
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
	c := s.ScanRecords(core.ScanOptions{
		Reverse:      p.Reverse,
		Limiter:      opts.Limiter,
		Continuation: opts.Continuation,
		Snapshot:     opts.Snapshot,
	})
	if len(p.Types) == 0 {
		return observe(opts.Stats, s, true, c), nil
	}
	c = observeIn(opts.Stats, c)
	want := map[string]bool{}
	for _, t := range p.Types {
		want[t] = true
	}
	return observe(opts.Stats, s, true, cursor.Filter(c, func(r *core.StoredRecord) (bool, error) {
		return want[r.Type.Name], nil
	})), nil
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

// Execute implements Plan.
func (p *IndexScanPlan) Execute(s *core.Store, opts ExecuteOptions) (cursor.Cursor[*core.StoredRecord], error) {
	entries, err := s.ScanIndex(p.IndexName, p.Range, index.ScanOptions{
		Reverse:      p.Reverse,
		Limiter:      opts.Limiter,
		Continuation: opts.Continuation,
		Snapshot:     opts.Snapshot,
	})
	if err != nil {
		return nil, err
	}
	entries = observeIn(opts.Stats, entries)
	return observe(opts.Stats, s, true, s.FetchIndexedPipelined(entries, opts.Snapshot, opts.PipelineDepth)), nil
}

// OrderedByPrimaryKey implements Plan.
//
// When every key column is pinned by equality, remaining entry order is the
// appended primary key — even for fan-out indexes, whose (value, pk) entry
// keys are unique for a fixed value.
func (p *IndexScanPlan) OrderedByPrimaryKey() bool { return p.FullyBound && !p.Reverse }

// String implements Plan.
func (p *IndexScanPlan) String() string {
	return fmt.Sprintf("Index(%s %s%s)", p.IndexName, rangeString(p.Range), revString(p.Reverse))
}

// Label implements Plan. Leaves have no children, so Label is String.
func (p *IndexScanPlan) Label() string { return p.String() }

func rangeString(r index.TupleRange) string {
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

// Execute implements Plan.
func (p *FilterPlan) Execute(s *core.Store, opts ExecuteOptions) (cursor.Cursor[*core.StoredRecord], error) {
	node := opts.Stats
	childOpts := opts
	childOpts.Stats = node.Child(0, p.Child.Label())
	c, err := p.Child.Execute(s, childOpts)
	if err != nil {
		return nil, err
	}
	return observe(node, s, false, cursor.Filter(c, func(r *core.StoredRecord) (bool, error) {
		return p.Filter.Eval(r.Message)
	})), nil
}

// OrderedByPrimaryKey implements Plan.
func (p *FilterPlan) OrderedByPrimaryKey() bool { return p.Child.OrderedByPrimaryKey() }

// String implements Plan.
func (p *FilterPlan) String() string {
	return fmt.Sprintf("Filter(%s | %s)", p.Filter, p.Child)
}

// Label implements Plan.
func (p *FilterPlan) Label() string { return fmt.Sprintf("Filter(%s)", p.Filter) }

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

// Execute implements Plan.
func (p *DistinctPlan) Execute(s *core.Store, opts ExecuteOptions) (cursor.Cursor[*core.StoredRecord], error) {
	node := opts.Stats
	childOpts := opts
	childOpts.Stats = node.Child(0, p.Child.Label())
	c, err := p.Child.Execute(s, childOpts)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	return observe(node, s, false, cursor.Filter(c, func(r *core.StoredRecord) (bool, error) {
		k := string(r.PrimaryKey.Pack())
		if seen[k] {
			return false, nil
		}
		seen[k] = true
		return true, nil
	})), nil
}

// OrderedByPrimaryKey implements Plan.
func (p *DistinctPlan) OrderedByPrimaryKey() bool { return p.Child.OrderedByPrimaryKey() }

// String implements Plan.
func (p *DistinctPlan) String() string { return fmt.Sprintf("Distinct(%s)", p.Child) }

// Label implements Plan.
func (p *DistinctPlan) Label() string { return "Distinct" }

// ---------------------------------------------------------------- union

// UnionPlan merges child streams. When every child is primary-key ordered
// the merge is an ordered, deduplicating streaming union; otherwise children
// run sequentially with an in-memory seen-set.
type UnionPlan struct {
	Children []Plan
}

// Execute implements Plan.
func (p *UnionPlan) Execute(s *core.Store, opts ExecuteOptions) (cursor.Cursor[*core.StoredRecord], error) {
	builders := childBuilders(s, p.Children, opts)
	if p.OrderedByPrimaryKey() {
		c, err := cursor.Union(opts.Continuation, pkOf, builders...)
		if err != nil {
			return nil, err
		}
		return observe(opts.Stats, s, false, c), nil
	}
	chained, err := cursor.Concat(opts.Continuation, builders...)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	return observe(opts.Stats, s, false, cursor.Filter(chained, func(r *core.StoredRecord) (bool, error) {
		k := string(r.PrimaryKey.Pack())
		if seen[k] {
			return false, nil
		}
		seen[k] = true
		return true, nil
	})), nil
}

func pkOf(r *core.StoredRecord) []byte { return r.PrimaryKey.Pack() }

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
func (p *UnionPlan) String() string {
	parts := make([]string, len(p.Children))
	for i, c := range p.Children {
		parts[i] = c.String()
	}
	kind := "Union"
	if !p.OrderedByPrimaryKey() {
		kind = "UnorderedUnion"
	}
	return fmt.Sprintf("%s(%s)", kind, strings.Join(parts, " ∪ "))
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
func (p *IntersectionPlan) String() string {
	parts := make([]string, len(p.Children))
	for i, c := range p.Children {
		parts[i] = c.String()
	}
	return fmt.Sprintf("Intersection(%s)", strings.Join(parts, " ∩ "))
}

// Label implements Plan.
func (p *IntersectionPlan) Label() string { return "Intersection" }
