package plan

import (
	"fmt"

	"recordlayer/internal/index"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/metadata"
	"recordlayer/internal/query"
	"recordlayer/internal/tuple"
)

// Planner converts declarative queries into executable plans. This is the
// heuristic ("ad hoc") planner the paper describes as the production
// planner. The Cascades-style rule planner of Appendix C is not implemented.
type Planner struct {
	md  *metadata.MetaData
	cfg Config
}

// Config tunes planner behavior.
type Config struct {
	// PreferIndexIntersection lets AND queries combine two fully-bound index
	// scans with a streaming intersection instead of a residual filter.
	PreferIndexIntersection bool
	// DisallowFullScan fails planning rather than fall back to a record scan.
	DisallowFullScan bool
}

// New creates a planner over a schema.
func New(md *metadata.MetaData, cfg Config) *Planner {
	return &Planner{md: md, cfg: cfg}
}

// Plan plans q's shape and binds it to q's literals: the plan renders and
// executes as one planned for those literals alone would.
func (p *Planner) Plan(q query.RecordQuery) (Plan, error) {
	shape, b := q.Shape()
	pl, err := p.PlanShape(shape)
	if err != nil {
		return nil, err
	}
	return Bind(pl, b), nil
}

// PlanShape converts a query shape (RecordQuery.Shape) into an executable
// plan whose index ranges and residual filters hold its slots, or fails when
// the query's sort cannot be satisfied by any index (§3.1: sorts require
// indexes). No choice depends on a literal: operands flow only into range
// bounds, so one plan serves every query of the shape.
func (p *Planner) PlanShape(q query.RecordQuery) (Plan, error) {
	// OR at the top level: union of branch plans (Appendix C).
	if or, ok := q.Filter.(*query.OrComponent); ok && q.Sort == nil {
		return p.planUnion(q, or)
	}
	return p.planConjunction(q)
}

func (p *Planner) planUnion(q query.RecordQuery, or *query.OrComponent) (Plan, error) {
	children := make([]Plan, 0, len(or.Children))
	for _, branch := range or.Children {
		bq := query.RecordQuery{RecordTypes: q.RecordTypes, Filter: branch}
		child, err := p.planConjunction(bq)
		if err != nil {
			return nil, err
		}
		children = append(children, child)
	}
	return &UnionPlan{Children: children}, nil
}

// conjunct is one AND-ed predicate with a consumed marker.
type conjunct struct {
	c        query.Component
	field    *query.FieldComponent // nil for non-field components
	consumed bool
}

func splitConjuncts(filter query.Component) []*conjunct {
	if filter == nil {
		return nil
	}
	var list []query.Component
	if and, ok := filter.(*query.AndComponent); ok {
		list = and.Children
	} else {
		list = []query.Component{filter}
	}
	out := make([]*conjunct, len(list))
	for i, c := range list {
		fc, _ := c.(*query.FieldComponent)
		out[i] = &conjunct{c: c, field: fc}
	}
	return out
}

func (p *Planner) planConjunction(q query.RecordQuery) (Plan, error) {
	conjuncts := splitConjuncts(q.Filter)

	best := p.bestIndexMatch(q, conjuncts)
	if best == nil {
		// No index narrows the scan — but with a projection, an index-only
		// scan over a covering index still beats reading every record.
		if cov := p.coveringFullScan(q, conjuncts); cov != nil {
			return wrapResidual(cov, conjuncts, false), nil
		}
		if q.Sort != nil {
			return nil, fmt.Errorf("plan: no index satisfies sort %s; the streaming model cannot sort in memory", q.Sort)
		}
		if p.cfg.DisallowFullScan {
			return nil, fmt.Errorf("plan: no index matches %s and full scans are disallowed", q)
		}
		return wrapResidual(&FullScanPlan{Types: q.RecordTypes}, conjuncts, false), nil
	}

	// A covering match wins outright: it answers the query from the index
	// alone, so neither a residual-reducing intersection nor the record
	// fetches are worth anything (§6, Appendix A).
	if best.covering != nil {
		for _, i := range best.used {
			conjuncts[i].consumed = true
		}
		return wrapResidual(best.covering, conjuncts, false), nil
	}

	// Optionally intersect with a second disjoint fully-bound match (§9's
	// "efficient combination of operations on the stream of records").
	if p.cfg.PreferIndexIntersection && q.Sort == nil && best.plan.FullyBound {
		if second := p.bestIndexMatch(q, remaining(conjuncts, best)); second != nil &&
			second.plan.FullyBound && second.plan.IndexName != best.plan.IndexName {
			for _, i := range second.used {
				conjuncts[i].consumed = true
			}
			for _, i := range best.used {
				conjuncts[i].consumed = true
			}
			inter := &IntersectionPlan{Children: []Plan{best.plan, second.plan}}
			return wrapResidual(inter, conjuncts, best.fanOut || second.fanOut), nil
		}
	}

	for _, i := range best.used {
		conjuncts[i].consumed = true
	}
	return wrapResidual(best.plan, conjuncts, best.fanOut), nil
}

// remaining clones the conjunct list with a match's consumption applied.
func remaining(conjuncts []*conjunct, m *indexMatch) []*conjunct {
	out := make([]*conjunct, len(conjuncts))
	for i, c := range conjuncts {
		cc := *c
		out[i] = &cc
	}
	for _, i := range m.used {
		out[i].consumed = true
	}
	return out
}

// wrapResidual applies distinct (for fan-out scans) and leftover filters.
func wrapResidual(base Plan, conjuncts []*conjunct, fanOut bool) Plan {
	if fanOut {
		base = &DistinctPlan{Child: base}
	}
	var leftover []query.Component
	for _, c := range conjuncts {
		if !c.consumed {
			leftover = append(leftover, c.c)
		}
	}
	if len(leftover) == 0 {
		return base
	}
	return &FilterPlan{Child: base, Filter: query.And(leftover...)}
}

// indexMatch scores a candidate index against the query.
type indexMatch struct {
	plan          *IndexScanPlan
	used          []int // conjunct indices consumed
	equalities    int
	hasRange      bool
	sortSatisfied bool
	fanOut        bool
	// covering is the covering promotion of this match, when the query
	// carries a projection the index can answer by itself.
	covering *CoveringIndexScanPlan
}

func (m *indexMatch) better(o *indexMatch) bool {
	if o == nil {
		return true
	}
	if m.sortSatisfied != o.sortSatisfied {
		return m.sortSatisfied
	}
	if m.equalities != o.equalities {
		return m.equalities > o.equalities
	}
	if m.hasRange != o.hasRange {
		return m.hasRange
	}
	if len(m.used) != len(o.used) {
		return len(m.used) > len(o.used)
	}
	// Equal filtering power: prefer the index that avoids record fetches
	// entirely (covering beats fetching, §6 / Appendix A).
	return m.covering != nil && o.covering == nil
}

// coveringFullScan is the index-only fallback for projected queries no index
// match narrows: any covering-capable value index can still answer the query
// by scanning its whole extent, which reads index entries instead of records.
// A requested sort must be satisfied by the index's leading columns.
func (p *Planner) coveringFullScan(q query.RecordQuery, conjuncts []*conjunct) *CoveringIndexScanPlan {
	if len(q.Projection) == 0 {
		return nil
	}
	for _, ix := range p.md.Indexes() {
		if ix.Type != metadata.IndexValue || !indexCoversTypes(ix, q.RecordTypes, p.md) {
			continue
		}
		if m := p.matchIndex(ix, q, conjuncts); m != nil && m.covering != nil {
			return m.covering
		}
	}
	return nil
}

// bestIndexMatch tries every readable value index applicable to the queried
// types and returns the best match, or nil when none helps (no conjunct
// consumed and no sort satisfied).
func (p *Planner) bestIndexMatch(q query.RecordQuery, conjuncts []*conjunct) *indexMatch {
	var best *indexMatch
	for _, ix := range p.md.Indexes() {
		if ix.Type != metadata.IndexValue && ix.Type != metadata.IndexRank {
			continue
		}
		if !indexCoversTypes(ix, q.RecordTypes, p.md) {
			continue
		}
		if m := p.matchIndex(ix, q, conjuncts); m != nil && m.better(best) {
			best = m
		}
	}
	if best != nil && best.equalities == 0 && !best.hasRange && !best.sortSatisfied {
		return nil
	}
	return best
}

// indexCoversTypes checks that the index applies to every queried type —
// and, for a query over all types, that the index is universal (§7).
func indexCoversTypes(ix *metadata.Index, types []string, md *metadata.MetaData) bool {
	if len(ix.RecordTypes) == 0 {
		return true
	}
	if len(types) == 0 {
		return false // query spans all types; a typed index misses some
	}
	for _, t := range types {
		if !ix.AppliesTo(t) {
			return false
		}
	}
	return true
}

// matchIndex aligns conjuncts with the index's key columns: a prefix of
// equality comparisons, then at most one range comparison, then (optionally)
// the query's sort order on the next columns.
func (p *Planner) matchIndex(ix *metadata.Index, q query.RecordQuery, conjuncts []*conjunct) *indexMatch {
	cols := indexKeyColumns(ix)
	if len(cols) == 0 {
		return nil
	}
	m := &indexMatch{}
	var prefix tuple.Tuple
	ci := 0
	for ci < len(cols) {
		col := cols[ci]
		idx, fc := findEquality(conjuncts, col)
		if fc == nil {
			break
		}
		prefix = prefix.Append(fc.Operand)
		m.used = append(m.used, idx)
		m.equalities++
		if col.Fan == keyexpr.FanOut {
			m.fanOut = true
		}
		ci++
	}
	low := append(tuple.Tuple{}, prefix...)
	high := append(tuple.Tuple{}, prefix...)
	lowInc, highInc := true, true
	if ci < len(cols) {
		if idx, fc := findRange(conjuncts, cols[ci]); fc != nil {
			m.used = append(m.used, idx)
			m.hasRange = true
			if cols[ci].Fan == keyexpr.FanOut {
				m.fanOut = true
			}
			switch fc.Op {
			case query.GT:
				low = low.Append(fc.Operand)
				lowInc = false
			case query.GE:
				low = low.Append(fc.Operand)
			case query.LT:
				high = high.Append(fc.Operand)
				highInc = false
			case query.LE:
				high = high.Append(fc.Operand)
			case query.StartsWith:
				// The prefix's successor, when it has one, bounds the range
				// above; bindRange computes it from the binding.
				low = low.Append(fc.Operand)
				high = high.Append(successor{fc.Operand})
				highInc = false
			}
			// A complementary bound on the same column (lo <= x AND x < hi)
			// also rides the index range instead of a residual filter — but
			// not on fan-out columns, where each one-of-them conjunct may be
			// satisfied by a different element, so intersecting the bounds
			// into one entry range would drop matches.
			var wantOps []query.Comparison
			if cols[ci].Fan != keyexpr.FanOut {
				switch fc.Op {
				case query.GT, query.GE:
					wantOps = []query.Comparison{query.LT, query.LE}
				case query.LT, query.LE:
					wantOps = []query.Comparison{query.GT, query.GE}
				}
			}
			if len(wantOps) > 0 {
				if idx2, fc2 := findRangeOp(conjuncts, cols[ci], idx, wantOps); fc2 != nil {
					m.used = append(m.used, idx2)
					switch fc2.Op {
					case query.GT:
						low = low.Append(fc2.Operand)
						lowInc = false
					case query.GE:
						low = low.Append(fc2.Operand)
					case query.LT:
						high = high.Append(fc2.Operand)
						highInc = false
					case query.LE:
						high = high.Append(fc2.Operand)
					}
				}
			}
		}
	}
	// Sort satisfaction: after the equality-bound prefix, the next columns
	// must match the requested sort exactly (§3.1).
	if q.Sort != nil {
		sortCols := q.Sort.Columns()
		rest := cols[m.equalities:]
		if len(rest) < len(sortCols) {
			return nil
		}
		for i, sc := range sortCols {
			if !sameColumn(rest[i], sc) {
				return nil
			}
		}
		m.sortSatisfied = true
	}
	var lowT, highT tuple.Tuple
	if len(low) > 0 {
		lowT = low
	}
	if len(high) > 0 {
		highT = high
	}
	m.plan = &IndexScanPlan{
		IndexName:  ix.Name,
		Range:      index.TupleRange{Low: lowT, High: highT, LowInclusive: lowInc, HighInclusive: highInc},
		Reverse:    q.Sort != nil && q.SortReverse,
		FullyBound: m.equalities == len(cols) && !m.hasRange,
		FanOut:     m.fanOut,
	}
	m.covering = p.coveringFor(ix, q, conjuncts, m)
	return m
}

// indexKeyColumns returns the key columns usable for matching (excluding
// covering value columns of KeyWithValue expressions).
func indexKeyColumns(ix *metadata.Index) []keyexpr.Column {
	cols := ix.Expression.Columns()
	if kwv, ok := ix.Expression.(keyexpr.KeyWithValueExpression); ok {
		cols = cols[:kwv.KeyColumns()]
	}
	return cols
}

func pathEqual(a []string, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameColumn(a, b keyexpr.Column) bool {
	return a.Kind == b.Kind && pathEqual(a.Path, b.Path) && a.Fan == b.Fan &&
		a.Function == b.Function
}

// findEquality locates an unconsumed EQ conjunct matching an index column.
func findEquality(conjuncts []*conjunct, col keyexpr.Column) (int, *query.FieldComponent) {
	if col.Kind != keyexpr.ColField {
		return -1, nil
	}
	for i, c := range conjuncts {
		if c.consumed || c.field == nil || c.field.Op != query.EQ {
			continue
		}
		if !pathEqual(c.field.Path(), col.Path) {
			continue
		}
		if c.field.AnyOf() != (col.Fan == keyexpr.FanOut) {
			continue
		}
		return i, c.field
	}
	return -1, nil
}

// findRange locates an unconsumed range conjunct for an index column.
func findRange(conjuncts []*conjunct, col keyexpr.Column) (int, *query.FieldComponent) {
	if col.Kind != keyexpr.ColField {
		return -1, nil
	}
	for i, c := range conjuncts {
		if c.consumed || c.field == nil {
			continue
		}
		switch c.field.Op {
		case query.LT, query.LE, query.GT, query.GE, query.StartsWith:
		default:
			continue
		}
		if !pathEqual(c.field.Path(), col.Path) {
			continue
		}
		if c.field.AnyOf() != (col.Fan == keyexpr.FanOut) {
			continue
		}
		return i, c.field
	}
	return -1, nil
}

// findRangeOp locates an unconsumed range conjunct for an index column with
// one of the given operators, skipping the conjunct at index exclude.
func findRangeOp(conjuncts []*conjunct, col keyexpr.Column, exclude int, ops []query.Comparison) (int, *query.FieldComponent) {
	if col.Kind != keyexpr.ColField {
		return -1, nil
	}
	for i, c := range conjuncts {
		if i == exclude || c.consumed || c.field == nil {
			continue
		}
		matched := false
		for _, op := range ops {
			if c.field.Op == op {
				matched = true
				break
			}
		}
		if !matched {
			continue
		}
		if !pathEqual(c.field.Path(), col.Path) {
			continue
		}
		if c.field.AnyOf() != (col.Fan == keyexpr.FanOut) {
			continue
		}
		return i, c.field
	}
	return -1, nil
}

// nextString returns the smallest string greater than every string with
// prefix s (for BeginsWith ranges).
func nextString(s string) (string, bool) {
	b := []byte(s)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != 0xFF {
			b[i]++
			return string(b[:i+1]), true
		}
	}
	return "", false
}
