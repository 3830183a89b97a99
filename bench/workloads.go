package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"recordlayer"
	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/metadata"
	"recordlayer/internal/plan"
	"recordlayer/internal/tuple"
)

// workload is one traffic mix over one dataset shape. Names are permanent:
// later issues cite "metric on workload".
type workload struct {
	name string
	why  string

	tenants   int
	perTenant int
	// batchRecords is how many records one preload transaction saves.
	batchRecords int
	// opsPerSecond converts --seconds into a fixed op count. It is a frozen
	// calibration of this machine at the commit that defined the benchmark,
	// not a measurement: the timed phase runs opsPerSecond x seconds ops
	// however long they take, so every count-derived metric is exact.
	opsPerSecond int

	governed bool // Runner has a Governor + Accountant; contexts carry the tenant
	interned bool // keyspace path has an interned directory
	planner  plan.Config

	zones     []string
	churnZone bool // updates redraw the zone, so every indexed field changes
	bodyLen   func(*rand.Rand) int
	indexes   func() []*metadata.Index

	// writeSlots is the cyclic read/write pattern; readDeck and writeDeck are
	// the cyclic sub-patterns of each class. Fixed patterns, rather than
	// seeded draws, keep the op mix identical across seeds: only literals,
	// tenants and record contents vary.
	writeSlots []bool
	readDeck   []opKind
	writeDeck  []writeKind
	maxBatch   int // records per write op cycle through 1..maxBatch
	// interferePct is the share of writes that get an interfering writer.
	interferePct int

	// scanBytesLo/Span bound the full-scan shape's residual literal.
	scanBytesLo, scanBytesSpan int64
}

const (
	ixValue   = "by_value"   // the workload's main VALUE index
	ixSum     = "zone_bytes" // SUM(bytes) grouped by zone
	ixVersion = "by_version" // VERSION(zone, version)
	ixRank    = "score_rank" // RANK(score)
	ixText    = "body_text"  // TEXT(body)
	ixZoneSc  = "by_zone_score"
	ixCat     = "by_cat"
	ixTag     = "by_tag"
)

func zoneNames(n int) []string { return nameTable("zone-", n) }

func uniformLen(lo, hi int) func(*rand.Rand) int {
	return func(r *rand.Rand) int { return lo + r.Intn(hi-lo+1) }
}

// logNormalLen draws a heavy-tailed payload size, as workload.TxnMix does.
func logNormalLen(median float64, sigma float64, lo, hi int) func(*rand.Rand) int {
	return func(r *rand.Rand) int {
		v := int(math.Exp(r.NormFloat64()*sigma + math.Log(median)))
		return max(lo, min(hi, v))
	}
}

func pattern(s string) []bool {
	out := make([]bool, len(s))
	for i, c := range s {
		out[i] = c == 'w'
	}
	return out
}

var workloads = []*workload{
	{
		name:    "ck_mix",
		why:     "the paper's CloudKit mix (8.2): every layer does moderate work, so a gain for one op class that hurts another shows",
		tenants: 64, perTenant: 1000, batchRecords: 100, opsPerSecond: 6500,
		zones:   zoneNames(8),
		bodyLen: logNormalLen(256, 0.7, 32, 2048),
		indexes: func() []*metadata.Index {
			return []*metadata.Index{
				{Name: ixValue, Type: metadata.IndexValue,
					Expression: keyexpr.Then(keyexpr.Field("zone"), keyexpr.Field("id"))},
				{Name: ixSum, Type: metadata.IndexSum,
					Expression: keyexpr.GroupBy(keyexpr.Field("bytes"), keyexpr.Field("zone"))},
				{Name: ixVersion, Type: metadata.IndexVersion,
					Expression: keyexpr.Then(keyexpr.Field("zone"), keyexpr.Version())},
			}
		},
		writeSlots: pattern("rw"),
		readDeck:   []opKind{opZoneQuery, opPointLoad, opSyncPage},
		// 70 % update, 15 % insert, 15 % delete.
		writeDeck: []writeKind{wUpdate, wUpdate, wInsert, wUpdate, wUpdate, wUpdate, wDelete,
			wUpdate, wUpdate, wUpdate, wInsert, wUpdate, wUpdate, wDelete,
			wUpdate, wUpdate, wInsert, wUpdate, wUpdate, wDelete},
		maxBatch:     4,
		interferePct: 3,
	},
	{
		name:    "tenant_fanout",
		why:     "many tiny stores, one random tenant per op: keyspace resolution, store open and per-tenant governor state dominate; plan, index and cursor idle",
		tenants: 20000, perTenant: 4, batchRecords: 12, opsPerSecond: 36000,
		governed: true, interned: true,
		zones:   zoneNames(2),
		bodyLen: uniformLen(48, 80),
		indexes: func() []*metadata.Index {
			return []*metadata.Index{
				{Name: ixValue, Type: metadata.IndexValue, Expression: keyexpr.Field("score")},
			}
		},
		writeSlots: pattern("rrwrw"),
		readDeck:   []opKind{opPointLoad},
		writeDeck:  []writeKind{wUpdate},
		maxBatch:   1,
	},
	{
		name:    "query_scan",
		why:     "planner, cursors, fetch pipelining and range reads do the work and index maintenance little; literals overflow the plan cache",
		tenants: 4, perTenant: 10000, batchRecords: 100, opsPerSecond: 1200,
		planner: plan.Config{PreferIndexIntersection: true},
		zones:   zoneNames(16),
		bodyLen: uniformLen(64, 192),
		indexes: func() []*metadata.Index {
			return []*metadata.Index{
				{Name: ixValue, Type: metadata.IndexValue, Expression: keyexpr.Field("score")},
				{Name: ixZoneSc, Type: metadata.IndexValue,
					Expression: keyexpr.Then(keyexpr.Field("zone"), keyexpr.Field("score"))},
				{Name: ixCat, Type: metadata.IndexValue, Expression: keyexpr.Field("cat")},
				{Name: ixTag, Type: metadata.IndexValue, Expression: keyexpr.Field("tag")},
			}
		},
		writeSlots:  pattern("rrrrrrrrrw"),
		readDeck:    []opKind{opPagedRange, opCovering, opUnion, opIntersection, opFullScan},
		writeDeck:   []writeKind{wUpdate},
		maxBatch:    1,
		scanBytesLo: 160, scanBytesSpan: 30,
	},
	{
		name:    "index_write",
		why:     "the index layer used the other way: maintainers, rank skip list, bunched text map and the simulator's write buffer; a scan gain bought with extra index entries shows here",
		tenants: 4, perTenant: 750, batchRecords: 4, opsPerSecond: 600,
		zones:     zoneNames(16),
		churnZone: true,
		bodyLen:   uniformLen(90, 150),
		indexes: func() []*metadata.Index {
			return []*metadata.Index{
				{Name: ixValue, Type: metadata.IndexValue, Expression: keyexpr.Field("score")},
				{Name: ixSum, Type: metadata.IndexSum,
					Expression: keyexpr.GroupBy(keyexpr.Field("bytes"), keyexpr.Field("zone"))},
				{Name: ixVersion, Type: metadata.IndexVersion, Expression: keyexpr.Version()},
				{Name: ixRank, Type: metadata.IndexRank, Expression: keyexpr.Field("score")},
				{Name: ixText, Type: metadata.IndexText, Expression: keyexpr.Field("body")},
			}
		},
		writeSlots: pattern("wwrww"),
		readDeck:   []opKind{opRankOf, opTextToken, opSumAgg},
		// 60 % update, 20 % insert, 20 % delete.
		writeDeck: []writeKind{wUpdate, wInsert, wUpdate, wDelete, wUpdate},
		maxBatch:  4,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workload) metaData() *metadata.MetaData {
	b := metadata.NewBuilder(1).
		SetStoreRecordVersions(true).
		AddRecordType(noteDesc, keyexpr.Field("id"))
	for _, ix := range w.indexes() {
		b = b.AddIndex(ix, "Note")
	}
	return b.MustBuild()
}

func (w *workload) template() []string {
	if w.interned {
		return []string{"app", "container", "user"}
	}
	return []string{"app", "user"}
}

func (w *workload) hasIndex(name string) bool {
	for _, ix := range w.indexes() {
		if ix.Name == name {
			return true
		}
	}
	return false
}

func pk(id int64) tuple.Tuple { return tuple.Tuple{id} }

func idOf(r *recordlayer.Record) int64 { return r.PrimaryKey[0].(int64) }

// preload saves the generated dataset through the façade, one Runner.Run per
// generated transaction.
func (e *env) preload(g *generated) error {
	for _, txn := range g.preload {
		txn := txn
		_, err := e.runner.Run(e.tenantCtx(txn[0].tenant), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			for _, b := range txn {
				st, err := e.open(ctx, tr, b.tenant)
				if err != nil {
					return nil, err
				}
				if _, err := st.SaveRecords(b.msgs); err != nil {
					return nil, err
				}
			}
			return nil, nil
		})
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// exec runs one generated op through the public façade and leaves what a
// read returned in e.res. It is the only code path that touches the library
// during the timed phase, and the oracle re-runs reads through it too.
func (e *env) exec(o *op) error {
	e.res = e.res[:0]
	ctx := e.tenantCtx(o.tenant)
	if e.tr != nil {
		ctx = e.tr.begin(ctx)
		defer e.tr.end()
	}
	switch o.kind {
	case opSave, opDelete:
		return e.execWrite(ctx, o)
	case opPagedRange:
		return e.execPaged(ctx, o)
	}
	_, err := e.runner.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		e.res = e.res[:0]
		st, err := e.open(ctx, tr, o.tenant)
		if err != nil {
			return nil, err
		}
		defer e.markFnEnd()
		switch o.kind {
		case opZoneQuery:
			_, err = e.query(ctx, st, o, recordlayer.ExecuteProperties{RowLimit: 20})
		case opFullScan:
			_, err = e.query(ctx, st, o, recordlayer.ExecuteProperties{ScanRecordLimit: fullScanLimit})
		case opCovering, opUnion, opIntersection:
			_, err = e.query(ctx, st, o, recordlayer.ExecuteProperties{})
		default:
			t0 := e.spanStart()
			err = e.readDirect(st, o)
			e.span(spanExecute, t0)
		}
		return nil, err
	})
	e.spanCommit()
	return err
}

// readDirect runs the reads that bypass the planner: a load by primary key,
// the VERSION-index page, and the rank, text and aggregate index reads.
func (e *env) readDirect(st *recordlayer.Store, o *op) error {
	switch o.kind {
	case opPointLoad:
		rec, err := st.LoadRecordByKey(pk(o.ids[0]))
		if err != nil {
			return err
		}
		if rec != nil {
			e.res = append(e.res, idOf(rec))
		}
	case opSyncPage:
		entries, err := st.ScanIndex(ixVersion, index.TupleRange{
			Low: tuple.Tuple{o.zone}, LowInclusive: true,
			High: tuple.Tuple{o.zone}, HighInclusive: true,
		}, index.ScanOptions{Reverse: true})
		if err != nil {
			return err
		}
		recs, _, _, err := cursor.Collect(st.FetchIndexedPipelined(
			cursor.Limit(entries, 20), false, recordlayer.DefaultPipelineDepth))
		if err != nil {
			return err
		}
		for _, r := range recs {
			e.res = append(e.res, idOf(r))
		}
	case opRankOf:
		rank, err := st.RankOfValue(ixRank, tuple.Tuple{o.lo})
		if err != nil {
			return err
		}
		e.res = append(e.res, rank)
	case opTextToken:
		posts, err := st.TextSearchToken(ixText, o.token)
		if err != nil {
			return err
		}
		for _, p := range posts {
			e.res = append(e.res, p.PrimaryKey[0].(int64))
		}
	case opSumAgg:
		sum, err := st.AggregateInt64(ixSum, tuple.Tuple{o.zone})
		if err != nil {
			return err
		}
		e.res = append(e.res, sum)
	default:
		return fmt.Errorf("bench: op kind %d is not a read", o.kind)
	}
	return nil
}

// query plans o.q through the provider's plan cache and drains one execution,
// appending the ids it returned to e.res.
func (e *env) query(ctx context.Context, st *recordlayer.Store, o *op, props recordlayer.ExecuteProperties) (*recordlayer.RecordCursor, error) {
	t0 := e.spanStart()
	pl, err := st.Plan(o.q)
	e.span(spanPlan, t0)
	if err != nil {
		return nil, err
	}
	t0 = e.spanStart()
	cur, err := st.ExecutePlan(ctx, pl, props)
	if err != nil {
		return nil, err
	}
	err = cur.ForEach(func(r *recordlayer.Record) error {
		e.res = append(e.res, idOf(r))
		return nil
	})
	e.span(spanExecute, t0)
	return cur, err
}

// execPaged reads pageCount pages of pageRows, each page its own read
// transaction resumed from the previous page's continuation, as a paging
// client does.
func (e *env) execPaged(ctx context.Context, o *op) error {
	props := recordlayer.ExecuteProperties{RowLimit: pageRows}
	for page := 0; page < pageCount; page++ {
		mark := len(e.res)
		cont, err := e.runner.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			e.res = e.res[:mark]
			st, err := e.open(ctx, tr, o.tenant)
			if err != nil {
				return nil, err
			}
			defer e.markFnEnd()
			cur, err := e.query(ctx, st, o, props)
			if err != nil {
				return nil, err
			}
			return cur.Continuation(), nil
		})
		e.spanCommit()
		if err != nil {
			return err
		}
		if cont == nil || cont.([]byte) == nil {
			return nil
		}
		props = props.WithContinuation(cont.([]byte))
	}
	return nil
}

// execWrite saves or deletes the op's records in one transaction. A write
// marked interfere gets, inside its first attempt and after its own reads,
// one committed writer on its first record, so the attempt's commit conflicts
// and the Runner's retry and backoff path runs for real.
func (e *env) execWrite(ctx context.Context, o *op) error {
	attempt := 0
	_, err := e.runner.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		attempt++
		st, err := e.open(ctx, tr, o.tenant)
		if err != nil {
			return nil, err
		}
		defer e.markFnEnd()
		t0 := e.spanStart()
		if o.kind == opSave {
			_, err = st.SaveRecords(o.msgs)
		} else {
			for _, id := range o.ids {
				if _, err = st.DeleteRecord(pk(id)); err != nil {
					break
				}
			}
		}
		e.span(spanSave, t0)
		if err != nil {
			return nil, err
		}
		if o.interfere && attempt == 1 {
			_, err = e.runner.Run(e.ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
				st, err := e.openStore(ctx, tr, o.tenant)
				if err != nil {
					return nil, err
				}
				_, err = st.SaveRecord(o.intf)
				return nil, err
			})
		}
		return nil, err
	})
	e.spanCommit()
	return err
}
