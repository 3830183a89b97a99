package main

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"recordlayer"
	"recordlayer/internal/core"
	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/message"
	"recordlayer/internal/subspace"
)

// The correctness oracle: a deliberately naive model of the tenants' stores —
// a map of live records per tenant, every index answer recomputed from
// scratch by looping over it — checked against the real stores after the
// timed phase, outside all timing.

type model struct {
	recs []map[int64]row
	next int64
}

// row is one live record as the model keeps it: the field values, not the
// message, so the model adds little for the collector to mark during the
// timed phase.
type row struct {
	zone, cat, tag, body string
	score, bytes         int64
	// seq is the record's position in commit order, the order the VERSION
	// index exposes.
	seq     int64
	payload int // marshaled size
}

func newModel(w *workload) *model {
	m := &model{recs: make([]map[int64]row, w.tenants)}
	for t := range m.recs {
		m.recs[t] = make(map[int64]row, w.perTenant)
	}
	return m
}

func msgID(msg *message.Message) int64 { return num(msg, "id") }

func (m *model) save(t int64, msg *message.Message) {
	m.next++
	m.recs[t][msgID(msg)] = row{
		zone: str(msg, "zone"), cat: str(msg, "cat"), tag: str(msg, "tag"), body: str(msg, "body"),
		score: num(msg, "score"), bytes: num(msg, "bytes"), seq: m.next, payload: payloadOf(msg),
	}
}

// matches reports whether a stored record carries exactly the row's values.
func (r row) matches(msg *message.Message) bool {
	return r.zone == str(msg, "zone") && r.cat == str(msg, "cat") && r.tag == str(msg, "tag") &&
		r.body == str(msg, "body") && r.score == num(msg, "score") && r.bytes == num(msg, "bytes")
}

// apply replays one write. An interfering writer commits first, then the
// op's own retry overwrites (or deletes) what it saved.
func (m *model) apply(o *op) {
	if !o.kind.isWrite() {
		return
	}
	if o.interfere {
		m.save(o.tenant, o.intf)
	}
	if o.kind == opDelete {
		for _, id := range o.ids {
			delete(m.recs[o.tenant], id)
		}
		return
	}
	for _, msg := range o.msgs {
		m.save(o.tenant, msg)
	}
}

func str(msg *message.Message, f string) string {
	v, _ := msg.Get(f)
	return v.(string)
}

func num(msg *message.Message, f string) int64 {
	v, _ := msg.Get(f)
	return v.(int64)
}

type idRow struct {
	id int64
	row
}

// sortedIDs returns the ids of tenant t's records passing keep, ordered by
// less (nil: by id, which is primary-key order).
func (m *model) sortedIDs(t int64, keep func(row) bool, less func(a, b row) bool) []int64 {
	var hits []idRow
	for id, r := range m.recs[t] {
		if keep(r) {
			hits = append(hits, idRow{id, r})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if less != nil {
			if less(hits[i].row, hits[j].row) {
				return true
			}
			if less(hits[j].row, hits[i].row) {
				return false
			}
		}
		return hits[i].id < hits[j].id
	})
	ids := make([]int64, len(hits))
	for i, h := range hits {
		ids[i] = h.id
	}
	return ids
}

func head(ids []int64, n int) []int64 {
	if len(ids) > n {
		return ids[:n]
	}
	return ids
}

// answer is what read op o must return against the model's state.
func (m *model) answer(o *op) []int64 {
	t := o.tenant
	byScore := func(a, b row) bool { return a.score < b.score }
	inScore := func(r row) bool { return r.score >= o.lo && r.score < o.hi }
	inZone := func(r row) bool { return r.zone == o.zone }
	switch o.kind {
	case opZoneQuery:
		return head(m.sortedIDs(t, inZone, nil), 20)
	case opPointLoad:
		if _, ok := m.recs[t][o.ids[0]]; ok {
			return []int64{o.ids[0]}
		}
		return nil
	case opSyncPage:
		return head(m.sortedIDs(t, inZone, func(a, b row) bool { return a.seq > b.seq }), 20)
	case opPagedRange:
		return head(m.sortedIDs(t, inScore, byScore), pageRows*pageCount)
	case opCovering:
		return m.sortedIDs(t, func(r row) bool { return inZone(r) && inScore(r) }, byScore)
	case opUnion:
		return m.sortedIDs(t, func(r row) bool { return r.cat == o.cats[0] || r.cat == o.cats[1] }, nil)
	case opIntersection:
		return m.sortedIDs(t, func(r row) bool { return r.cat == o.cats[0] && r.tag == o.cats[1] }, nil)
	case opFullScan:
		// The scan examines the first fullScanLimit records in primary-key
		// order and returns those passing the residual filter.
		var out []int64
		for _, id := range head(m.sortedIDs(t, func(row) bool { return true }, nil), fullScanLimit) {
			if m.recs[t][id].bytes >= o.lo {
				out = append(out, id)
			}
		}
		return out
	case opRankOf:
		n := int64(0)
		for _, r := range m.recs[t] {
			if r.score < o.lo {
				n++
			}
		}
		return []int64{n}
	case opTextToken:
		return m.sortedIDs(t, func(r row) bool {
			for _, tok := range strings.Fields(r.body) {
				if tok == o.token {
					return true
				}
			}
			return false
		}, nil)
	case opSumAgg:
		sum := int64(0)
		for _, r := range m.recs[t] {
			if r.zone == o.zone {
				sum += r.bytes
			}
		}
		return []int64{sum}
	}
	return nil
}

func equalIDs(a, b []int64) bool {
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

const (
	// checkedTenants bounds how many tenants get the full content comparison
	// (all of them unless the workload has thousands).
	checkedTenants = 512
	sampledReads   = 50
)

// check compares the stores with the model and returns space_amp. Mismatches
// are recorded on res; only an infrastructure error is returned.
func (e *env) check(g *generated, res *result) (float64, error) {
	m := g.model
	w := e.w
	tr := e.tr
	e.tr = nil // the check is not part of any traced run
	defer func() { e.tr = tr }()

	// 1. Record counts and contents, via ScanRecords.
	stride := max(1, w.tenants/checkedTenants)
	for t := int64(0); t < int64(w.tenants); t += int64(stride) {
		recs, err := e.scanAll(t)
		if err != nil {
			return 0, err
		}
		if len(recs) != len(m.recs[t]) {
			res.fail("tenant %d: store has %d records, model %d", t, len(recs), len(m.recs[t]))
			continue
		}
		for _, r := range recs {
			if want, ok := m.recs[t][idOf(r)]; !ok || !want.matches(r.Message) {
				res.fail("tenant %d: record %d differs from the model", t, idOf(r))
				break
			}
		}
	}

	// 2. Every read shape's result set, on sampled ops against the final state.
	var reads []*op
	timed := g.timed()
	for i := range timed {
		if !timed[i].kind.isWrite() {
			reads = append(reads, &timed[i])
		}
	}
	step := max(1, len(reads)/sampledReads)
	for i := 0; i < len(reads); i += step {
		if err := e.checkRead(m, reads[i], res); err != nil {
			return 0, err
		}
	}

	// 3. The SUM aggregate and RankOfValue, wherever the indexes exist.
	for t := int64(0); t < int64(min(w.tenants, 4)); t++ {
		if w.hasIndex(ixSum) {
			for _, z := range w.zones {
				if err := e.checkRead(m, &op{kind: opSumAgg, tenant: t, lits: &lits{zone: z}}, res); err != nil {
					return 0, err
				}
			}
		}
		if w.hasIndex(ixRank) {
			for _, s := range []int64{0, scoreSpace / 3, scoreSpace / 2, scoreSpace} {
				if err := e.checkRead(m, &op{kind: opRankOf, tenant: t, lits: &lits{lo: s}}, res); err != nil {
					return 0, err
				}
			}
		}
	}

	// 4. A clean scrub of the VALUE index, both directions.
	for t := int64(0); t < int64(min(w.tenants, 4)); t++ {
		space, err := e.tenantSpace(t)
		if err != nil {
			return 0, err
		}
		rep, err := (&recordlayer.Scrubber{DB: e.db, MetaData: e.md, Space: space, IndexName: ixValue}).Scrub(e.ctx)
		if err != nil {
			return 0, err
		}
		if !rep.Clean() {
			res.fail("tenant %d: scrub of %s found %d issues, first: %s", t, ixValue, len(rep.Issues), rep.Issues[0])
		}
	}

	// 5. Space: every stored key-value byte over the live user payload.
	stored, err := e.storedBytes()
	if err != nil {
		return 0, err
	}
	live := 0
	for t := range m.recs {
		for _, r := range m.recs[t] {
			live += r.payload
		}
	}
	return float64(stored) / float64(live), nil
}

func (e *env) checkRead(m *model, o *op, res *result) error {
	if err := e.exec(o); err != nil {
		return fmt.Errorf("oracle read (kind %d): %w", o.kind, err)
	}
	if want := m.answer(o); !equalIDs(e.res, want) {
		res.fail("read kind %d on tenant %d returned %d values, model %d (got %v want %v)",
			o.kind, o.tenant, len(e.res), len(want), head(e.res, 8), head(want, 8))
	}
	return nil
}

// scanAll reads every record of a tenant through ScanRecords, a page per
// transaction resumed by continuation: one cursor over a whole large store
// is quadratic in the records it returns (core's record cursor re-wraps its
// source once per record), which is the library's cost to fix, not the
// check's to pay.
func (e *env) scanAll(tenant int64) ([]*recordlayer.Record, error) {
	const page = 256
	type pageResult struct {
		recs []*recordlayer.Record
		cont []byte
	}
	var all []*recordlayer.Record
	var cont []byte
	for {
		v, err := e.runner.ReadRun(e.tenantCtx(tenant), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			st, err := e.openStore(ctx, tr, tenant)
			if err != nil {
				return nil, err
			}
			c := cursor.Limit(st.ScanRecords(core.ScanOptions{Snapshot: true, Continuation: cont}), page)
			recs, _, next, err := cursor.Collect(c)
			return pageResult{recs, next}, err
		})
		if err != nil {
			return nil, err
		}
		p := v.(pageResult)
		all = append(all, p.recs...)
		if len(p.recs) < page {
			return all, nil
		}
		cont = p.cont
	}
}

func (e *env) tenantSpace(tenant int64) (subspace.Subspace, error) {
	v, err := e.db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		path, err := e.ks.PathFor(e.w.template(), e.pathValues(tenant)...)
		if err != nil {
			return nil, err
		}
		return path.ToSubspace(tr)
	})
	if err != nil {
		return subspace.Subspace{}, err
	}
	return v.(subspace.Subspace), nil
}

// storedBytes sums key+value bytes of every pair in the cluster.
func (e *env) storedBytes() (int64, error) {
	total := int64(0)
	begin := []byte{}
	for {
		v, err := e.db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
			kvs, _, err := tr.Snapshot().GetRange(begin, []byte{0xFF}, fdb.RangeOptions{Limit: 20000})
			return kvs, err
		})
		if err != nil {
			return 0, err
		}
		kvs := v.([]fdb.KeyValue)
		for _, kv := range kvs {
			total += int64(len(kv.Key) + len(kv.Value))
		}
		if len(kvs) < 20000 {
			return total, nil
		}
		begin = fdb.KeyAfter(kvs[len(kvs)-1].Key)
	}
}
