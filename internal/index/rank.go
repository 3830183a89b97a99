package index

import (
	"bytes"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/kvcursor"
	"recordlayer/internal/metadata"
	"recordlayer/internal/rankedset"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// RankMaintainer implements the RANK index type (Appendix B): alongside an
// ordinary value mapping it maintains a persistent skip list over the index
// entries, giving efficient access to records by ordinal rank (leaderboards)
// and rank-of-value queries (scrollbars).
type RankMaintainer struct {
	ix    *metadata.Index
	value *ValueMaintainer

	// Per-transaction pipelining state: every skip-list mutation in one
	// transaction must flow through a single rankedset.Async so its overlay
	// sees them all. Keyed by the transaction so a maintainer reused across
	// transactions (tests, long-lived caches) starts a fresh overlay.
	asyncTr *fdb.Transaction
	async   *rankedset.Async
}

// Sub-subspaces: 0 holds the plain value entries, 1 the skip list.
const (
	rankValueSub = 0
	rankSetSub   = 1
)

func newRankMaintainer(ix *metadata.Index) (Maintainer, error) {
	vm, err := newValueMaintainer(ix)
	if err != nil {
		return nil, err
	}
	return &RankMaintainer{ix: ix, value: vm.(*ValueMaintainer)}, nil
}

func (m *RankMaintainer) set(space subspace.Subspace) *rankedset.RankedSet {
	return rankedset.New(space.Sub(rankSetSub), nil)
}

func (m *RankMaintainer) valueCtx(ctx *Context) *Context {
	sub := *ctx
	sub.Space = ctx.Space.Sub(rankValueSub)
	return &sub
}

// member encodes an index key plus primary key, both packed, as a skip-list
// member, so ties on the indexed value order deterministically by primary
// key. The member is a fresh slice: the op that takes it keeps it.
func member(key, pk []byte) []byte {
	return append(append(make([]byte, 0, len(key)+len(pk)), key...), pk...)
}

// asyncFor returns the transaction's pipelining overlay. It reads and writes
// nothing: the skip list needs no set-up (a missing head is created by the
// op that finds it missing, in the apply phase).
func (m *RankMaintainer) asyncFor(ctx *Context) *rankedset.Async {
	if m.asyncTr != ctx.Tr {
		m.async = m.set(ctx.Space).Async(ctx.Tr)
		m.asyncTr = ctx.Tr
	}
	return m.async
}

// UpdateAsync implements Maintainer: the value sub-index's probes and every
// skip-list floor read are issued here; the returned Pending resolves them
// and applies the rewrites. Skip-list ops pipeline across records through the
// shared per-transaction overlay, so Pendings must be awaited in issue order.
func (m *RankMaintainer) UpdateAsync(ctx *Context, old, new *Record) (Pending, error) {
	a := m.asyncFor(ctx)
	vm := m.value
	var oldBuf, newBuf [keyStackLen]byte
	var oldSpans, newSpans [keyStackSpans]keyexpr.KeySpan
	oldKeys, err := keysFor(vm.ix, vm.packer, old, keyexpr.NewKeys(oldBuf[:], oldSpans[:]))
	if err != nil {
		return nil, err
	}
	newKeys, err := keysFor(vm.ix, vm.packer, new, keyexpr.NewKeys(newBuf[:], newSpans[:]))
	if err != nil {
		return nil, err
	}
	var ops []*rankedset.Op
	issued := func(op *rankedset.Op) {
		if ops == nil {
			ops = make([]*rankedset.Op, 0, oldKeys.Len()+newKeys.Len())
		}
		ops = append(ops, op)
	}
	for i := 0; i < oldKeys.Len(); i++ {
		if key := oldKeys.Key(i); !newKeys.Has(key) {
			op, err := a.IssueDelete(member(key, old.packedPK()))
			if err != nil {
				return nil, err
			}
			issued(op)
		}
	}
	for i := 0; i < newKeys.Len(); i++ {
		if key := newKeys.Key(i); !oldKeys.Has(key) {
			op, err := a.IssueInsert(member(key, new.packedPK()))
			if err != nil {
				return nil, err
			}
			issued(op)
		}
	}
	// The value sub-index's probes are issued last, once nothing else can
	// fail: every error return above precedes the pending's issue, so no
	// issued work is ever abandoned (the futureawait rule).
	vp, err := vm.update(m.valueCtx(ctx), old, new, oldKeys, newKeys)
	if err != nil {
		return nil, err
	}
	if len(ops) == 0 {
		return vp, nil
	}
	return pendingFunc(func() error {
		if err := vp.Await(); err != nil {
			return err
		}
		for _, op := range ops {
			if _, err := op.Apply(); err != nil {
				return err
			}
		}
		return nil
	}), nil
}

// Rank returns the ordinal rank of a record's indexed entry; ok=false when
// the (entry, primary key) pair is not indexed.
func (m *RankMaintainer) Rank(ctx *Context, entry, pk tuple.Tuple) (int64, bool, error) {
	return m.set(ctx.Space).Rank(ctx.Tr, member(entry.Pack(), pk.Pack()))
}

// RankOfValue returns the rank a value would occupy (count of entries below
// it), whether or not it is present — the scrollbar use case.
func (m *RankMaintainer) RankOfValue(ctx *Context, entry tuple.Tuple) (int64, error) {
	return m.set(ctx.Space).CountLess(ctx.Tr, entry.Pack())
}

// ByRank returns the index entry at the given ordinal rank.
func (m *RankMaintainer) ByRank(ctx *Context, rank int64) (Entry, bool, error) {
	memberKey, ok, err := m.set(ctx.Space).Select(ctx.Tr, rank)
	if err != nil || !ok {
		return Entry{}, false, err
	}
	e, err := splitEntryKey(m.ix, memberKey, m.value.KeyColumns())
	return e, err == nil, err
}

// Size returns the number of indexed entries.
func (m *RankMaintainer) Size(ctx *Context) (int64, error) {
	return m.set(ctx.Space).Size(ctx.Tr)
}

// Scan streams entries in value order, like a VALUE index.
func (m *RankMaintainer) Scan(ctx *Context, r TupleRange, opts ScanOptions) (cursor.Cursor[Entry], error) {
	return m.value.Scan(m.valueCtx(ctx), r, opts)
}

// ScanFetched is Scan with each entry's record read in the same request.
func (m *RankMaintainer) ScanFetched(ctx *Context, r TupleRange, opts ScanOptions, record fdb.Mapper) (cursor.Cursor[Fetched], error) {
	return m.value.ScanFetched(m.valueCtx(ctx), r, opts, record)
}

// ScanByRank streams entries starting at the given rank, in value order:
// a Select to find the start, then an ordinary ordered scan — exactly how
// the paper's scrollbar example avoids linear skipping (App. B).
func (m *RankMaintainer) ScanByRank(ctx *Context, startRank int64, opts ScanOptions) (cursor.Cursor[Entry], error) {
	vctx := m.valueCtx(ctx)
	if len(opts.Continuation) > 0 {
		// Resuming: the continuation addresses the value scan directly.
		return m.value.Scan(vctx, TupleRange{}, opts)
	}
	memberKey, ok, err := m.set(ctx.Space).Select(ctx.Tr, startRank)
	if err != nil {
		return nil, err
	}
	if !ok {
		return cursor.FromSlice[Entry](nil, nil), nil
	}
	begin := make([]byte, 0, len(vctx.Space.Bytes())+len(memberKey))
	begin = append(begin, vctx.Space.Bytes()...)
	begin = append(begin, memberKey...)
	_, end := vctx.Space.Range()
	kvs := kvcursor.New(ctx.Tr, begin, end, kvcursor.Options{
		Reverse:  opts.Reverse,
		Limiter:  opts.Limiter,
		Snapshot: opts.Snapshot,
	})
	space := vctx.Space
	vm := m.value
	return cursor.Map(kvs, func(kv fdb.KeyValue) (Entry, error) {
		return vm.DecodeEntry(space, kv)
	}), nil
}

// Scrub runs one batch of a scrub. A RANK index is checked in phases: its
// value sub-index as VALUE, entries to records (0) and records to entries
// (1); the skip list's members against the value entries (2); then each
// level's fingers, recounted from the level below. A repair of the value
// sub-index inserts or deletes the member through the skip list, and the
// levels are repaired in order, so each recount trusts a repaired level. A
// report-only scrub repairs nothing: it carries each level's faults in
// b.Faults to the recount of the level above, which reads the level below as
// they correct it, so a miscounted finger is reported once.
func (m *RankMaintainer) Scrub(b *ScrubBatch) error {
	rs := m.set(b.Live.Space)
	vspace := b.Live.Space.Sub(rankValueSub)
	var err error
	switch b.Phase {
	case 0:
		err = m.scrubEntries(b, rs, vspace)
	case 1:
		var missing, mismatched []fdb.KeyValue
		if missing, mismatched, err = rebuildPairs(b, vspace); err == nil {
			err = m.fixEntries(b, vspace, [][]fdb.KeyValue{missing, mismatched}, []string{IssueMissing, IssueMismatch})
		}
	case 2:
		err = m.scrubMembers(b, rs, vspace)
	default:
		if b.Cont == nil { // a new level: the one just checked is below it
			b.Faults = [2][]rankedset.Fault{b.Faults[1]}
		}
		var c rankedset.Checked
		if c, err = rs.Check(b.Live.Tr, b.Phase-2, b.Cont, b.Limit, b.Faults[0]); err == nil {
			err = fixFaults(b, rs, c.Faults)
			b.advance(c.Next, c.Done)
		}
	}
	b.Done = b.Phase == 2+rs.Levels()
	return err
}

// memberOf returns the skip-list member of a value entry: its key past the
// value sub-index, a fresh slice the op that takes it keeps.
func memberOf(vspace subspace.Subspace, key []byte) []byte {
	return bytes.Clone(key[len(vspace.Bytes()):])
}

// scrubEntries is phase 0: the value entries as VALUE's, and the member of
// each healthy one must be in the skip list.
func (m *RankMaintainer) scrubEntries(b *ScrubBatch, rs *rankedset.RankedSet, vspace subspace.Subspace) error {
	healthy, dangling, err := checkPairs(b, vspace, func(kv fdb.KeyValue) (Entry, error) { return m.value.DecodeEntry(vspace, kv) })
	if err != nil {
		return err
	}
	probes := make([]*fdb.FutureValue, len(healthy))
	for i, kv := range healthy {
		probes[i] = b.Live.Tr.Snapshot().GetAsync(rs.Key(0, memberOf(vspace, kv.Key)))
	}
	var absent [][]byte
	for i, kv := range healthy {
		v, err := probes[i].Get()
		if err != nil {
			return err
		}
		if v == nil {
			absent = append(absent, memberOf(vspace, kv.Key))
		}
	}
	if err := m.fixEntries(b, vspace, [][]fdb.KeyValue{dangling}, []string{IssueDangling}); err != nil {
		return err
	}
	var ops []*rankedset.Op
	for _, mem := range absent {
		b.found(IssueMissing, rs.Key(0, mem))
		if b.Repair {
			op, err := m.asyncFor(b.Live).IssueInsert(mem)
			if err != nil {
				return err
			}
			ops = append(ops, op)
		}
	}
	return applyOps(ops)
}

// fixEntries records bad value entries as VALUE does, and repairs each with
// its member: a dangling entry leaves the skip list, a missing one joins it.
func (m *RankMaintainer) fixEntries(b *ScrubBatch, vspace subspace.Subspace, bad [][]fdb.KeyValue, kinds []string) error {
	if err := fixPairs(b, bad, kinds); err != nil || !b.Repair {
		return err
	}
	var ops []*rankedset.Op
	for i, kvs := range bad {
		for _, kv := range kvs {
			mem := memberOf(vspace, kv.Key)
			if len(mem) == 0 || kinds[i] == IssueMismatch {
				continue
			}
			issue := m.asyncFor(b.Live).IssueInsert
			if kinds[i] == IssueDangling {
				issue = m.asyncFor(b.Live).IssueDelete
			}
			op, err := issue(mem)
			if err != nil {
				return err
			}
			ops = append(ops, op)
		}
	}
	return applyOps(ops)
}

// scrubMembers is phase 2: every level-0 member holds count 1 and has its
// value entry. A member without one is dangling unless its record produces
// the entry, which phase 1 then reported missing.
func (m *RankMaintainer) scrubMembers(b *ScrubBatch, rs *rankedset.RankedSet, vspace subspace.Subspace) error {
	c, err := rs.Check(b.Live.Tr, 0, b.Cont, b.Limit, nil)
	if err != nil {
		return err
	}
	b.Entries += len(c.Members)
	probes := make([]*fdb.FutureRange, len(c.Members))
	for i, mem := range c.Members {
		key := append(bytes.Clone(vspace.Bytes()), mem...)
		probes[i] = b.Live.Tr.Snapshot().GetRangeAsync(key, fdb.KeyAfter(key), fdb.RangeOptions{Limit: 1})
	}
	var orphans [][]byte
	for i, mem := range c.Members {
		kvs, _, err := probes[i].Get()
		if err != nil {
			return err
		}
		if kvs.Len() == 0 {
			orphans = append(orphans, mem)
		}
	}
	var pks [][]byte
	for _, mem := range orphans {
		if e, err := splitEntryKey(m.ix, mem, m.value.keyColumns); err == nil {
			pks = append(pks, e.PackedPrimaryKey())
		}
	}
	if err := b.Load(pks); err != nil {
		return err
	}
	if err := fixFaults(b, rs, c.Faults); err != nil {
		return err
	}
	var ops []*rankedset.Op
	for _, mem := range orphans {
		key := append(bytes.Clone(vspace.Bytes()), mem...)
		rebuilt, _, err := b.Scratch.Tr.GetRange(key, fdb.KeyAfter(key), fdb.RangeOptions{Limit: 1})
		if err != nil {
			return err
		}
		if len(rebuilt) > 0 {
			continue
		}
		b.found(IssueDangling, rs.Key(0, mem))
		if b.Repair {
			op, err := m.asyncFor(b.Live).IssueDelete(bytes.Clone(mem))
			if err != nil {
				return err
			}
			ops = append(ops, op)
		}
	}
	b.advance(c.Next, c.Done)
	return applyOps(ops)
}

// fixFaults records a level's faults as issues, one per entry, and repairs
// them when the batch repairs; a report-only batch carries them instead.
func fixFaults(b *ScrubBatch, rs *rankedset.RankedSet, faults []rankedset.Fault) error {
	kinds := [...]string{rankedset.Miscount: IssueMismatch, rankedset.Ghost: IssueDangling, rankedset.Missing: IssueMissing}
	for _, f := range faults {
		b.found(kinds[f.Kind], f.Key)
	}
	if !b.Repair {
		b.Faults[1] = append(b.Faults[1], faults...)
		return nil
	}
	return rs.Fix(b.Live.Tr, faults)
}

// applyOps applies issued skip-list ops in issue order.
func applyOps(ops []*rankedset.Op) error {
	for _, op := range ops {
		if _, err := op.Apply(); err != nil {
			return err
		}
	}
	return nil
}
