package bunched

import (
	"sort"

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
//
// OnRead, when set, observes each *resolved* boundary read an op actually
// consumes — the pairs a serial execution would have read at apply time — so
// callers can meter identically whether ops are batched or serial.
type Async struct {
	m  *Map
	tr *fdb.Transaction
	// OnRead receives the resolved pairs of each consumed boundary read.
	OnRead func(kvs []fdb.KeyValue)
	ov     *overlay.Overlay
}

// Async creates a pipelining view of the map over one transaction. Every
// mutation of the map's subspace in this transaction must go through it for
// boundary reads to resolve exactly.
func (m *Map) Async(tr *fdb.Transaction) *Async {
	return &Async{m: m, tr: tr, ov: overlay.New(tr)}
}

// Op is one issued-but-unapplied mutation.
type Op struct {
	a       *Async
	token   string
	pk      tuple.Tuple
	offsets []int64
	insert  bool
	seq     int
	locate  *fdb.FutureRange
	next    *fdb.FutureRange
}

// IssueInsert starts an insert/upsert of (token, pk) -> offsets. Both
// boundary scans go out, the locate scan a delete issues and then the
// neighbor scan: the neighbor read is consumed only on the spill path, but
// issuing it up front keeps the op at one latency window. The spill entry's
// primary key is always >= pk and below the next bunch's anchor, so the one
// neighbor scan serves either spill shape.
func (a *Async) IssueInsert(token string, pk tuple.Tuple, offsets []int64) *Op {
	op := a.IssueDelete(token, pk)
	op.offsets, op.insert = offsets, true
	_, end := a.m.space.RangeForTuple(tuple.Tuple{token})
	op.next = a.tr.GetRangeAsync(fdb.KeyAfter(a.m.key(token, pk)), end, fdb.RangeOptions{Limit: 1})
	return op
}

// IssueDelete starts a delete of (token, pk); only the locate scan is needed.
func (a *Async) IssueDelete(token string, pk tuple.Tuple) *Op {
	op := &Op{a: a, token: token, pk: pk, seq: a.ov.Issue()}
	begin, _ := a.m.space.RangeForTuple(tuple.Tuple{token})
	op.locate = a.tr.GetRangeAsync(begin, fdb.KeyAfter(a.m.key(token, pk)), fdb.RangeOptions{Limit: 1, Reverse: true})
	return op
}

// boundary resolves one Limit-1 scan over [begin, end) to the physical pair a
// serial read at apply time would have returned, and reports it to the
// metering hook.
func (op *Op) boundary(fut *fdb.FutureRange, begin, end []byte, reverse bool) (fdb.KeyValue, bool, error) {
	kv, ok, err := op.a.ov.Boundary(fut, begin, end, reverse, false)
	if err != nil {
		return kv, false, err
	}
	if read := op.a.OnRead; read != nil {
		var kvs []fdb.KeyValue
		if ok {
			kvs = []fdb.KeyValue{kv}
		}
		read(kvs)
	}
	return kv, ok, nil
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

func (op *Op) applyInsert() error {
	a := op.a
	begin, endTok := a.m.space.RangeForTuple(tuple.Tuple{op.token})
	logical := a.m.key(op.token, op.pk)
	loc, ok, err := op.boundary(op.locate, begin, fdb.KeyAfter(logical), true)
	if err != nil {
		return err
	}
	newEntry := Entry{PK: op.pk, Offsets: op.offsets}
	if ok {
		_, entries, err := a.m.decodeBunch(loc.Key, loc.Value)
		if err != nil {
			return err
		}
		idx := sort.Search(len(entries), func(i int) bool { return pkCompare(entries[i].PK, op.pk) >= 0 })
		if idx < len(entries) && pkCompare(entries[idx].PK, op.pk) == 0 {
			entries[idx] = newEntry
			return a.ov.Set(loc.Key, encodeBunch(entries))
		}
		entries = append(entries, Entry{})
		copy(entries[idx+1:], entries[idx:])
		entries[idx] = newEntry
		if len(entries) <= a.m.bunchSize {
			return a.ov.Set(loc.Key, encodeBunch(entries))
		}
		// Overflow: evict the biggest primary key, then absorb the neighbor
		// bunch when the result fits.
		spill := entries[len(entries)-1]
		entries = entries[:len(entries)-1]
		if err := a.ov.Set(loc.Key, encodeBunch(entries)); err != nil {
			return err
		}
		return op.applySpill(spill, fdb.KeyAfter(logical), endTok)
	}
	return op.applySpill(newEntry, fdb.KeyAfter(logical), endTok)
}

// applySpill writes entry as a new bunch, merging the following bunch into it
// when the combination fits — insertSpill resolved through the pipeline.
func (op *Op) applySpill(entry Entry, nbrBegin, nbrEnd []byte) error {
	a := op.a
	nbr, ok, err := op.boundary(op.next, nbrBegin, nbrEnd, false)
	if err != nil {
		return err
	}
	bunch := []Entry{entry}
	if ok {
		_, nEntries, err := a.m.decodeBunch(nbr.Key, nbr.Value)
		if err != nil {
			return err
		}
		if len(nEntries)+1 <= a.m.bunchSize {
			if err := a.ov.Clear(nbr.Key); err != nil {
				return err
			}
			bunch = append(bunch, nEntries...)
		}
	}
	return a.ov.Set(a.m.key(op.token, entry.PK), encodeBunch(bunch))
}

func (op *Op) applyDelete() (bool, error) {
	a := op.a
	begin, _ := a.m.space.RangeForTuple(tuple.Tuple{op.token})
	loc, ok, err := op.boundary(op.locate, begin, fdb.KeyAfter(a.m.key(op.token, op.pk)), true)
	if err != nil || !ok {
		return false, err
	}
	_, entries, err := a.m.decodeBunch(loc.Key, loc.Value)
	if err != nil {
		return false, err
	}
	idx := -1
	for i, e := range entries {
		if pkCompare(e.PK, op.pk) == 0 {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false, nil
	}
	if len(entries) == 1 {
		return true, a.ov.Clear(loc.Key)
	}
	entries = append(entries[:idx], entries[idx+1:]...)
	if idx == 0 {
		// The bunch's key carried this primary key: re-anchor at the next.
		if err := a.ov.Clear(loc.Key); err != nil {
			return false, err
		}
		return true, a.ov.Set(a.m.key(op.token, entries[0].PK), encodeBunch(entries))
	}
	return true, a.ov.Set(loc.Key, encodeBunch(entries))
}
