package core

import (
	"bytes"
	"context"
	"fmt"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/metadata"
	"recordlayer/internal/obs"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// OnlineIndexer builds or rebuilds an index in the background (§6): the
// index starts write-only (maintained by concurrent writes but not
// readable), the builder scans the records in batches across multiple
// transactions — bounding conflicts and transaction size — and the index
// becomes readable when the scan completes. Progress persists in the store,
// so a crashed build resumes where it stopped.
//
// Online building requires an idempotent index type (VALUE, VERSION, RANK,
// TEXT): a record saved concurrently during the build may be processed both
// by its own write and by the builder. Atomic aggregate indexes are not
// idempotent; rebuild those with Store.RebuildIndexInline, which runs every
// record through the same loop as a build batch (indexRecords), pipelined
// alike, in one transaction.
//
// Every transaction of a build enters through DB with Build's context. A
// *fdb.Database runs them bare; a recordlayer.Runner under WithTenant and
// WithPriority(PriorityBackground) admits each batch behind foreground
// waiters, waits out the tenant's quota, bills the tenant, and counts its
// retries by cause. A trace on the context (obs.WithTrace) gets one
// indexer.batch span per batch (with the batch limit and records indexed in
// its attr) beside the batch's read windows.
type OnlineIndexer struct {
	DB        fdb.Door
	MetaData  *metadata.MetaData
	Space     subspace.Subspace
	IndexName string
	// BatchSize is the number of records indexed per transaction (default 64).
	BatchSize int
	Config    Config
}

func idempotentType(t metadata.IndexType) bool {
	switch t {
	case metadata.IndexValue, metadata.IndexVersion, metadata.IndexRank, metadata.IndexText:
		return true
	}
	return false
}

// Build runs the full build: write-only transition, batched scan, readable
// transition. It returns the number of records indexed.
//
// The door checks the context before every attempt, so a cancelled build
// stops at the next batch or retry without losing progress: each committed
// batch is durable, and a later Build resumes from it (the index stays
// write-only until a build completes).
func (o *OnlineIndexer) Build(ctx context.Context) (int, error) {
	ix, ok := o.MetaData.Index(o.IndexName)
	if !ok {
		return 0, fmt.Errorf("core: no index %q", o.IndexName)
	}
	if !idempotentType(ix.Type) {
		return 0, fmt.Errorf("core: index %q has non-idempotent type %s; use RebuildIndexInline", ix.Name, ix.Type)
	}
	batch := o.BatchSize
	if batch <= 0 {
		batch = 64
	}
	// Phase 1: clear any stale data and enter write-only (§6).
	//rl:idempotent clear-then-mark-write-only converges: re-running after a maybe-committed attempt re-clears and re-marks the same state
	_, err := o.DB.RunIdempotent(ctx, func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := Open(tr, o.MetaData, o.Space, OpenOptions{Config: o.Config})
		if err != nil {
			return nil, err
		}
		if s.IndexState(o.IndexName) != metadata.StateWriteOnly {
			if err := s.clearIndexData(o.IndexName); err != nil {
				return nil, err
			}
			if err := s.MarkIndexWriteOnly(o.IndexName); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		return 0, err
	}

	// Phase 2: batched scan, one transaction per batch; progress persists
	// at every batch boundary.
	total := 0
	for {
		n, done, err := o.buildBatch(ctx, batch)
		if err != nil {
			return total, err
		}
		total += n
		if done {
			break
		}
	}

	// Phase 3: mark readable and clear progress.
	//rl:idempotent clearing the progress key and marking readable applies the same end state however many times it commits
	_, err = o.DB.RunIdempotent(ctx, func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := Open(tr, o.MetaData, o.Space, OpenOptions{Config: o.Config})
		if err != nil {
			return nil, err
		}
		if err := tr.Clear(s.space.Pack(tuple.Tuple{progressSub, o.IndexName})); err != nil {
			return nil, err
		}
		return nil, s.MarkIndexReadable(o.IndexName)
	})
	return total, err
}

// buildBatch indexes up to batch records, resuming from stored progress.
// Batches are idempotent by construction — Build refuses non-idempotent index
// types — so a batch whose commit fate is unknown is simply re-run: if the
// first commit applied, the rerun finds the progress it wrote and goes on
// from there. The records an applied attempt indexed still count: an attempt
// that reads back the progress the one before it wrote carries that one's
// count into its own.
func (o *OnlineIndexer) buildBatch(ctx context.Context, batch int) (int, bool, error) {
	// last is the latest attempt that reached its commit: the progress it
	// started from and the count it carried in, the progress it wrote (nil
	// for none) and the count it returned.
	var last struct {
		from, wrote    []byte
		carried, count int
	}
	//rl:idempotent Build only accepts idempotent index types; re-indexing a batch and rewriting its progress key converges
	v, err := o.DB.RunIdempotent(ctx, func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := Open(tr, o.MetaData, o.Space, OpenOptions{Config: o.Config})
		if err != nil {
			return nil, err
		}
		ix, _ := s.md.Index(o.IndexName)
		m, ictx, err := s.maintainer(ix)
		if err != nil {
			return nil, err
		}
		progressKey := s.space.Pack(tuple.Tuple{progressSub, o.IndexName})
		cont, err := s.tr.Get(progressKey)
		if err != nil {
			return nil, err
		}
		carried := 0
		switch {
		case last.wrote != nil && bytes.Equal(cont, last.wrote):
			carried = last.count // its commit applied
		case bytes.Equal(cont, last.from):
			carried = last.carried
		}
		var t0 int64
		if s.trace != nil {
			t0 = s.tr.LatencyNow()
		}
		n, indexed, lastCont, exhausted, err := indexRecords(s.ScanRecords(ScanOptions{Continuation: cont}), ix, m, ictx, batch)
		if err != nil {
			return nil, err
		}
		if s.trace != nil {
			s.trace.Add(obs.SpanIndexerBatch, t0, s.tr.LatencyNow(), 0,
				fmt.Sprintf("batch=%d records=%d", batch, indexed))
		}
		if exhausted {
			last.from, last.wrote, last.carried, last.count = cont, nil, carried, carried+n
			return [2]int{carried + n, 1}, nil
		}
		if err := tr.Set(progressKey, lastCont); err != nil {
			return nil, err
		}
		last.from, last.wrote, last.carried, last.count = cont, lastCont, carried, carried+n
		return [2]int{carried + n, 0}, nil
	})
	if err != nil {
		return 0, false, err
	}
	res := v.([2]int)
	return res[0], res[1] == 1, nil
}

// indexRecords is the one way records are run through an index: the online
// build, the inline rebuild and the scrubber's rebuild all call it. It reads
// up to limit records from recs (all of them when limit <= 0), issues m's
// UpdateAsync(nil, rec) for every one ix applies to without awaiting any, and
// then awaits the pendings in issue order, so the batch's probe reads share
// one latency window instead of paying one per record. A nil record, a load
// that found none, is skipped. It returns the records read and indexed, the
// continuation after the last one read, and whether recs is exhausted.
func indexRecords(recs cursor.Cursor[*StoredRecord], ix *metadata.Index, m index.Maintainer, ictx *index.Context, limit int) (read, indexed int, cont []byte, exhausted bool, err error) {
	var pendings []index.Pending
	for limit <= 0 || read < limit {
		r, err := recs.Next()
		if err != nil {
			return 0, 0, nil, false, err
		}
		if !r.OK {
			if r.Reason != cursor.SourceExhausted {
				return 0, 0, nil, false, fmt.Errorf("core: record scan halted: %v", r.Reason)
			}
			exhausted = true
			break
		}
		read++
		cont = r.Continuation
		if r.Value == nil || !ix.AppliesTo(r.Value.Type.Name) {
			continue
		}
		p, err := m.UpdateAsync(ictx, nil, r.Value.asIndexRecord(nil))
		if err != nil {
			return 0, 0, nil, false, err
		}
		pendings = append(pendings, p)
		indexed++
	}
	for _, p := range pendings {
		if err := p.Await(); err != nil {
			return 0, 0, nil, false, err
		}
	}
	return read, indexed, cont, exhausted, nil
}
