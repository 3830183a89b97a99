package rankedset

import (
	"fmt"

	"recordlayer/internal/fdb"
	"recordlayer/internal/overlay"
)

// Async pipelines skip-list mutations over one transaction: IssueInsert and
// IssueDelete send every probe read an operation needs — the level-0
// membership check and one floor per level — without awaiting any, and the
// returned Op applies the mutation later. Ops issued back to back share one
// simulated latency window; a batch save's N skip-list descents cost ~1
// window instead of N×levels.
//
// A probe sees the transaction as of its issue, not the writes of ops applied
// since. Every Async write therefore goes through an overlay.Overlay, which
// remembers the latest value of each key written and corrects each probe
// against it at apply time (see that package); ops must be applied in issue
// order (enforced). A floor whose raw entry has since been cleared with
// nothing written above it is reread fresh — rare; a level's head is never
// cleared, so only a level that never had one resolves to nothing, and
// resolveFloor then creates it. In-level sums (the finger split on insert)
// are likewise read fresh at apply time.
type Async struct {
	rs *RankedSet
	tr *fdb.Transaction
	ov *overlay.Overlay
}

// Async creates a pipelining view of the set over one transaction. The view
// assumes every mutation of the set's subspace in this transaction goes
// through it (or through the serial Insert/Delete, which are built on it);
// external writes between issue and apply would not be seen.
func (rs *RankedSet) Async(tr *fdb.Transaction) *Async {
	return &Async{rs: rs, tr: tr, ov: overlay.New(tr)}
}

// Op is one issued-but-unapplied mutation. Apply completes it, returning
// whether the set changed (insert of an absent member, delete of a present
// one) — the same results the serial Insert/Delete return.
type Op struct {
	a       *Async
	key     []byte
	insert  bool
	seq     int                // issue order, enforced at apply
	present *fdb.FutureValue   // level-0 membership, serializable like Contains
	floors  []*fdb.FutureRange // per level 1..levels-1
	own     []*fdb.FutureValue // in-level delete: the member's own count
}

// IssueInsert starts an insert: the membership probe and every level's floor
// go out together.
func (a *Async) IssueInsert(key []byte) (*Op, error) {
	return a.issue(key, true)
}

// IssueDelete starts a delete. Levels the key appears on probe the member's
// own count and floor strictly below it; other levels floor at the key.
func (a *Async) IssueDelete(key []byte) (*Op, error) {
	return a.issue(key, false)
}

func (a *Async) issue(key []byte, insert bool) (*Op, error) {
	if len(key) == 0 {
		return nil, fmt.Errorf("rankedset: empty key is reserved")
	}
	op := &Op{a: a, key: key, insert: insert, seq: a.ov.Issue()}
	op.present = a.tr.GetAsync(a.rs.levelKey(0, key))
	op.floors = make([]*fdb.FutureRange, a.rs.levels)
	if !insert {
		op.own = make([]*fdb.FutureValue, a.rs.levels)
	}
	for l := 1; l < a.rs.levels; l++ {
		if !insert && a.rs.inLvl(key, l) {
			op.own[l] = a.tr.GetAsync(a.rs.levelKey(l, key))
			op.floors[l] = a.rs.issueFloor(a.tr, l, key, false)
			continue
		}
		op.floors[l] = a.rs.issueFloor(a.tr, l, key, true)
	}
	return op, nil
}

// set writes one entry's count.
func (a *Async) set(level int, key []byte, count int64) error {
	return a.ov.Set(a.rs.levelKey(level, key), encodeCount(count))
}

// resolveFloor turns an issued floor probe into the entry a serial floor read
// at apply time would return. No entry at all means the level has no head yet
// (the head is its smallest key), so this is the set's first write: the head
// is created here, through the overlay so later ops of the batch find it, and
// with an ADD of 0 rather than a Set — two transactions that both find the
// set empty then both commit and keep each other's counts, where a later
// blind Set would erase the earlier one's.
//
// The probe was a snapshot read, so what the op does with the finger decides
// what it conflicts on. An op that only bumps the finger's count (rewrite
// false) relies on no entry lying between the finger and its key: it reads
// the open interval between them, which a concurrent split of the finger
// writes into and a concurrent ADD to the finger does not — two bumps of one
// finger still commit together (§6, §10.1). An op that rewrites the finger's
// count from what it read (a split, or a merge on delete) reads the finger's
// own key, which every concurrent bump writes.
func (op *Op) resolveFloor(level int, inclusive, rewrite bool) ([]byte, int64, error) {
	a := op.a
	begin, end := a.rs.floorRange(level, op.key, inclusive)
	kv, ok, err := a.ov.Boundary(op.floors[level], begin, end, true, true)
	if err != nil {
		return nil, 0, err
	}
	prev, count := head, int64(0)
	if !ok {
		err = a.ov.Add(a.rs.levelKey(level, head), 0, 0)
	} else if prev, err = a.rs.memberOf(kv.Key); err == nil {
		count = decodeCount(kv.Value)
	}
	if err != nil {
		return nil, 0, err
	}
	if finger := a.rs.levelKey(level, prev); rewrite {
		a.tr.AddReadConflictKey(finger)
	} else {
		a.tr.AddReadConflictRange(fdb.KeyAfter(finger), a.rs.levelKey(level, op.key))
	}
	return prev, count, nil
}

// Apply completes the op: resolves its probes and applies the mutation. Ops
// must be applied in the order they were issued.
func (op *Op) Apply() (bool, error) {
	if err := op.a.ov.Turn(op.seq); err != nil {
		return false, err
	}
	present, err := op.a.ov.Value(op.a.rs.levelKey(0, op.key), op.present)
	if err != nil {
		return false, err
	}
	if (present != nil) == op.insert {
		return false, nil
	}
	if op.insert {
		return true, op.applyInsert()
	}
	return true, op.applyDelete()
}

func (op *Op) applyInsert() error {
	a := op.a
	if err := a.set(0, op.key, 1); err != nil {
		return err
	}
	for l := 1; l < a.rs.levels; l++ {
		split := a.rs.inLvl(op.key, l)
		prev, prevCount, err := op.resolveFloor(l, true, split)
		if err != nil {
			return err
		}
		if !split {
			// The covering finger skips one more member; atomic ADD keeps
			// concurrent inserts conflict-free (§10.1).
			if err := a.ov.Add(a.rs.levelKey(l, prev), prevCount, 1); err != nil {
				return err
			}
			continue
		}
		// Split prev's finger. Lower levels are already applied (level order
		// within the op, issue order across ops), so the fresh sum over
		// [prev, key) is exact.
		below, err := a.rs.sumBelow(a.tr, l-1, prev, op.key)
		if err != nil {
			return err
		}
		if err := a.set(l, prev, below); err != nil {
			return err
		}
		if err := a.set(l, op.key, prevCount+1-below); err != nil {
			return err
		}
	}
	return nil
}

func (op *Op) applyDelete() error {
	a := op.a
	if err := a.ov.Clear(a.rs.levelKey(0, op.key)); err != nil {
		return err
	}
	for l := 1; l < a.rs.levels; l++ {
		if !a.rs.inLvl(op.key, l) {
			prev, prevCount, err := op.resolveFloor(l, true, false)
			if err != nil {
				return err
			}
			if err := a.ov.Add(a.rs.levelKey(l, prev), prevCount, -1); err != nil {
				return err
			}
			continue
		}
		// Merge the member's finger back into its predecessor. The floor
		// probe's bound is exclusive, matching the serial path's floor after
		// clearing the member's own entry.
		own := a.rs.levelKey(l, op.key)
		count, err := a.ov.Value(own, op.own[l])
		if err != nil {
			return err
		}
		if err := a.ov.Clear(own); err != nil {
			return err
		}
		// A concurrent insert above the member that found this finger bumps
		// it with an ADD, which would recreate it as a ghost finger of a
		// non-member. Its read interval starts just after the finger's key,
		// so writing a conflict there turns away whichever commits second.
		a.tr.AddWriteConflictKey(fdb.KeyAfter(own))
		prev, prevCount, err := op.resolveFloor(l, false, true)
		if err != nil {
			return err
		}
		if err := a.set(l, prev, prevCount+decodeCount(count)-1); err != nil {
			return err
		}
	}
	return nil
}
