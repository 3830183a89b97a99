package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/metadata"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// Scrub issue kinds.
const (
	// ScrubDangling is index data no record produces: its record is gone,
	// no longer produces it, or it does not decode at all.
	ScrubDangling = index.IssueDangling
	// ScrubMissing is index data a record produces that the index lacks.
	ScrubMissing = index.IssueMissing
	// ScrubMismatch is index data present where the rebuild puts it, with
	// other contents: a covering value, a posting's offsets, a group's total,
	// a finger's count.
	ScrubMismatch = index.IssueMismatch
)

// ScrubIssue is one inconsistency found by the scrubber, in one logical
// entry: an entry, a posting, a group or a finger.
type ScrubIssue struct {
	Kind  string // ScrubDangling, ScrubMissing, or ScrubMismatch
	Index string
	// Key is the physical key of the entry, rendered by tuple.Describe.
	Key string
}

func (i ScrubIssue) String() string {
	return fmt.Sprintf("%s: index %q key %s", i.Kind, i.Index, i.Key)
}

// ScrubReport summarizes one Scrub pass.
type ScrubReport struct {
	Index string
	// EntriesScanned counts index entries checked against the records.
	EntriesScanned int
	// RecordsScanned counts records rebuilt to check the index against.
	RecordsScanned int
	// Issues lists every inconsistency found, in scan order.
	Issues []ScrubIssue
	// Repaired counts issues fixed in place (Repair mode only).
	Repaired int
	// Restarts counts the times an aggregate pass started over at a fresh
	// read version because the database no longer kept the one it pinned.
	Restarts int
}

// Clean reports that no inconsistency was found.
func (r *ScrubReport) Clean() bool { return len(r.Issues) == 0 }

// Count returns the number of issues of the given kind.
func (r *ScrubReport) Count(kind string) int {
	n := 0
	for _, i := range r.Issues {
		if i.Kind == kind {
			n++
		}
	}
	return n
}

// Scrubber verifies an index against its records, the index scrubbing the
// paper's §6 prescribes for defense in depth. It checks by rebuilding: each
// batch runs the index's own maintainer over records into a scratch database
// that never commits, and the rules of the index type (its maintainer's
// Scrub method) compare what it wrote with the live index, entries to records and records
// to entries. The maintainers are therefore the only definition of what an
// index holds, as they are for the online indexer. The scan runs in bounded
// batches — one transaction each, resumed by continuation — so arbitrarily
// large stores scrub without hitting transaction limits, and every read of
// the live store is a snapshot read.
//
// Every index type can be scrubbed. The aggregates of the atomic types are
// rebuilt over the whole pass, whose batches then all read at the first one's
// read version. A pass that outlives the database's window of readable
// versions starts over at a fresh one, up to maxScrubRestarts times, and finds
// again what it found and did not repair. COUNT, COUNT_NON_NULL and SUM must
// equal the rebuild; COUNT_UPDATES, MAX_EVER and MIN_EVER keep what past
// writes did, which no stored state records, so only a bound is checked
// (index.AtomicMaintainer.Scrub).
//
// Scrubbing requires the index readable: a write-only index is legitimately
// incomplete while its build is in flight. With Repair set, each batch
// repairs what it found in its own transaction. Repairs are idempotent, so a
// batch whose commit fate is unknown safely re-runs, except a repair that
// adds to a total: its batch is never re-run, and the pass starts over to
// check the totals again.
//
// Every batch enters through DB with Scrub's context, as OnlineIndexer's do:
// hand it a recordlayer.Runner under WithTenant and
// WithPriority(PriorityBackground) to admit, bill and trace the scrub.
type Scrubber struct {
	DB        fdb.Door
	MetaData  *metadata.MetaData
	Space     subspace.Subspace
	IndexName string
	// BatchSize bounds the entries or records checked per transaction;
	// default 128.
	BatchSize int
	// Repair fixes inconsistencies in place instead of only reporting them.
	Repair bool
	Config Config
}

// scrubbable is a maintainer with the rules a scrub checks its index by: Scrub
// runs one batch.
type scrubbable interface {
	Scrub(b *index.ScrubBatch) error
}

// errRecheck stops a pinned batch that repaired from running twice: its read
// version does not show the repairs of its first attempt.
var errRecheck = errors.New("core: a repair at the scrub's read version may have committed")

// maxScrubRestarts bounds how often one pass starts over because the
// database dropped its pinned read version.
const maxScrubRestarts = 3

// outlived is the transaction_too_old of a batch at the pass's pinned read
// version, which the database no longer keeps: unlike an injected one, no
// retry at that version can succeed, so it is hidden from the door's retry
// loop, and the pass starts over.
type outlived struct{ err error }

func (o *outlived) Error() string { return o.err.Error() }

// Scrub runs every phase of the index's check and returns the report. The
// door checks the context before every batch attempt.
func (o *Scrubber) Scrub(ctx context.Context) (*ScrubReport, error) {
	ix, ok := o.MetaData.Index(o.IndexName)
	if !ok {
		return nil, fmt.Errorf("core: no index %q", o.IndexName)
	}
	rep := &ScrubReport{Index: o.IndexName}
	unsure, err := o.pass(ctx, ix, rep)
	if !errors.Is(err, errRecheck) {
		return rep, err
	}
	// Check again: what the unsure batch found is reported, and counts as
	// repaired unless the new pass finds it again.
	again := &ScrubReport{Index: o.IndexName}
	if _, err := o.pass(ctx, ix, again); err != nil && !errors.Is(err, errRecheck) {
		return rep, err
	}
	reported := map[string]bool{}
	for _, i := range rep.Issues {
		reported[i.Key] = true
	}
	for _, i := range again.Issues {
		if !reported[i.Key] {
			rep.Issues = append(rep.Issues, i)
		}
		unsure = slices.DeleteFunc(unsure, func(u ScrubIssue) bool { return u.Key == i.Key })
	}
	rep.Repaired += again.Repaired + len(unsure)
	rep.Restarts += again.Restarts
	return rep, nil
}

// pass runs the check once, adding to rep. A pinned batch that repaired and
// must run again ends it with errRecheck, returning what that batch found. A
// pass that outlives its pinned read version starts over at most
// maxScrubRestarts times, dropping the issues it found unless it repaired
// them, and keeping its repairs; then it returns the transaction_too_old.
func (o *Scrubber) pass(ctx context.Context, ix *metadata.Index, rep *ScrubReport) ([]ScrubIssue, error) {
	issues, entries, records := len(rep.Issues), rep.EntriesScanned, rep.RecordsScanned
	for {
		unsure, err := o.passOnce(ctx, ix, rep)
		var old *outlived
		if !errors.As(err, &old) {
			return unsure, err
		}
		if rep.Restarts == maxScrubRestarts {
			return nil, old.err
		}
		rep.Restarts++
		if !o.Repair { // a repaired issue is not found again, so it stays
			rep.Issues = rep.Issues[:issues]
		}
		rep.EntriesScanned, rep.RecordsScanned = entries, records
	}
}

// passOnce runs pass's check once, from the beginning.
func (o *Scrubber) passOnce(ctx context.Context, ix *metadata.Index, rep *ScrubReport) ([]ScrubIssue, error) {
	batch := o.BatchSize
	if batch <= 0 {
		batch = 128
	}
	scratch := fdb.Open(nil)
	next := index.ScrubBatch{Limit: batch, Repair: o.Repair}
	pin := int64(-1)
	for !next.Done {
		b, rv, unsure, err := o.batch(ctx, ix, scratch, next, pin)
		if err != nil {
			rep.Issues = append(rep.Issues, unsure...)
			return unsure, err
		}
		rep.EntriesScanned += b.Entries
		rep.RecordsScanned += b.Read
		rep.Repaired += b.Repaired
		for _, i := range b.Issues {
			rep.Issues = append(rep.Issues, o.issue(i))
		}
		if b.Pinned && pin < 0 {
			pin = rv
		}
		next = index.ScrubBatch{Limit: batch, Repair: o.Repair, Phase: b.Phase, Cont: b.Cont, Done: b.Done, Faults: b.Faults}
	}
	return nil, nil
}

func (o *Scrubber) issue(i index.Issue) ScrubIssue {
	return ScrubIssue{Kind: i.Kind, Index: o.IndexName, Key: tuple.Describe(i.Key)}
}

// batch runs one batch through the door, at read version pin when it is not
// negative, and returns its result and read version. The rebuild goes into a
// transaction of scratch, committed there when the batch asks to keep it.
func (o *Scrubber) batch(ctx context.Context, ix *metadata.Index, scratch *fdb.Database, req index.ScrubBatch, pin int64) (*index.ScrubBatch, int64, []ScrubIssue, error) {
	var unsure []ScrubIssue // what a pinned attempt that repaired found
	var str *fdb.Transaction
	//rl:idempotent snapshot checks whose repairs clear or rewrite the keys they found; a repair that adds to a total never runs twice (errRecheck)
	v, err := o.DB.RunIdempotent(ctx, func(_ context.Context, tr *fdb.Transaction) (_ interface{}, err error) {
		if unsure != nil {
			return nil, errRecheck
		}
		if pin >= 0 {
			tr.SetReadVersion(pin)
			defer func() {
				if fe := (*fdb.Error)(nil); errors.As(err, &fe) && fe.Code == fdb.CodeTransactionTooOld && !fe.Injected {
					err = &outlived{err}
				}
			}()
		}
		s, err := Open(tr, o.MetaData, o.Space, OpenOptions{Config: o.Config})
		if err != nil {
			return nil, err
		}
		if st := s.IndexState(ix.Name); st != metadata.StateReadable {
			return nil, fmt.Errorf("core: index %q is %s; scrub requires a readable index", ix.Name, st)
		}
		m, ictx, err := s.maintainer(ix)
		if err != nil {
			return nil, err
		}
		sm, ok := m.(scrubbable)
		if !ok {
			return nil, fmt.Errorf("core: index %q of type %s has no scrub rules", ix.Name, ix.Type)
		}
		rm, err := index.NewMaintainer(ix) // the rebuild's own, so the live one's overlays stay its own
		if err != nil {
			return nil, err
		}
		str = scratch.CreateTransaction()
		b := req
		b.Live, b.Scratch = ictx, &index.Context{Tr: str, Index: ix, Space: ictx.Space, MetaData: o.MetaData}
		b.Records = func(cont []byte) (int, []byte, bool, error) {
			n, _, next, done, err := indexRecords(s.ScanRecords(ScanOptions{Continuation: cont, Snapshot: true}), ix, rm, b.Scratch, b.Limit)
			return n, next, done, err
		}
		b.Load = func(pks [][]byte) error {
			_, _, _, _, err := indexRecords(s.recordsByKey(pks), ix, rm, b.Scratch, 0)
			return err
		}
		if err := sm.Scrub(&b); err != nil {
			return nil, err
		}
		rv, err := tr.GetReadVersion()
		if err != nil {
			return nil, err
		}
		if b.Pinned && b.Repaired > 0 {
			found := make([]ScrubIssue, len(b.Issues))
			for i, is := range b.Issues {
				found[i] = o.issue(is)
			}
			unsure = found
		}
		return &scrubOutcome{batch: &b, readVersion: rv}, nil
	})
	if err != nil {
		return nil, 0, unsure, err
	}
	out := v.(*scrubOutcome)
	if out.batch.Keep {
		if err := str.Commit(); err != nil {
			return nil, 0, nil, err
		}
	}
	return out.batch, out.readVersion, nil, nil
}

// scrubOutcome is one batch transaction's result, returned through the
// closure so retries never fold into captured state.
type scrubOutcome struct {
	batch       *index.ScrubBatch
	readVersion int64
}

// recordsByKey streams the records with the given packed primary keys, in
// key order and each once, reading at snapshot isolation; a key with no
// record yields nil, and one that is no primary key of the store's nothing.
// Every load is issued before any is awaited.
func (s *Store) recordsByKey(pks [][]byte) cursor.Cursor[*StoredRecord] {
	pks = slices.DeleteFunc(pks, func(pk []byte) bool { return !s.isPrimaryKey(pk) })
	slices.SortFunc(pks, bytes.Compare)
	pks = slices.CompactFunc(pks, bytes.Equal)
	return cursor.MapAsync(cursor.FromSlice(pks, nil), len(pks),
		func(pk []byte) *fdb.FutureRange {
			b, e := s.recordRange(pk)
			return s.issueLoadRecord(b, e, true)
		},
		func(_ []byte, f *fdb.FutureRange) (*StoredRecord, error) { return s.awaitLoadRecord(nil, f) })
}
