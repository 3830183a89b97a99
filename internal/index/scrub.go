package index

import (
	"bytes"

	"recordlayer/internal/fdb"
	"recordlayer/internal/rankedset"
	"recordlayer/internal/subspace"
)

// Scrub issue kinds.
const (
	// IssueDangling is index data no record produces: its record is gone,
	// no longer produces it, or it does not decode at all.
	IssueDangling = "dangling"
	// IssueMissing is index data a record produces that the index lacks.
	IssueMissing = "missing"
	// IssueMismatch is index data present where the rebuild puts it, with
	// other contents.
	IssueMismatch = "mismatch"
)

// Issue is one inconsistency a scrub found in one logical entry — an entry, a
// posting, a group or a finger — named by the physical key that holds it.
type Issue struct {
	Kind string
	Key  []byte
}

// ScrubBatch is one batch transaction of a scrub of one index: the scrubber
// fills in the request, and the Scrub method of the index's maintainer, which
// holds the rules its type is checked by, the result. A scrub checks an
// index by rebuilding it: Records and Load run the index's own maintainer
// over records, into Scratch, and the rules of the index type compare what
// they wrote with the live index. The maintainers are therefore the only
// definition of an index's contents.
//
// A scrub runs in phases, each a sequence of batches that resume at a
// continuation. Scrub moves Phase and Cont to where the next batch starts,
// and sets Done after the last phase.
type ScrubBatch struct {
	// Live is the index in the batch's transaction. Scrub reads it at
	// snapshot isolation, and repairs it there when Repair is set.
	Live *Context
	// Scratch is the index in a transaction of a private, empty database,
	// which the live transaction's conflicts, meter and tap never see.
	Scratch *Context
	Phase   int
	Cont    []byte
	// Limit bounds the entries or records one batch checks.
	Limit  int
	Repair bool
	// Records indexes into Scratch up to Limit records, resuming the record
	// scan at cont. It returns how many it read, where the scan resumes, and
	// whether it is exhausted.
	Records func(cont []byte) (n int, next []byte, done bool, err error)
	// Load indexes into Scratch the records with these packed primary keys;
	// a key with no record indexes nothing.
	Load func(pks [][]byte) error

	// Issues lists what the batch found, in order; Repaired counts those it
	// repaired.
	Issues   []Issue
	Repaired int
	// Entries and Read count the index entries and the records it checked.
	Entries, Read int
	// Keep asks for Scratch to be committed once the batch has, so the
	// following batches rebuild on top of it.
	Keep bool
	// Pinned asks for every following batch to read at this batch's read
	// version: the rebuild of the whole pass is then one snapshot.
	Pinned bool
	Done   bool
	// Faults carries what a report-only RANK scrub found on the skip-list
	// level below the one it checks ([0]) and on that level so far ([1]) from
	// batch to batch.
	Faults [2][]rankedset.Fault
}

// found records an issue, and counts it repaired when the batch repairs.
func (b *ScrubBatch) found(kind string, key []byte) {
	b.Issues = append(b.Issues, Issue{Kind: kind, Key: key})
	if b.Repair {
		b.Repaired++
	}
}

// advance ends the batch: the phase resumes at next, or is over when done.
func (b *ScrubBatch) advance(next []byte, done bool) {
	b.Cont = next
	if done {
		b.Phase, b.Cont = b.Phase+1, nil
	}
}

// afterCont returns where a phase that resumes after the key cont reads from:
// past cont, or at begin when the phase starts.
func afterCont(cont, begin []byte) []byte {
	if cont != nil {
		return fdb.KeyAfter(cont)
	}
	return begin
}

// checkPairs is the first phase of an index stored as one pair per entry
// under space, keyed by the entry (VALUE, VERSION, RANK's value sub-index):
// entries to records. It reads up to Limit pairs, rebuilds the records they
// name, and sorts the pairs into those the rebuild also wrote and dangling
// ones: the rebuild lacks them, or they do not decode at all. decode returns
// a pair's entry.
func checkPairs(b *ScrubBatch, space subspace.Subspace, decode func(fdb.KeyValue) (Entry, error)) (healthy, dangling []fdb.KeyValue, err error) {
	begin, end := space.Range()
	kvs, _, err := b.Live.Tr.Snapshot().GetRange(afterCont(b.Cont, begin), end, fdb.RangeOptions{Limit: b.Limit})
	if err != nil {
		return nil, nil, err
	}
	pks := make([][]byte, 0, len(kvs))
	decoded := make([]bool, len(kvs))
	for i, kv := range kvs {
		if e, err := decode(kv); err == nil {
			pks, decoded[i] = append(pks, e.PackedPrimaryKey()), true
		}
	}
	if err := b.Load(pks); err != nil {
		return nil, nil, err
	}
	for i, kv := range kvs {
		rebuilt := false
		if decoded[i] {
			got, _, err := b.Scratch.Tr.GetRange(kv.Key, fdb.KeyAfter(kv.Key), fdb.RangeOptions{Limit: 1})
			if err != nil {
				return nil, nil, err
			}
			rebuilt = len(got) > 0
		}
		if rebuilt {
			healthy = append(healthy, kv)
		} else {
			dangling = append(dangling, kv)
		}
	}
	b.Entries += len(kvs)
	var next []byte
	if len(kvs) > 0 {
		next = kvs[len(kvs)-1].Key
	}
	b.advance(next, len(kvs) < b.Limit)
	return healthy, dangling, nil
}

// rebuildPairs is the second phase of such an index: records to entries. It
// rebuilds up to Limit records and compares each pair the rebuild wrote under
// space with the live one: missing when the live index lacks its key, a
// mismatch when the values differ.
func rebuildPairs(b *ScrubBatch, space subspace.Subspace) (missing, mismatched []fdb.KeyValue, err error) {
	n, next, done, err := b.Records(b.Cont)
	if err != nil {
		return nil, nil, err
	}
	b.Read += n
	begin, end := space.Range()
	want, _, err := b.Scratch.Tr.GetRange(begin, end, fdb.RangeOptions{})
	if err != nil {
		return nil, nil, err
	}
	probes := make([]*fdb.FutureRange, len(want))
	for i, kv := range want {
		probes[i] = b.Live.Tr.Snapshot().GetRangeAsync(kv.Key, fdb.KeyAfter(kv.Key), fdb.RangeOptions{Limit: 1})
	}
	for i, kv := range want {
		got, _, err := probes[i].Get()
		switch {
		case err != nil:
			return nil, nil, err
		case got.Len() == 0:
			missing = append(missing, kv)
		case !bytes.Equal(got.At(0).Value, kv.Value):
			mismatched = append(mismatched, kv)
		}
	}
	b.advance(next, done)
	return missing, mismatched, nil
}

// scrubPairs scrubs an index stored as one pair per entry in two phases:
// entries to records, then records to entries. A dangling pair is cleared, a
// missing or mismatched one written as the rebuild wrote it.
func scrubPairs(b *ScrubBatch, decode func(fdb.KeyValue) (Entry, error)) error {
	var bad [][]fdb.KeyValue
	kinds := []string{IssueDangling}
	if b.Phase == 0 {
		_, dangling, err := checkPairs(b, b.Live.Space, decode)
		if err != nil {
			return err
		}
		bad = [][]fdb.KeyValue{dangling}
	} else {
		missing, mismatched, err := rebuildPairs(b, b.Live.Space)
		if err != nil {
			return err
		}
		bad, kinds = [][]fdb.KeyValue{missing, mismatched}, []string{IssueMissing, IssueMismatch}
	}
	b.Done = b.Phase == 2
	return fixPairs(b, bad, kinds)
}

// fixPairs records bad pairs as issues of the given kinds, and when the batch
// repairs, clears a dangling pair and writes any other as the rebuild did.
func fixPairs(b *ScrubBatch, bad [][]fdb.KeyValue, kinds []string) error {
	for i, kvs := range bad {
		for _, kv := range kvs {
			b.found(kinds[i], kv.Key)
			if !b.Repair {
				continue
			}
			var err error
			if kinds[i] == IssueDangling {
				err = b.Live.Tr.Clear(kv.Key)
			} else {
				err = b.Live.Tr.Set(kv.Key, kv.Value)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Scrub runs one batch of a scrub: a VALUE index's entries compare with the
// rebuild's pair by pair, covering value included.
func (m *ValueMaintainer) Scrub(b *ScrubBatch) error {
	return scrubPairs(b, func(kv fdb.KeyValue) (Entry, error) { return m.DecodeEntry(b.Live.Space, kv) })
}

// Scrub runs one batch of a scrub: a VERSION index compares like VALUE. Records
// read from the store carry complete versions, so the rebuild writes plain
// keys.
func (m *VersionMaintainer) Scrub(b *ScrubBatch) error {
	return scrubPairs(b, func(kv fdb.KeyValue) (Entry, error) { return m.DecodeEntry(b.Live.Space, kv) })
}
