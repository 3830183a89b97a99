package core

import (
	"fmt"

	"recordlayer/internal/bunched"
	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/metadata"
	"recordlayer/internal/obs"
	"recordlayer/internal/tuple"
)

// readableIndex resolves an index and verifies it may serve reads (§6: a
// write-only index must not satisfy queries). Every index read goes through
// it, so it settles the transaction's parked index updates first.
func (s *Store) readableIndex(name string) (*metadata.Index, error) {
	if err := s.settle(); err != nil {
		return nil, err
	}
	ix, ok := s.md.Index(name)
	if !ok {
		return nil, fmt.Errorf("core: no index %q", name)
	}
	if st := s.IndexState(name); st != metadata.StateReadable {
		return nil, fmt.Errorf("core: index %q is %v and cannot serve reads", name, st)
	}
	return ix, nil
}

// rangeScanner is an index whose entries a range scan streams in key order:
// VALUE, VERSION, and RANK by value.
type rangeScanner interface {
	Scan(ctx *index.Context, r index.TupleRange, opts index.ScanOptions) (cursor.Cursor[index.Entry], error)
	ScanFetched(ctx *index.Context, r index.TupleRange, opts index.ScanOptions, record fdb.Mapper) (cursor.Cursor[index.Fetched], error)
}

// scanner resolves a readable index whose entries a range scan streams.
func (s *Store) scanner(name string) (rangeScanner, *index.Context, error) {
	ix, err := s.readableIndex(name)
	if err != nil {
		return nil, nil, err
	}
	m, ictx, err := s.maintainer(ix)
	if err != nil {
		return nil, nil, err
	}
	sc, ok := m.(rangeScanner)
	if !ok {
		return nil, nil, fmt.Errorf("core: index %q (type %s) does not support range scans", name, ix.Type)
	}
	return sc, ictx, nil
}

// ScanIndex streams entries of a VALUE, VERSION or RANK index over a tuple
// range.
func (s *Store) ScanIndex(name string, r index.TupleRange, opts index.ScanOptions) (cursor.Cursor[index.Entry], error) {
	sc, ictx, err := s.scanner(name)
	if err != nil {
		return nil, err
	}
	return sc.Scan(ictx, r, opts)
}

// ScanIndexRecords streams the records behind the entries ScanIndex streams,
// reading each batch of entries and their records in one request
// (fdb.Transaction.GetMappedRangeAsync): a scan and its fetches cost one
// round trip per batch, where FetchIndexedPipelined over ScanIndex waits for a
// batch before it can fetch. Records, order, halts and continuations are
// those of FetchIndexedPipelined over the same scan; so are the reads, except
// that a batch read ahead, or past where a consumer stops, has read its
// records too.
func (s *Store) ScanIndexRecords(name string, r index.TupleRange, opts index.ScanOptions) (cursor.Cursor[*StoredRecord], error) {
	sc, ictx, err := s.scanner(name)
	if err != nil {
		return nil, err
	}
	var buf []byte // the record range, rebuilt in place for each entry
	fetched, err := sc.ScanFetched(ictx, r, opts, func(pk []byte) (begin, end []byte) {
		buf = append(append(append(buf[:0], s.records.Bytes()...), pk...), 0x00)
		n := len(buf)
		buf = append(buf, buf...)
		buf[2*n-1] = 0xFF
		return buf[:n:n], buf[n:]
	})
	if err != nil {
		return nil, err
	}
	return cursor.Map(fetched, func(f index.Fetched) (*StoredRecord, error) {
		return s.indexedRecord(f.Entry, f.Record, nil)
	}), nil
}

// FetchIndexedPipelined resolves index entries to their records — an index
// scan, or a merge of several, followed by record fetches by primary key —
// reading at snapshot isolation when snapshot is set, so a snapshot query
// execution adds no read conflict ranges for the fetches either. The fetch
// behind each entry is issued as a range-read future — the paper's
// asynchronous pipelining (§8) — for every entry the source already holds (up
// to 128 in flight, sharing one simulated latency window) and for up to depth
// entries past that, so the index scan keeps streaming while earlier entries'
// reads are outstanding. A consumer that stops early has therefore fetched up
// to 127 records it did not take, unless a cursor.Limit above says how many it
// will (cursor.MapAsync has the rules). The fetches wait in one ring, sized
// once from what the source counts in hand (its Ready): a 20-entry page
// allocates 20 slots, not 8 + 16 + 32. Everything runs on the consumer's
// goroutine — at zero latency the depth-8 path costs the same as sequential.
// Results preserve entry order, halts, and continuations exactly; depth <= 1
// is the sequential path. Each record range is built from the entry's packed
// primary key, and the record's primary key is decoded once, from its own key.
// A bare index scan has nothing to wait for here: ScanIndexRecords fetches its
// records with its entries.
func (s *Store) FetchIndexedPipelined(entries cursor.Cursor[index.Entry], snapshot bool, depth int) cursor.Cursor[*StoredRecord] {
	return cursor.MapAsync(entries, depth,
		func(e index.Entry) *fdb.FutureRange {
			b, end := s.records.RangeForPacked(e.PackedPrimaryKey())
			return s.issueLoadRecord(b, end, snapshot)
		},
		func(e index.Entry, f *fdb.FutureRange) (*StoredRecord, error) {
			pairs, _, err := f.Get()
			return s.indexedRecord(e, pairs, err)
		})
}

// indexedRecord is the record entry e points at, from its pairs; an entry
// that points at none is an error.
func (s *Store) indexedRecord(e index.Entry, pairs fdb.Pairs, err error) (*StoredRecord, error) {
	rec, err := s.pairsRecord(nil, pairs, err)
	if err == nil && rec == nil {
		return nil, fmt.Errorf("core: index entry %v points at missing record %v", e.Key(), e.PrimaryKey())
	}
	return rec, err
}

// AggregateInt64 reads a COUNT/COUNT_UPDATES/COUNT_NON_NULL/SUM value for a
// group key (§7). Pass an empty tuple for ungrouped indexes.
func (s *Store) AggregateInt64(name string, group tuple.Tuple) (int64, error) {
	ix, err := s.readableIndex(name)
	if err != nil {
		return 0, err
	}
	m, ictx, err := s.maintainer(ix)
	if err != nil {
		return 0, err
	}
	am, ok := m.(*index.AtomicMaintainer)
	if !ok {
		return 0, fmt.Errorf("core: index %q is not an aggregate index", name)
	}
	return am.GetInt64(ictx, group)
}

// AggregateTuple reads a MAX_EVER/MIN_EVER value for a group key (§7).
func (s *Store) AggregateTuple(name string, group tuple.Tuple) (tuple.Tuple, bool, error) {
	ix, err := s.readableIndex(name)
	if err != nil {
		return nil, false, err
	}
	m, ictx, err := s.maintainer(ix)
	if err != nil {
		return nil, false, err
	}
	am, ok := m.(*index.AtomicMaintainer)
	if !ok {
		return nil, false, fmt.Errorf("core: index %q is not an aggregate index", name)
	}
	return am.GetTuple(ictx, group)
}

// rankIndex resolves a RANK index's maintainer.
func (s *Store) rankIndex(name string) (*index.RankMaintainer, *index.Context, error) {
	ix, err := s.readableIndex(name)
	if err != nil {
		return nil, nil, err
	}
	m, ictx, err := s.maintainer(ix)
	if err != nil {
		return nil, nil, err
	}
	rm, ok := m.(*index.RankMaintainer)
	if !ok {
		return nil, nil, fmt.Errorf("core: index %q is not a rank index", name)
	}
	return rm, ictx, nil
}

// Rank returns a record's ordinal rank in a RANK index (Appendix B).
func (s *Store) Rank(name string, entry, pk tuple.Tuple) (int64, bool, error) {
	rm, ictx, err := s.rankIndex(name)
	if err != nil {
		return 0, false, err
	}
	var t0 int64
	if s.trace != nil {
		t0 = s.tr.LatencyNow()
	}
	r, ok, rerr := rm.Rank(ictx, entry, pk)
	if s.trace != nil {
		s.trace.Add(obs.SpanIndexPrefix+name, t0, s.tr.LatencyNow(), 0, "op=rank")
	}
	return r, ok, rerr
}

// RankOfValue returns the rank an indexed value would occupy.
func (s *Store) RankOfValue(name string, entry tuple.Tuple) (int64, error) {
	rm, ictx, err := s.rankIndex(name)
	if err != nil {
		return 0, err
	}
	var t0 int64
	if s.trace != nil {
		t0 = s.tr.LatencyNow()
	}
	r, rerr := rm.RankOfValue(ictx, entry)
	if s.trace != nil {
		s.trace.Add(obs.SpanIndexPrefix+name, t0, s.tr.LatencyNow(), 0, "op=rank_of_value")
	}
	return r, rerr
}

// ByRank returns the index entry at a given rank (leaderboard lookup).
func (s *Store) ByRank(name string, rank int64) (index.Entry, bool, error) {
	rm, ictx, err := s.rankIndex(name)
	if err != nil {
		return index.Entry{}, false, err
	}
	var t0 int64
	if s.trace != nil {
		t0 = s.tr.LatencyNow()
	}
	e, ok, rerr := rm.ByRank(ictx, rank)
	if s.trace != nil {
		s.trace.Add(obs.SpanIndexPrefix+name, t0, s.tr.LatencyNow(), 0, "op=by_rank")
	}
	return e, ok, rerr
}

// ScanByRank streams entries starting at a rank — the scrollbar pattern of
// Appendix B: jump to the k-th result without scanning the first k. The span
// covers the rank-to-key seek (the skip-list descent, one span for the whole
// descent rather than one per level); the streaming scan that follows is
// ordinary value-index I/O and is not part of it.
func (s *Store) ScanByRank(name string, startRank int64, opts index.ScanOptions) (cursor.Cursor[index.Entry], error) {
	rm, ictx, err := s.rankIndex(name)
	if err != nil {
		return nil, err
	}
	var t0 int64
	if s.trace != nil {
		t0 = s.tr.LatencyNow()
	}
	c, serr := rm.ScanByRank(ictx, startRank, opts)
	if s.trace != nil {
		s.trace.Add(obs.SpanIndexPrefix+name, t0, s.tr.LatencyNow(), 0, "op=scan_by_rank")
	}
	return c, serr
}

// textIndex resolves a TEXT index's maintainer.
func (s *Store) textIndex(name string) (*index.TextMaintainer, *index.Context, error) {
	ix, err := s.readableIndex(name)
	if err != nil {
		return nil, nil, err
	}
	m, ictx, err := s.maintainer(ix)
	if err != nil {
		return nil, nil, err
	}
	tm, ok := m.(*index.TextMaintainer)
	if !ok {
		return nil, nil, fmt.Errorf("core: index %q is not a text index", name)
	}
	return tm, ictx, nil
}

// TextSearchToken returns postings for an exact token (Appendix B).
func (s *Store) TextSearchToken(name, token string) ([]index.Posting, error) {
	tm, ictx, err := s.textIndex(name)
	if err != nil {
		return nil, err
	}
	return tm.ScanToken(ictx, token)
}

// TextSearchPrefix returns postings for all tokens with a prefix.
func (s *Store) TextSearchPrefix(name, prefix string) ([]index.Posting, error) {
	tm, ictx, err := s.textIndex(name)
	if err != nil {
		return nil, err
	}
	return tm.ScanPrefix(ictx, prefix)
}

// TextSearchAll returns primary keys of records containing every token,
// optionally within a proximity window.
func (s *Store) TextSearchAll(name string, tokens []string, maxDistance int64) ([]tuple.Tuple, error) {
	tm, ictx, err := s.textIndex(name)
	if err != nil {
		return nil, err
	}
	return tm.ContainsAll(ictx, tokens, maxDistance)
}

// TextSearchPhrase returns primary keys of records containing the phrase.
func (s *Store) TextSearchPhrase(name, phrase string) ([]tuple.Tuple, error) {
	tm, ictx, err := s.textIndex(name)
	if err != nil {
		return nil, err
	}
	return tm.ContainsPhrase(ictx, phrase)
}

// TextIndexStats reports the bunched map statistics of a TEXT index
// (Table 2).
func (s *Store) TextIndexStats(name string) (bunched.Stats, error) {
	tm, ictx, err := s.textIndex(name)
	if err != nil {
		return bunched.Stats{}, err
	}
	return tm.Stats(ictx)
}

// RebuildIndexInline rebuilds an index in this transaction by running every
// record through its maintainer — only appropriate for small stores (§5: "if
// there are very few or no records, the index can be built right away within
// a single transaction"). It is the online build's loop over one batch of
// every record: the updates are all issued, then awaited in order.
func (s *Store) RebuildIndexInline(name string) error {
	if err := s.settle(); err != nil {
		return err
	}
	ix, ok := s.md.Index(name)
	if !ok {
		return fmt.Errorf("core: no index %q", name)
	}
	if err := s.clearIndexData(name); err != nil {
		return err
	}
	m, ictx, err := s.maintainer(ix)
	if err != nil {
		return err
	}
	if _, _, _, _, err := indexRecords(s.ScanRecords(ScanOptions{}), ix, m, ictx, 0); err != nil {
		return err
	}
	return s.MarkIndexReadable(name)
}
