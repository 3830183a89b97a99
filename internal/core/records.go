package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/kvcursor"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/obs"
	"recordlayer/internal/tuple"
)

// StoredRecord is a record as stored: the message plus its identity and the
// commit version of its last modification (§4).
type StoredRecord struct {
	Type       *metadata.RecordType
	Message    *message.Message
	PrimaryKey tuple.Tuple
	Version    tuple.Versionstamp
	HasVersion bool
	// Size is the stored (post-serializer) byte size; SplitChunks how many
	// pairs hold the record data.
	Size        int
	SplitChunks int
	// unsplit says the record data is exactly one pair, at suffix
	// unsplitRecord. A lone chunk at suffix 1 is not unsplit: only this shape
	// lets a later save or delete clear single keys instead of the range.
	unsplit bool

	// pendingUserVersion is the per-transaction counter value assigned to a
	// newly saved record, shared by its version slot and index entries (§7).
	pendingUserVersion uint16
}

// asIndexRecord adapts to the maintainer's view.
func (r *StoredRecord) asIndexRecord() *index.Record {
	if r == nil {
		return nil
	}
	return &index.Record{
		Type:               r.Type,
		Message:            r.Message,
		PrimaryKey:         r.PrimaryKey,
		Version:            r.Version,
		HasVersion:         r.HasVersion,
		PendingUserVersion: r.pendingUserVersion,
	}
}

// PrimaryKeyFor evaluates a record's primary key expression; the expression
// must produce exactly one tuple.
func (s *Store) PrimaryKeyFor(msg *message.Message) (*metadata.RecordType, tuple.Tuple, error) {
	rt, ok := s.md.RecordType(msg.Descriptor().Name)
	if !ok {
		return nil, nil, fmt.Errorf("core: unknown record type %q", msg.Descriptor().Name)
	}
	ctx := &keyexpr.Context{Message: msg, RecordTypeKey: rt.TypeKey()}
	pks, err := rt.PrimaryKey.Evaluate(ctx)
	if err != nil {
		return nil, nil, err
	}
	if len(pks) != 1 {
		return nil, nil, fmt.Errorf("core: primary key of %q produced %d tuples, need exactly 1", rt.Name, len(pks))
	}
	return rt, pks[0], nil
}

// SaveRecord inserts or replaces a record, maintaining every applicable
// index in the same transaction (§6): load the old record by primary key,
// let registered index maintainers reconcile entries, then rewrite the
// record's keys and its version slot.
func (s *Store) SaveRecord(msg *message.Message) (*StoredRecord, error) {
	rt, pk, err := s.PrimaryKeyFor(msg)
	if err != nil {
		return nil, err
	}
	old, err := s.LoadRecordByKey(pk)
	if err != nil {
		return nil, err
	}
	return s.saveLoaded(rt, pk, msg, old)
}

// saveLoaded finishes a save once the old record is known: assign the
// per-transaction version counter, reconcile indexes, rewrite the data.
func (s *Store) saveLoaded(rt *metadata.RecordType, pk tuple.Tuple, msg *message.Message, old *StoredRecord) (*StoredRecord, error) {
	rec, pendings, err := s.saveLoadedAsync(rt, pk, msg, old)
	if err != nil {
		return nil, err
	}
	if err := s.awaitIndexPendings(pendings); err != nil {
		return nil, err
	}
	return rec, nil
}

// saveLoadedAsync is the issue half of saveLoaded: version assignment, index
// update issue, record data write — everything except awaiting the index
// reads. Record data lives outside every index subspace, so writing it
// between a maintainer's issue and await phases cannot change what the issued
// probes resolve to.
func (s *Store) saveLoadedAsync(rt *metadata.RecordType, pk tuple.Tuple, msg *message.Message, old *StoredRecord) (*StoredRecord, []indexPending, error) {
	rec := &StoredRecord{Type: rt, Message: msg, PrimaryKey: pk}
	if s.md.StoreRecordVersions {
		rec.pendingUserVersion = s.tr.ClaimLocalVersion()
	}
	pendings, err := s.updateIndexesAsync(old, rec)
	if err != nil {
		return nil, nil, err
	}
	// old is this transaction's serializable load of the record's range, so
	// its shape may decide which of its keys to clear (clearRecord).
	if err := s.writeRecordData(rec, old); err != nil {
		return nil, nil, err
	}
	return rec, pendings, nil
}

// SaveRecords saves a batch of records in order, with every old-record load
// issued as a concurrent future before any index maintenance runs (§8's
// asynchronous pipelining on the write path): N loads cost ~1 simulated
// latency window instead of N. Results, index entries, version assignment and
// the writes issued are identical to calling SaveRecord in a loop. A primary
// key repeated within the batch falls back to a read-your-writes load so the
// later save observes the earlier one.
func (s *Store) SaveRecords(msgs []*message.Message) ([]*StoredRecord, error) {
	if len(msgs) == 0 {
		return nil, nil
	}
	type pending struct {
		rt   *metadata.RecordType
		pk   tuple.Tuple
		load *fdb.FutureRange
		dup  bool
	}
	items := make([]pending, len(msgs))
	seen := make(map[string]bool, len(msgs))
	for i, msg := range msgs {
		rt, pk, err := s.PrimaryKeyFor(msg)
		if err != nil {
			return nil, err
		}
		items[i] = pending{rt: rt, pk: pk}
		k := string(pk.Pack())
		if seen[k] {
			items[i].dup = true
			continue
		}
		seen[k] = true
		b, e := s.recordRange(pk)
		items[i].load = s.issueLoadRecord(b, e, false)
	}
	// Sweep 1: per record in batch order, resolve the old record and issue
	// its index maintenance — every maintainer's probe reads go out without
	// blocking, so all N records' descents and boundary lookups share one
	// latency window. Sweep 2: await each record's pendings in issue order,
	// applying the buffered index mutations. The two sweeps produce the same
	// keyspace and writes as the save loop: maintainers' reads see the
	// transaction as of issue, and are corrected at await against the
	// batch-internal writes made since (internal/overlay).
	out := make([]*StoredRecord, len(msgs))
	pendings := make([][]indexPending, len(msgs))
	for i, msg := range msgs {
		it := items[i]
		var old *StoredRecord
		var err error
		if it.dup {
			// An earlier save in this batch wrote the same primary key; the
			// prefetched read would predate it.
			old, err = s.loadRecordByKey(it.pk, false)
		} else {
			old, err = s.awaitLoadRecord(it.pk, it.load)
		}
		if err != nil {
			return nil, err
		}
		rec, ps, err := s.saveLoadedAsync(it.rt, it.pk, msg, old)
		if err != nil {
			return nil, err
		}
		out[i] = rec
		pendings[i] = ps
	}
	for _, ps := range pendings {
		if err := s.awaitIndexPendings(ps); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// InsertRecord saves a record the caller asserts does not exist yet: the
// old-record load-and-assemble is replaced by a one-pair existence probe. The
// probe is a serializable read over the record's key range, so a concurrent
// writer of the same primary key still conflicts at commit. Returns an error
// (and writes nothing) if the record turns out to exist.
func (s *Store) InsertRecord(msg *message.Message) (*StoredRecord, error) {
	rt, pk, err := s.PrimaryKeyFor(msg)
	if err != nil {
		return nil, err
	}
	b, e := s.recordRange(pk)
	kvs, _, err := s.tr.GetRange(b, e, fdb.RangeOptions{Limit: 1})
	if err != nil {
		return nil, err
	}
	if len(kvs) > 0 {
		return nil, fmt.Errorf("core: InsertRecord: record %v already exists", pk)
	}
	return s.saveLoaded(rt, pk, msg, nil)
}

// indexPending is one index's issued-but-unawaited update: the await half of
// the maintainer's two-phase protocol plus the bookkeeping to finish the
// index's trace span when the update resolves.
type indexPending struct {
	name string
	p    index.Pending
	t0   int64
}

// updateIndexesAsync issues every non-disabled maintainer whose index covers
// the old or new record's type, awaiting nothing: each maintainer's reads are
// in flight when this returns. The pendings must be handed to
// awaitIndexPendings in the order returned (maintainers buffer mutations to
// apply at await time, in issue order). An index's `index.<name>` span opens
// at issue and closes at await, so overlapped maintenance shows overlapped
// spans — the write-path mirror of overlapping fdb.read windows.
func (s *Store) updateIndexesAsync(old, new *StoredRecord) ([]indexPending, error) {
	appliesTo := func(ix *metadata.Index) bool {
		if old != nil && ix.AppliesTo(old.Type.Name) {
			return true
		}
		return new != nil && ix.AppliesTo(new.Type.Name)
	}
	// One view of each record serves every maintainer, so its key expression
	// context is built once per save, not once per index.
	oldView, newView := old.asIndexRecord(), new.asIndexRecord()
	out := make([]indexPending, 0, len(s.md.Indexes()))
	for _, ix := range s.md.Indexes() {
		if !appliesTo(ix) || s.IndexState(ix.Name) == metadata.StateDisabled {
			continue
		}
		m, err := s.maintainer(ix)
		if err != nil {
			return nil, err
		}
		var t0 int64
		if s.trace != nil {
			t0 = s.tr.LatencyNow()
		}
		p, uerr := m.UpdateAsync(s.indexContext(ix), oldView, newView)
		if uerr != nil {
			if s.trace != nil {
				s.trace.Add(obs.SpanIndexPrefix+ix.Name, t0, s.tr.LatencyNow(), 0, uerr.Error())
			}
			return nil, uerr
		}
		out = append(out, indexPending{name: ix.Name, p: p, t0: t0})
	}
	return out, nil
}

// awaitIndexPendings resolves issued index updates in order, closing each
// index's trace span.
func (s *Store) awaitIndexPendings(pendings []indexPending) error {
	for _, ip := range pendings {
		err := ip.p.Await()
		if s.trace != nil {
			attr := ""
			if err != nil {
				attr = err.Error()
			}
			s.trace.Add(obs.SpanIndexPrefix+ip.name, ip.t0, s.tr.LatencyNow(), 0, attr)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// recordRange is the key range holding one record's pairs.
func (s *Store) recordRange(pk tuple.Tuple) ([]byte, []byte) {
	return s.records.RangeForTuple(pk)
}

func (s *Store) recordKey(pk tuple.Tuple, suffix int64) []byte {
	return s.records.Pack(pk.Append(suffix))
}

// splitRecordKey splits a record key, (recordsSub, pk..., suffix) under the
// store's subspace, at its element boundaries without decoding an element:
// pk is the packed primary key and suffix the packed suffix, both aliasing
// key. It fails where unpacking the key fails, and on a key with no suffix.
func (s *Store) splitRecordKey(key []byte) (pk, suffix []byte, err error) {
	if !s.space.Contains(key) {
		return nil, nil, fmt.Errorf("core: record key %x is outside the store", key)
	}
	b := key[len(s.space.Bytes()):]
	start, err := tuple.ElementLen(b) // past recordsSub
	if err != nil {
		return nil, nil, err
	}
	last := -1
	for i := start; i < len(b); {
		n, err := tuple.ElementLen(b[i:])
		if err != nil {
			return nil, nil, err
		}
		last, i = i, i+n
	}
	if last < 0 {
		return nil, nil, fmt.Errorf("core: record key %x has no suffix", key)
	}
	return b[start:last:last], b[last:], nil
}

// envelopeStackLen is the envelope size writeRecordData packs on the stack;
// a larger record's envelope grows onto the heap.
const envelopeStackLen = 4096

// writeRecordData serializes, splits and writes the record plus its version
// slot. Over an old record it first clears only what the new pairs do not
// overwrite (clearRecord): nothing when both are unsplit, the old data pair
// when the new record splits, the version slot when versions are no longer
// stored, and the whole record range when the old record was split.
//
// The envelope is packed into a stack buffer, since Transaction.Set copies
// what it buffers. A Serializer call would move that buffer to the heap, so
// IdentitySerializer, which returns the envelope as it is, is never called.
func (s *Store) writeRecordData(rec, old *StoredRecord) error {
	envelope := tuple.Tuple{rec.Type.Name, mustMarshal(rec.Message)}
	var blob []byte
	if _, ok := s.cfg.Serializer.(IdentitySerializer); ok {
		var buf [envelopeStackLen]byte
		blob = envelope.PackInto(buf[:0])
	} else {
		var err error
		if blob, err = s.cfg.Serializer.Encode(envelope.Pack()); err != nil {
			return err
		}
	}
	rec.Size = len(blob)
	unsplit := len(blob) <= s.cfg.SplitChunkSize
	if err := s.clearRecord(old, unsplit, s.md.StoreRecordVersions); err != nil {
		return err
	}
	if unsplit {
		if err := s.tr.Set(s.recordKey(rec.PrimaryKey, unsplitRecord), blob); err != nil {
			return err
		}
		rec.SplitChunks, rec.unsplit = 1, true
	} else {
		if !s.md.SplitLongRecords {
			return fmt.Errorf("core: record of %d bytes exceeds the chunk size and splitting is disabled", len(blob))
		}
		n := int64(0)
		for off := 0; off < len(blob); off += s.cfg.SplitChunkSize {
			hi := off + s.cfg.SplitChunkSize
			if hi > len(blob) {
				hi = len(blob)
			}
			n++
			if err := s.tr.Set(s.recordKey(rec.PrimaryKey, n), blob[off:hi]); err != nil {
				return err
			}
		}
		rec.SplitChunks = int(n)
	}
	if s.md.StoreRecordVersions {
		// The version slot immediately precedes the record data (§4); the
		// 10-byte prefix is substituted with the commit version at commit.
		user := rec.pendingUserVersion
		val := make([]byte, 12, 16)
		for i := 0; i < 10; i++ {
			val[i] = 0xFF
		}
		binary.BigEndian.PutUint16(val[10:], user)
		var off [4]byte // versionstamp at offset 0
		val = append(val, off[:]...)
		key := s.recordKey(rec.PrimaryKey, versionSuffix)
		if err := s.tr.Atomic(fdb.MutationSetVersionstampedValue, key, val); err != nil {
			return err
		}
	}
	return nil
}

// clearRecord clears old's pairs before a save or delete rewrites or removes
// its record. dataKept says the new record is unsplit, so its Set overwrites
// an unsplit old record's one data pair; versionKept says the save writes a
// version slot, which overwrites old's. A split old record gets a range clear,
// since the new record may hold fewer chunks (§4); an unsplit one a point
// clear of each of its keys nothing overwrites.
//
// old must be the record as this transaction loaded it, by a serializable
// read of its whole key range: SaveRecord's and DeleteRecord's load,
// SaveRecords' prefetch, or a batch duplicate's read-your-writes load. Its
// shape is then the truth at commit, because a concurrent writer that splits
// or rewrites the record writes into that read range, and this transaction
// fails to commit (TestStaleSizeInfoStillConflicts).
func (s *Store) clearRecord(old *StoredRecord, dataKept, versionKept bool) error {
	switch {
	case old == nil:
		return nil
	case !old.unsplit:
		b, e := s.recordRange(old.PrimaryKey)
		return s.tr.ClearRange(b, e)
	}
	if !dataKept {
		if err := s.tr.Clear(s.recordKey(old.PrimaryKey, unsplitRecord)); err != nil {
			return err
		}
	}
	if old.HasVersion && !versionKept {
		return s.tr.Clear(s.recordKey(old.PrimaryKey, versionSuffix))
	}
	return nil
}

func mustMarshal(m *message.Message) []byte {
	b, err := m.Marshal()
	if err != nil {
		panic(fmt.Sprintf("core: marshal: %v", err))
	}
	return b
}

// LoadRecordByKey fetches one record by primary key; nil when absent. The
// version slot and all record chunks arrive in a single range read (§4).
func (s *Store) LoadRecordByKey(pk tuple.Tuple) (*StoredRecord, error) {
	return s.loadRecordByKey(pk, false)
}

// issueLoadRecord starts the range read for one record's pairs, [begin, end),
// without awaiting it; many loads issued back-to-back overlap their I/O
// windows.
func (s *Store) issueLoadRecord(begin, end []byte, snapshot bool) *fdb.FutureRange {
	if snapshot {
		return s.tr.Snapshot().GetRangeAsync(begin, end, fdb.RangeOptions{})
	}
	return s.tr.GetRangeAsync(begin, end, fdb.RangeOptions{})
}

// awaitLoadRecord completes an issued load: reassemble, decode. Nil when the
// record is absent. A nil pk is decoded from the record's keys.
func (s *Store) awaitLoadRecord(pk tuple.Tuple, f *fdb.FutureRange) (*StoredRecord, error) {
	kvs, _, err := f.Get()
	if err != nil {
		return nil, err
	}
	if len(kvs) == 0 {
		return nil, nil
	}
	return s.assembleRecord(pk, kvs, nil)
}

func (s *Store) loadRecordByKey(pk tuple.Tuple, snapshot bool) (*StoredRecord, error) {
	b, e := s.recordRange(pk)
	return s.awaitLoadRecord(pk, s.issueLoadRecord(b, e, snapshot))
}

// recordChunk is one pair of a (possibly split) record during reassembly.
type recordChunk struct {
	suffix int64
	value  []byte
}

// assembleRecord splices a record's pairs back together (§4). Chunks are
// ordered by suffix so reverse scans assemble correctly. Safe for concurrent
// use by pipelined fetches. A nil pk is unpacked from the record's keys, once
// it is needed.
//
// keep, when set, sees the record's type and wire bytes before anything is
// built: false returns no record, and neither the primary key nor the message
// is decoded (a filtered scan, RecordFilter).
//
// The record shares the fetched values: GetRange returns the database's own
// bytes, which nobody writes (kvreadonly), and a Serializer's Decode returns
// bytes no one else writes. So the wire bytes are not copied out of the
// envelope when neither of its elements holds a zero byte, and the message's
// string and unknown fields view the fetched value; nothing may write it
// afterwards (TestDecodedStringsSurviveLaterWork).
func (s *Store) assembleRecord(pk tuple.Tuple, kvs []fdb.KeyValue, keep func(*metadata.RecordType, []byte) (bool, error)) (*StoredRecord, error) {
	var stack [8]recordChunk // a record of up to 8 chunks sorts in place
	parts := stack[:0]
	var (
		packedPK   []byte
		version    tuple.Versionstamp
		hasVersion bool
	)
	sorted := true
	for _, kv := range kvs {
		p, packed, err := s.splitRecordKey(kv.Key)
		if err != nil {
			return nil, err
		}
		packedPK = p
		suffix, _, ok := tuple.Int64At(packed)
		if !ok {
			t, _ := s.space.Unpack(kv.Key)
			return nil, fmt.Errorf("core: malformed record key suffix in %v", t)
		}
		if suffix == versionSuffix {
			v, err := tuple.VersionstampFromBytes(kv.Value)
			if err != nil {
				return nil, fmt.Errorf("core: corrupt version slot: %v", err)
			}
			version, hasVersion = v, true
			continue
		}
		if n := len(parts); n > 0 && parts[n-1].suffix > suffix {
			sorted = false
		}
		parts = append(parts, recordChunk{suffix: suffix, value: kv.Value})
	}
	if !sorted { // only reverse scans pay the sort
		slices.SortFunc(parts, func(a, b recordChunk) int { return cmp.Compare(a.suffix, b.suffix) })
	}
	if len(parts) == 0 {
		// Only a version slot survives — treat as missing (can happen if a
		// caller cleared data keys directly).
		return nil, nil
	}
	var blob []byte
	if len(parts) == 1 {
		// Unsplit records reuse the fetched value: the database's own bytes,
		// which nobody writes (kvreadonly), so sharing them is safe.
		blob = parts[0].value
	} else {
		total := 0
		for _, p := range parts {
			total += len(p.value)
		}
		blob = make([]byte, 0, total)
		for _, p := range parts {
			blob = append(blob, p.value...)
		}
	}
	envelope, err := s.cfg.Serializer.Decode(blob)
	if err != nil {
		return nil, err
	}
	name, wire, err := readEnvelope(envelope)
	if err != nil {
		if pk == nil {
			pk, _ = tuple.Unpack(packedPK) // splitRecordKey read it, so it unpacks
		}
		return nil, fmt.Errorf("core: %v for %v", err, pk)
	}
	rt, ok := s.md.RecordType(string(name))
	if !ok {
		return nil, fmt.Errorf("core: record of unknown type %q; metadata may predate it", name)
	}
	if keep != nil {
		if ok, err := keep(rt, wire); !ok || err != nil {
			return nil, err
		}
	}
	if pk == nil {
		if pk, err = tuple.Unpack(packedPK); err != nil {
			return nil, err
		}
	}
	msg, err := message.Unmarshal(rt.Descriptor, wire)
	if err != nil {
		return nil, err
	}
	return &StoredRecord{Type: rt, Message: msg, PrimaryKey: pk, Version: version, HasVersion: hasVersion,
		Size: len(blob), SplitChunks: len(parts), unsplit: len(parts) == 1 && parts[0].suffix == unsplitRecord}, nil
}

var (
	errCorruptEnvelope = errors.New("corrupt record envelope")
	errCorruptTypeTag  = errors.New("corrupt record type tag")
	// errForeignContinuation rejects a continuation that is no primary key in range.
	errForeignContinuation = fmt.Errorf("core: not a primary key in the scan's range: %w", cursor.ErrCorruptContinuation)
)

// readEnvelope splits a record envelope, the packed tuple (type name, wire
// bytes). When neither element holds a zero byte it reads both in place, and
// name and wire alias envelope; otherwise it unpacks the envelope, copying
// them.
func readEnvelope(envelope []byte) (name, wire []byte, err error) {
	if name, n, ok := tuple.StringAt(envelope); ok {
		if wire, m, ok := tuple.BytesAt(envelope[n:]); ok && n+m == len(envelope) {
			return name, wire, nil
		}
	}
	t, err := tuple.Unpack(envelope)
	if err != nil || len(t) != 2 {
		return nil, nil, errCorruptEnvelope
	}
	typeName, ok := t[0].(string)
	if !ok {
		return nil, nil, errCorruptTypeTag
	}
	wire, _ = t[1].([]byte) // any other element reads as a message with no fields
	return []byte(typeName), wire, nil
}

// DeleteRecord removes a record and its index entries; false when absent. An
// unsplit record's keys are cleared one by one, a split record's as a range
// (clearRecord).
func (s *Store) DeleteRecord(pk tuple.Tuple) (bool, error) {
	old, err := s.LoadRecordByKey(pk)
	if err != nil {
		return false, err
	}
	if old == nil {
		return false, nil
	}
	pendings, err := s.updateIndexesAsync(old, nil)
	if err != nil {
		return false, err
	}
	if err := s.awaitIndexPendings(pendings); err != nil {
		return false, err
	}
	if err := s.clearRecord(old, false, false); err != nil {
		return false, err
	}
	return true, nil
}

// DeleteAllRecords clears all records and index data but preserves the
// store header.
func (s *Store) DeleteAllRecords() error {
	if err := s.tr.BumpMetadataVersion(); err != nil {
		return err
	}
	for _, sub := range []int{recordsSub, indexSub, stateSub, progressSub} {
		b, e := s.space.RangeForTuple(tuple.Tuple{int64(sub)})
		if err := s.tr.ClearRange(b, e); err != nil {
			return err
		}
	}
	// Cached maintainers may hold per-transaction pipelining overlays whose
	// written values no longer describe the cleared index subspaces, and
	// loaded index states no longer describe the cleared state subspace.
	s.maintainers = nil
	s.states, s.ownStates = nil, false
	return nil
}

// ScanOptions controls record scans.
type ScanOptions struct {
	Reverse      bool
	Limiter      *cursor.Limiter
	Continuation []byte
	// Range restricts the scan to a primary key interval.
	Range index.TupleRange
	// Snapshot reads without adding read conflict ranges.
	Snapshot bool
	// Filter, when set, drops records before they are built.
	Filter *RecordFilter
}

// RecordFilter lets a scan drop records before it builds them: §10.2's full
// scan "that skips over records of other types", and a residual filter over
// it. For each record the scan reads the envelope and checks the type, then
// walks the wire bytes once with a message.Partial, which fails wherever
// decoding the message would but decodes only Fields. Then the limiter is
// charged, and Keep decides. Only a record it keeps is built, so one it drops
// costs its pairs and the walk.
type RecordFilter struct {
	// Types lists the record types the scan delivers; empty delivers all.
	Types []string
	// Fields names the top-level fields Keep reads.
	Fields []string
	// Keep is called for each record the limiter admits, in scan order. msg
	// holds only the record's Fields and is valid during the call alone; it is
	// nil for a record whose type is not in Types, which is dropped whatever
	// Keep returns. An error fails the scan.
	Keep func(msg *message.Message) (bool, error)
}

// ScanRecords streams records in primary key order. All record types share
// one extent, so the stream interleaves types (§4); the continuation is the
// packed primary key of the last complete record.
func (s *Store) ScanRecords(opts ScanOptions) cursor.Cursor[*StoredRecord] {
	begin, end, err := opts.Range.ToKeyRange(s.records)
	if err != nil {
		return cursor.Fail[*StoredRecord](err)
	}
	if len(opts.Continuation) > 0 {
		// The continuation is the packed pk of the last record returned, a
		// primary key in the range; skip all of its pairs.
		key := append(s.records.Bytes(), opts.Continuation...)
		if !s.isPrimaryKey(opts.Continuation) || bytes.Compare(key, begin) < 0 || bytes.Compare(key, end) >= 0 {
			return cursor.Fail[*StoredRecord](errForeignContinuation)
		}
		if !opts.Reverse {
			if begin, err = tuple.Strinc(key); err != nil {
				return cursor.Fail[*StoredRecord](err)
			}
		} else {
			end = key
		}
	}
	// The limiter is charged per assembled record (below), not per raw pair:
	// §8.2's scanned-records limit counts records, and the "first record is
	// always admitted" progress guarantee must hold even when a single record
	// spans more pairs than the limit — a pair-granular limiter would halt
	// mid-record with no progress.
	kvs := kvcursor.New(s.tr, begin, end, kvcursor.Options{
		Reverse:  opts.Reverse,
		Snapshot: opts.Snapshot,
	})
	rc := &recordCursor{store: s, kvs: kvs, reverse: opts.Reverse, limiter: opts.Limiter, filter: opts.Filter,
		from: opts.Continuation}
	if n, ok := opts.Limiter.RecordsLeft(); ok {
		rc.demand(n + 1) // the record past the budget shows it was exceeded
	}
	return rc
}

// isPrimaryKey reports whether packed is a packed tuple with as many elements
// as the primary key of one of the store's record types.
func (s *Store) isPrimaryKey(packed []byte) bool {
	n, err := tuple.Count(packed)
	return err == nil && slices.ContainsFunc(s.md.RecordTypes(), func(rt *metadata.RecordType) bool { return rt.PrimaryKey.ColumnCount() == n })
}

// recordCursor groups raw pairs into whole records (handling splits).
type recordCursor struct {
	store   *Store
	kvs     cursor.Cursor[fdb.KeyValue]
	reverse bool
	limiter *cursor.Limiter
	halted  *cursor.Result[*StoredRecord]
	lastPK  []byte
	// from is the continuation the scan resumed from: the position a limit
	// halt hands back before any record is read, so resuming does not restart.
	from []byte
	// pushed is the first pair of the next record, read while finding the end
	// of the previous one; Next takes it before asking kvs for more.
	pushed    fdb.KeyValue
	hasPushed bool
	// group collects the pairs of the record being read; assembleRecord keeps
	// none of them, so each Next reuses it.
	group []fdb.KeyValue
	// filter is ScanOptions.Filter; partials decode the fields it reads from
	// each record type met so far, none from a type it does not deliver.
	filter   *RecordFilter
	partials map[*metadata.RecordType]*message.Partial
}

// admit charges the limiter one record, the group's key-value footprint. A
// refusal halts the cursor with the continuation of the previous record, or of
// the one it resumed after, so the refused one is re-read on resume rather
// than lost; the Limiter's first-record admission guarantees every execution
// delivers at least one.
func (c *recordCursor) admit(group []fdb.KeyValue) bool {
	nbytes := 0
	for _, kv := range group {
		nbytes += len(kv.Key) + len(kv.Value)
	}
	reason, ok := c.limiter.TryRecord(nbytes)
	if !ok {
		cont := c.lastPK
		if cont == nil {
			cont = c.from
		}
		c.halted = &cursor.Result[*StoredRecord]{OK: false, Reason: reason, Continuation: cont}
	}
	return ok
}

// flush assembles a completed group into a record and charges the limiter
// for it: after assembly, or with a filter between the walk and Keep. It
// returns no record for a group that holds none (a version slot alone), for
// one the limiter refused, and for one the filter dropped; admitted is true
// for a record the limiter admitted, delivered or not.
func (c *recordCursor) flush(group []fdb.KeyValue) (rec *StoredRecord, admitted bool, err error) {
	var keep func(*metadata.RecordType, []byte) (bool, error)
	if c.filter != nil {
		keep = func(rt *metadata.RecordType, wire []byte) (bool, error) {
			msg, err := c.walk(rt, wire)
			if err != nil {
				return false, err
			}
			if admitted = c.admit(group); !admitted {
				return false, nil
			}
			return c.filter.Keep(msg)
		}
	}
	rec, err = c.store.assembleRecord(nil, group, keep)
	if err != nil {
		return nil, false, err
	}
	if rec != nil && keep == nil {
		if admitted = c.admit(group); !admitted {
			return nil, false, nil
		}
	}
	return rec, admitted, nil
}

// walk checks a record's wire bytes as decoding its message would, and returns
// the fields the filter reads, or nil for a type the filter does not deliver.
func (c *recordCursor) walk(rt *metadata.RecordType, wire []byte) (*message.Message, error) {
	delivered := len(c.filter.Types) == 0 || slices.Contains(c.filter.Types, rt.Name)
	p := c.partials[rt]
	if p == nil {
		var fields []string
		if delivered {
			fields = c.filter.Fields
		}
		p = message.NewPartial(rt.Descriptor, fields...)
		if c.partials == nil {
			c.partials = map[*metadata.RecordType]*message.Partial{}
		}
		c.partials[rt] = p
	}
	msg, err := p.Decode(wire)
	if err != nil || !delivered {
		return nil, err
	}
	return msg, nil
}

// Prefetch implements cursor.Prefetcher by forwarding to the pair source;
// while a pushed-back pair is held the next delivery needs no I/O.
func (c *recordCursor) Prefetch() {
	if c.halted != nil || c.hasPushed {
		return
	}
	cursor.Prefetch(c.kvs)
}

// Demand implements cursor.Demander. A filtered scan delivers fewer records
// than it reads, so like cursor.Filter it does not pass a demand on.
func (c *recordCursor) Demand(n int) {
	if c.filter == nil {
		c.demand(n)
	}
}

// demand asks the pair source for n records' pairs: an unsplit record is one
// pair, two with a version slot, and the pair after the last one shows it
// ended. Split records take more; the short hint then costs a second read.
func (c *recordCursor) demand(n int) {
	per := 1
	if c.store.md.StoreRecordVersions {
		per = 2
	}
	cursor.Demand(c.kvs, n*per+1)
}

// nextPair takes the pushed-back pair if one is held, else the source's next.
func (c *recordCursor) nextPair() (cursor.Result[fdb.KeyValue], error) {
	if c.hasPushed {
		c.hasPushed = false
		return cursor.Result[fdb.KeyValue]{Value: c.pushed, OK: true}, nil
	}
	return c.kvs.Next()
}

// nextGroup reads the pairs of the next record: its packed primary key, its
// pairs, and whether the source ended right after them. With no complete
// record left it returns no pairs and the source's halt.
func (c *recordCursor) nextGroup() (packed []byte, group []fdb.KeyValue, stop cursor.Result[fdb.KeyValue], err error) {
	group = c.group[:0]
	for {
		r, err := c.nextPair()
		if err != nil {
			return nil, nil, r, err
		}
		if !r.OK {
			if len(group) > 0 && r.Reason == cursor.SourceExhausted {
				return packed, group, r, nil
			}
			// Out-of-band halt: drop the partial group.
			return nil, nil, r, nil
		}
		pk, _, err := c.store.splitRecordKey(r.Value.Key)
		if err != nil {
			return nil, nil, r, err
		}
		if len(group) == 0 || bytes.Equal(pk, packed) {
			group = append(group, r.Value)
			c.group, packed = group, pk
			continue
		}
		// A new primary key begins: push its first pair back for the next
		// group.
		c.pushed, c.hasPushed = r.Value, true
		return packed, group, r, nil
	}
}

// Next implements cursor.Cursor.
func (c *recordCursor) Next() (cursor.Result[*StoredRecord], error) {
	for c.halted == nil {
		packed, group, stop, err := c.nextGroup()
		if err != nil {
			return cursor.Result[*StoredRecord]{}, err
		}
		if group == nil {
			// The continuation names the last complete record.
			c.halted = &cursor.Result[*StoredRecord]{OK: false, Reason: stop.Reason, Continuation: c.lastPK}
			break
		}
		rec, admitted, err := c.flush(group)
		if err != nil {
			return cursor.Result[*StoredRecord]{}, err
		}
		if c.halted != nil {
			break // the limiter refused the record
		}
		c.lastPK = packed
		if admitted && !stop.OK {
			// The last record ends the scan with no continuation, delivered
			// or not; after a version slot alone the source's halt names it.
			c.halted = &cursor.Result[*StoredRecord]{OK: false, Reason: cursor.SourceExhausted}
		}
		if rec != nil {
			return cursor.Result[*StoredRecord]{Value: rec, OK: true, Continuation: packed}, nil
		}
		// A version slot alone is no record, and a dropped one is not
		// delivered: read on.
	}
	return *c.halted, nil
}
