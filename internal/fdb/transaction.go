package fdb

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sync"

	"recordlayer/internal/fdb/internal/cluster"
	"recordlayer/internal/obs"
)

// KeyRange is a half-open key interval [Begin, End).
type KeyRange = cluster.KeyRange

// KeyValue is a single key-value pair returned by range reads: an element of
// GetRange's slice, or what Pairs.At builds from a future's reply. Key and
// Value are the database's own bytes — the snapshot's, or the transaction's
// write buffer's — shared with every other read of the pair and never written
// again, so a caller may keep them for as long as it likes. They are
// read-only: each has cap == len, so an append copies, and a caller that must
// write into one makes its own copy first (rl-vet's kvreadonly analyzer checks
// this).
type KeyValue struct {
	Key, Value []byte
}

// RangeOptions controls range reads.
type RangeOptions struct {
	// Limit bounds the number of pairs returned; 0 means unlimited.
	Limit int
	// ByteLimit bounds the total key+value bytes returned; 0 means unlimited.
	ByteLimit int
	// Reverse returns pairs in descending key order, starting from End.
	Reverse bool
}

// MutationType enumerates atomic read-modify-write operations (§2). Atomic
// mutations do not add read conflicts, so concurrent mutations of the same
// key never conflict — the property aggregate indexes rely on (§7).
type MutationType = cluster.MutationType

// The atomic ops; see cluster.MutationType for each one's fold.
const (
	MutationAdd                    = cluster.MutationAdd
	MutationBitAnd                 = cluster.MutationBitAnd
	MutationBitOr                  = cluster.MutationBitOr
	MutationBitXor                 = cluster.MutationBitXor
	MutationMax                    = cluster.MutationMax
	MutationMin                    = cluster.MutationMin
	MutationByteMax                = cluster.MutationByteMax
	MutationByteMin                = cluster.MutationByteMin
	MutationAppendIfFits           = cluster.MutationAppendIfFits
	MutationCompareAndClear        = cluster.MutationCompareAndClear
	MutationSetVersionstampedKey   = cluster.MutationSetVersionstampedKey
	MutationSetVersionstampedValue = cluster.MutationSetVersionstampedValue
)

// Meter is billed for the work a transaction asks of the cluster, when it
// asks. A Get, or one GetRange batch, is one RecordRead of the keys and bytes
// the snapshot served it; what the write buffer answers is free. A set, clear,
// range clear, atomic or versionstamped op is one RecordWrite of one row and
// the bytes it adds to TxnStats.Size. Both run under the transaction's lock,
// so a Meter must never call back into the transaction. *resource.Meter is
// one.
type Meter interface {
	RecordRead(rows, bytes int)
	RecordWrite(rows, bytes int)
}

// Transaction provides serializable reads and buffered writes against a
// Database. Operations are serialized by an internal mutex, so a transaction
// handle may be shared by concurrent goroutines — the real client is likewise
// thread-safe, which is what lets the Record Layer keep multiple record
// fetches in flight behind one index scan (§8's asynchronous pipelining).
type Transaction struct {
	db *Database
	mu sync.Mutex
	txnState
}

// txnState is every Transaction field that Reset returns to zero — kept in
// one embedded struct so Reset stays exhaustive by construction when fields
// are added (the mutex must survive a Reset and lives outside).
type txnState struct {
	start int64 // start wall clock, nanoseconds

	// snap is the snapshot the reads see: nil until a GRV, or the first read
	// after SetReadVersion, binds one.
	snap *cluster.Snapshot
	// grvReady is the latency-clock time the GRV round trip completes
	// (latency model only; 0 when no real GRV has been priced). Reads issue
	// no earlier than it, so the GRV window pipelines with the first read
	// window instead of stacking serially with every read.
	grvReady int64

	// req is what Commit sends, built in place as the transaction runs: the
	// read version (-1 until GRV; SetReadVersion's until the snapshot is
	// bound), the conflict ranges, the metadata-version bump and the write
	// buffer. The buffer, req.Writes, is a treap that only this transaction
	// holds, edited in place, one immutable entry per written key. It stays in
	// key order from the first Set to commit, so a range read merges an
	// iterator over it with one over the snapshot, and commit walks it into a
	// sorted batch. req.Deferred holds a BufEntry for exactly the entries of
	// req.Writes that are pending atomics or versionstamped values; bufSet and
	// bufDeleteRange are the only code that edits either, so neither outlives
	// the other.
	req cluster.CommitRequest

	// outstanding holds the ready times of reads still in flight per the
	// latency clock (latency model only): entries at or before the clock are
	// dropped at the next issue, so abandoned futures age out naturally.
	outstanding []int64

	// trace, when set, receives GRV / read-window / await / commit spans
	// priced by the latency clock. Nil (the default) costs one pointer check
	// per site.
	trace *obs.Trace
	// meter, when bound, is billed wherever stats counts a read or a write.
	meter Meter

	stats    TxnStats
	cVersion int64 // committed version
	// onCommit is every hook OnCommit registered, chained in order.
	onCommit func(version int64, bumped bool)
	// checks is every check AddCommitCheck queued and RunCommitChecks has not
	// run, chained in order; after a check fails, a check that returns its
	// error again.
	checks func() error

	// The flags and the local version share one word, which keeps a
	// Transaction in its size class.
	committed bool
	canceled  bool
	readOnly  bool // CreateReadTransaction's: no read conflicts, no writes committed
	// localVersion is the next user version ClaimLocalVersion hands out.
	localVersion uint16
}

func (d *Database) nowNanos() int64 { return d.opts.Clock().UnixNano() }

func (t *Transaction) checkUsable() error {
	if t.committed {
		return errCode(CodeUsedDuringCommit, "transaction already committed")
	}
	if t.canceled {
		return errCode(CodeTransactionCanceled, "transaction canceled")
	}
	if t.db.nowNanos()-t.start > int64(t.db.opts.Limits.TxnTimeout) {
		return errCode(CodeTransactionTimedOut, "transaction timed out")
	}
	return nil
}

func (t *Transaction) ensureSnapshot() error {
	if t.snap != nil {
		return nil
	}
	if t.req.ReadVersion >= 0 {
		// SetReadVersion was called: bind to the retained snapshot now.
		snap, ok := t.db.cluster.SnapshotAt(t.req.ReadVersion)
		if !ok {
			return errCode(CodeTransactionTooOld, "read version %d no longer retained", t.req.ReadVersion)
		}
		t.snap, t.req.ReadVersion = snap, snap.Version
		return nil
	}
	t.db.metrics.GRVCalls.Add(1)
	t.snap = t.db.cluster.GRV()
	t.req.ReadVersion = t.snap.Version
	// A SetReadVersion transaction never reaches here — read-version
	// caching skips the GRV round trip and therefore its price.
	if m := t.db.opts.Latency; m.Enabled() && m.PerGRV > 0 {
		now := t.db.simNow()
		t.grvReady = now + int64(m.PerGRV)
		if t.trace != nil {
			t.trace.Add(obs.SpanGRV, now, t.grvReady, 0, "")
		}
	} else if t.trace != nil {
		now := t.db.simNow()
		t.trace.Add(obs.SpanGRV, now, now, 0, "")
	}
	return nil
}

// GetReadVersion returns the transaction's read version, performing (and,
// under a latency model, waiting out) the GRV call if it has not happened yet.
func (t *Transaction) GetReadVersion() (int64, error) {
	v, _, _, err := t.awaitGRV()
	return v, err
}

// MetadataVersion returns the database's metadata version as of this
// transaction's read version: the commit version of the newest transaction at
// or below it that called BumpMetadataVersion (0 when none has). The value
// rides the GRV reply, so it costs no read window, no KeysRead and no read
// conflict — a cache entry validated by it still needs read conflicts on the
// keys it stands for. ok is false once this transaction has bumped: its own
// bump has no version until commit, so nothing can be validated against it.
func (t *Transaction) MetadataVersion() (v int64, ok bool, err error) {
	t.note(AccessRead, MetadataVersionKey, nil, true)
	_, v, bumped, err := t.awaitGRV()
	return v, !bumped, err
}

// awaitGRV binds the snapshot (performing the GRV call on first use) and
// waits out the GRV round trip. The wait is no fdb.await span: the fdb.grv
// span already covers it, and fdb.await counts read windows.
func (t *Transaction) awaitGRV() (readVersion, metaVersion int64, bumped bool, err error) {
	t.mu.Lock()
	if err = t.checkUsable(); err == nil {
		err = t.ensureSnapshot()
	}
	if err != nil {
		t.mu.Unlock()
		return 0, 0, false, err
	}
	readVersion, metaVersion, bumped = t.req.ReadVersion, t.snap.Meta, t.req.BumpMeta
	ready := t.grvReady
	t.mu.Unlock()
	t.await(ready, "")
	return readVersion, metaVersion, bumped, nil
}

// BumpMetadataVersion makes this transaction's commit advance the database's
// metadata version to its commit version (a versionstamped write of
// \xff/metadataVersion in FDB >= 6.1). The bump applies atomically with the
// commit's other mutations, so a commit_unknown_result leaves exactly the
// ambiguity every other write of the transaction has. It conflicts with
// nothing and is not a user key: no byte or key counter moves.
func (t *Transaction) BumpMetadataVersion() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkUsable(); err != nil {
		return err
	}
	t.note(AccessWrite, MetadataVersionKey, nil, false)
	t.req.BumpMeta = true
	return nil
}

// HasMutations reports whether the transaction has buffered any write (set,
// clear, atomic op or metadata-version bump): its reads may then see
// uncommitted state, so nothing read through it may outlive it in a cache.
func (t *Transaction) HasMutations() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats.Mutations > 0 || t.req.BumpMeta
}

// Database returns the database the transaction runs against, so caches that
// outlive it can key on the cluster.
func (t *Transaction) Database() *Database { return t.db }

// SetReadVersion supplies a cached read version, skipping the GRV call (the
// read-version caching optimization of §4). Reads will observe the newest
// retained snapshot at or below v; if none is retained the next read fails
// with transaction_too_old.
func (t *Transaction) SetReadVersion(v int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.req.ReadVersion = v
	t.snap = nil
}

// Snapshot returns a read interface that performs snapshot reads: reads that
// add no read conflict ranges and therefore never cause this transaction to
// abort (§2, §10.1).
func (t *Transaction) Snapshot() Snapshot { return Snapshot{t} }

// Snapshot is the snapshot-isolation read view of a transaction.
type Snapshot struct{ t *Transaction }

// Get reads a key at snapshot isolation.
func (s Snapshot) Get(key []byte) ([]byte, error) { return s.t.syncGet(key, true) }

// GetAsync issues a snapshot single-key read as a future.
func (s Snapshot) GetAsync(key []byte) *FutureValue { return s.t.getAsync(key, true) }

// GetRange reads a range at snapshot isolation.
func (s Snapshot) GetRange(begin, end []byte, o RangeOptions) ([]KeyValue, bool, error) {
	return s.t.syncGetRange(begin, end, o, true)
}

// GetRangeAsync issues a snapshot range read as a future.
func (s Snapshot) GetRangeAsync(begin, end []byte, o RangeOptions) *FutureRange {
	return s.t.getRangeAsync(begin, end, o, true)
}

// Get reads a key with full serializable isolation.
func (t *Transaction) Get(key []byte) ([]byte, error) { return t.syncGet(key, false) }

// syncGet is issue-plus-await without materializing a future, keeping the
// synchronous read path allocation-free.
func (t *Transaction) syncGet(key []byte, snapshot bool) ([]byte, error) {
	t.mu.Lock()
	val, err := t.getLocked(key, snapshot)
	var ready int64
	if err == nil {
		ready = t.issueLocked(len(key) + len(val))
	}
	t.mu.Unlock()
	t.awaitRead(ready)
	return val, err
}

// GetAsync issues a single-key read and returns a future for its result. The
// read's data (and its conflict range and accounting) is established now;
// only the simulated latency wait is deferred to Get. Issue many, then await:
// concurrent futures resolve within one latency window (§8).
func (t *Transaction) GetAsync(key []byte) *FutureValue { return t.getAsync(key, false) }

func (t *Transaction) getAsync(key []byte, snapshot bool) *FutureValue {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := &FutureValue{fut: fut{t: t}}
	f.value, f.err = t.getLocked(key, snapshot)
	if f.err == nil {
		f.ready = t.issueLocked(len(key) + len(f.value))
	}
	return f
}

// issueLocked registers one read with the latency model, returning the
// latency-clock time at which it completes (0 when latency is off, keeping
// the instant-read hot path free of clock reads and in-flight bookkeeping).
// In-flight tracking is by ready time: reads the clock has passed are retired
// here, so futures abandoned without an await age out instead of inflating
// the high-water mark.
func (t *Transaction) issueLocked(nbytes int) int64 {
	m := t.db.opts.Latency
	if !m.Enabled() {
		return 0
	}
	now := t.db.simNow()
	// A read cannot issue before the GRV round trip resolves; the GRV and
	// read windows still pipeline into one wait for the first await.
	issueAt := now
	if t.grvReady > issueAt {
		issueAt = t.grvReady
	}
	ready := issueAt + int64(m.readCost(nbytes))
	if f := t.db.opts.Faults; f != nil {
		ready += f.latencySpike()
	}
	if t.trace != nil {
		t.trace.Add(obs.SpanRead, issueAt, ready, nbytes, "")
	}
	live := t.outstanding[:0]
	for _, r := range t.outstanding {
		if r > now {
			live = append(live, r)
		}
	}
	t.outstanding = append(live, ready)
	if len(t.outstanding) > t.stats.InFlightHighWater {
		t.stats.InFlightHighWater = len(t.outstanding)
	}
	return ready
}

// awaitRead waits out a read issued at issueLocked, charging any actual wait
// to the transaction and database counters. ready == 0 means no latency
// model; repeated awaits of the same ready time cost nothing extra.
func (t *Transaction) awaitRead(ready int64) { t.await(ready, obs.SpanAwait) }

// await waits until the latency clock reaches ready and, when it really
// waited and span is named, records the wait as that span.
func (t *Transaction) await(ready int64, span string) {
	if ready == 0 {
		return
	}
	waited := t.db.waitUntil(ready)
	if waited == 0 {
		return
	}
	t.mu.Lock()
	t.stats.SimWaitNanos += waited
	trace := t.trace
	t.mu.Unlock()
	t.db.metrics.SimWaitNanos.Add(waited)
	if trace != nil && span != "" {
		trace.Add(span, ready-waited, ready, 0, "")
	}
}

func (t *Transaction) getLocked(key []byte, snapshot bool) ([]byte, error) {
	if err := t.checkUsable(); err != nil {
		return nil, err
	}
	t.note(AccessRead, key, nil, snapshot)
	if f := t.db.opts.Faults; f != nil {
		if err := f.readFault(); err != nil {
			return nil, err
		}
	}
	if len(key) > t.db.opts.Limits.MaxKeySize {
		return nil, errCode(CodeKeyTooLarge, "key of %d bytes exceeds limit", len(key))
	}
	e := cluster.Get(t.req.Writes, key)
	if e == nil && t.req.Clears.ContainsKey(key) {
		return nil, nil
	}
	be := t.req.Deferred[e]
	if e != nil && (be == nil || be.VsOff >= 0) {
		val, _ := t.ownValue(e, be)
		return val, nil
	}
	if err := t.ensureSnapshot(); err != nil {
		return nil, err
	}
	base := cluster.Get(t.snap.Root, key)
	if !snapshot && !t.readOnly {
		t.req.ReadConflicts.AddKey(key)
	}
	if be == nil || !be.Fetched {
		t.countRead(1, len(key)+len(base.Val()))
	}
	if e == nil {
		return shared(base.Val()), nil
	}
	// Pending atomic ops: materialize against the read snapshot.
	m, gone := t.materialize(e, be, base, !snapshot)
	if gone {
		if !snapshot {
			t.clearBuffered(key)
		}
		return nil, nil
	}
	return shared(m.Value), nil
}

// ownValue is what a read of buffered entry e sees when the buffer alone
// answers it: be is nil (a plain set) or versionstamped. The stamp is unknown
// until commit, so a read sees the placeholder bytes with any later ops folded
// over them; gone reports that one of those ops clears the key.
func (t *Transaction) ownValue(e *cluster.Entry, be *cluster.BufEntry) (val []byte, gone bool) {
	if be == nil || be.Ops == nil {
		return shared(e.Value), false
	}
	return cluster.ApplyMutations(e.Value, be.Ops, t.db.opts.Limits.MaxValueSize)
}

// materialize folds the pending atomic ops of buffered entry e over base, the
// snapshot's entry for the key (nil when it has none), which the caller counts
// unless be is fetched; gone says a COMPARE_AND_CLEAR matched. With convert (a
// serializable read, whose conflict on the key guards the result) the key
// becomes a plain set of it, or on gone the caller clears it once no iterator
// walks the buffer. A snapshot read records no conflict, so the ops stay
// pending, as FoundationDB's read-your-writes layer keeps them: made a set,
// they would overwrite what a transaction committed since the read version.
func (t *Transaction) materialize(e *cluster.Entry, be *cluster.BufEntry, base *cluster.Entry, convert bool) (m *cluster.Entry, gone bool) {
	val, cleared := cluster.ApplyMutations(base.Val(), be.Ops, t.db.opts.Limits.MaxValueSize)
	be.Fetched = be.Fetched || !convert
	if cleared {
		return nil, true
	}
	m = &cluster.Entry{Key: e.Key, Value: val}
	if convert {
		t.bufSet(m, nil)
	}
	return m, false
}

// countRead counts keys read from the snapshot, nbytes of keys and values in
// all, once per Get or GetRange batch, and bills them to the bound meter.
func (t *Transaction) countRead(keys, nbytes int) {
	if keys == 0 {
		return
	}
	t.stats.KeysRead += keys
	t.stats.BytesRead += nbytes
	t.db.metrics.KeysRead.Add(int64(keys))
	t.db.metrics.BytesRead.Add(int64(nbytes))
	if t.meter != nil {
		t.meter.RecordRead(keys, nbytes)
	}
}

// GetRange returns key-value pairs in [begin, end), honoring limits. The
// second result reports whether more data remained when a limit stopped the
// scan early. The returned slice is the caller's, fresh on each call, to
// reorder or overwrite (a future's Pairs is shared instead); the Key and Value
// bytes in it are the database's, shared and read-only (see KeyValue).
func (t *Transaction) GetRange(begin, end []byte, o RangeOptions) ([]KeyValue, bool, error) {
	return t.syncGetRange(begin, end, o, false)
}

// syncGetRange is issue-plus-await without materializing a future. The pairs
// are copied out of the collector's stack array at their exact size; a read
// that outgrows it has written its KeyValues straight into their slice.
func (t *Transaction) syncGetRange(begin, end []byte, o RangeOptions, snapshot bool) ([]KeyValue, bool, error) {
	var stack [rangeStackLen]*cluster.Entry
	var kvs []KeyValue
	t.mu.Lock()
	n, _, more, nbytes, err := t.getRangeLocked(begin, end, o, snapshot, &stack, &kvs)
	var ready int64
	if err == nil {
		ready = t.issueLocked(nbytes)
	}
	t.mu.Unlock()
	t.awaitRead(ready)
	switch {
	case kvs != nil:
		kvs = kvs[:n:n]
	case n > 0:
		kvs = make([]KeyValue, n)
		for i, e := range stack[:n] {
			kvs[i] = pair(e)
		}
	}
	return kvs, more, err
}

// GetRangeAsync issues a range read as a future: the batch's data, conflict
// range and accounting are established now, and only the simulated latency
// wait is deferred to Get. A whole batch pays one per-read latency cost, so
// range reads issued ahead (kvcursor read-ahead, pipelined record fetches)
// overlap their windows with consumption. The future's reply is a Pairs.
func (t *Transaction) GetRangeAsync(begin, end []byte, o RangeOptions) *FutureRange {
	return t.getRangeAsync(begin, end, o, false)
}

func (t *Transaction) getRangeAsync(begin, end []byte, o RangeOptions, snapshot bool) *FutureRange {
	var stack [rangeStackLen]*cluster.Entry
	t.mu.Lock()
	defer t.mu.Unlock()
	f := &FutureRange{fut: fut{t: t}}
	var n, nbytes int
	n, f.pairs.es, f.more, nbytes, f.err = t.getRangeLocked(begin, end, o, snapshot, &stack, nil)
	if f.err == nil {
		f.ready = t.issueLocked(nbytes)
	}
	if f.pairs.es == nil && n > 0 {
		f.pairs.es = slices.Clone(stack[:n])
	}
	return f
}

// Mapper derives from the key of a pair a mapped read found the range of the
// pairs to read with it; begin >= end reads none. It runs under the
// transaction's lock, so, like a Meter, it must never call back into the
// transaction, and the bounds it returns need to live only until its next
// call.
type Mapper func(key []byte) (begin, end []byte)

// GetMappedRangeAsync is FoundationDB's getMappedRange: one request that reads
// a range and, for each pair it finds, the range mapper derives from the
// pair's key — an index batch and the records its entries point at, as the
// Java Record Layer's USE_REMOTE_FETCH reads them. The reply's Pairs.Mapped(i)
// holds pair i's. The request is one read window priced on the bytes of both,
// and one fault roll fails it whole. Each range, the scanned one and every
// mapped one, is otherwise read as GetRangeAsync reads it: its read-your-writes
// merge, read conflict, KeysRead and bytes, meter bill and tap note are a
// separate read's.
//
// Real FoundationDB refuses a mapped read of keys the transaction has written
// (get_mapped_range_reads_your_writes, error 2036): serving read-your-writes
// here is a simulator extension, so that the record layer keeps one fetch path
// whatever its transaction has buffered.
func (t *Transaction) GetMappedRangeAsync(begin, end []byte, o RangeOptions, mapper Mapper) *FutureRange {
	return t.getMappedRangeAsync(begin, end, o, mapper, false)
}

// GetMappedRangeAsync issues a snapshot mapped read as a future.
func (s Snapshot) GetMappedRangeAsync(begin, end []byte, o RangeOptions, mapper Mapper) *FutureRange {
	return s.t.getMappedRangeAsync(begin, end, o, mapper, true)
}

func (t *Transaction) getMappedRangeAsync(begin, end []byte, o RangeOptions, mapper Mapper, snapshot bool) *FutureRange {
	var stack [rangeStackLen]*cluster.Entry
	t.mu.Lock()
	defer t.mu.Unlock()
	f := &FutureRange{fut: fut{t: t}}
	n, es, more, nbytes, err := t.getRangeLocked(begin, end, o, snapshot, &stack, nil)
	if err != nil {
		f.err = err
		return f
	}
	if n == 0 {
		// An empty batch, such as the one that ends a scan, maps nothing:
		// Pairs.Mapped answers empty without a mapping.
		f.more, f.ready = more, t.issueLocked(nbytes)
		return f
	}
	if es == nil {
		es = slices.Clone(stack[:n])
	}
	m := &mapping{off: make([]int32, n+1)}
	for i, e := range es {
		b, end := mapper(e.Key)
		t.note(AccessRead, b, end, snapshot)
		k, spill, _, mbytes, err := t.rangeLocked(b, end, RangeOptions{}, snapshot, &stack, nil)
		if err != nil {
			f.err = err
			return f
		}
		if spill == nil {
			spill = stack[:k]
		}
		if m.es == nil {
			// Every record of a batch usually has as many pairs as its first.
			m.es = make([]*cluster.Entry, 0, n*max(k, 1))
		}
		m.es = append(m.es, spill...)
		m.off[i+1] = int32(len(m.es))
		nbytes += mbytes
	}
	f.pairs, f.more = Pairs{es: es, m: m}, more
	f.ready = t.issueLocked(nbytes)
	return f
}

// getRangeLocked performs the range read into stack: it returns how many pairs
// it found and, when they outgrew stack, the heap slice that holds them all
// (the spill), plus the total key+value bytes delivered (the latency model's
// transfer size). A pair is the database's own entry — the snapshot's, or the
// one the write buffer holds for the key — so collecting it copies a pointer.
// With kvs set, a read that outgrows stack collects KeyValues into *kvs
// instead of a spill: every pair found, in one slice of at least their count.
func (t *Transaction) getRangeLocked(begin, end []byte, o RangeOptions, snapshot bool, stack *[rangeStackLen]*cluster.Entry, kvs *[]KeyValue) (int, []*cluster.Entry, bool, int, error) {
	if err := t.checkUsable(); err != nil {
		return 0, nil, false, 0, err
	}
	t.note(AccessRead, begin, end, snapshot)
	// A fault here lands mid-scan from the cursor's perspective: earlier
	// batches of the same logical scan already succeeded.
	if f := t.db.opts.Faults; f != nil {
		if err := f.readFault(); err != nil {
			return 0, nil, false, 0, err
		}
	}
	return t.rangeLocked(begin, end, o, snapshot, stack, kvs)
}

// rangeLocked is getRangeLocked past its tap note and fault roll: the read
// itself, with its read-your-writes merge, accounting and read conflict.
func (t *Transaction) rangeLocked(begin, end []byte, o RangeOptions, snapshot bool, stack *[rangeStackLen]*cluster.Entry, kvs *[]KeyValue) (int, []*cluster.Entry, bool, int, error) {
	if bytes.Compare(begin, end) >= 0 {
		return 0, nil, false, 0, nil
	}
	if err := t.ensureSnapshot(); err != nil {
		return 0, nil, false, 0, err
	}

	// Read-your-writes is a merge of two ordered walks, the snapshot's and the
	// write buffer's, both starting where the scan does: the buffer costs what
	// it contributes, not its size.
	seek := begin
	if o.Reverse {
		seek = end
	}
	past := func(k []byte) bool { // k lies beyond the scan's far bound
		if o.Reverse {
			return bytes.Compare(k, begin) < 0
		}
		return bytes.Compare(k, end) >= 0
	}
	var snapIter, bufIter cluster.Iter
	snapIter.Seek(t.snap.Root, seek, o.Reverse)
	bufIter.Seek(t.req.Writes, seek, o.Reverse)

	// One larger than the stack array spills into a heap slice, which is then
	// the batch.
	var spill []*cluster.Entry
	n := 0
	var last []byte // the batch's last key
	var byteCount int
	var reads, readBytes int // from the snapshot, not the buffer
	more := false
	var cleared []*cluster.Entry // pending atomics that turned out to clear their key
	for {
		sn := snapIter.Peek() // the snapshot's next key in range that no clear covers
		for ; sn != nil; sn = snapIter.Peek() {
			if past(sn.E.Key) {
				sn = nil
				break
			}
			if !t.req.Clears.ContainsKey(sn.E.Key) {
				break
			}
			snapIter.Next()
		}
		bn := bufIter.Peek()
		if bn != nil && past(bn.E.Key) {
			bn = nil
		}
		if sn == nil && bn == nil {
			break
		}
		if (o.Limit > 0 && n >= o.Limit) || (o.ByteLimit > 0 && byteCount >= o.ByteLimit) {
			more = true
			break
		}
		order := -1 // of the snapshot's key against the buffer's, in scan direction
		if sn != nil && bn != nil {
			if order = bytes.Compare(sn.E.Key, bn.E.Key); o.Reverse {
				order = -order
			}
		} else if sn == nil {
			order = 1
		}
		var e *cluster.Entry
		if order < 0 {
			snapIter.Next()
			e = sn.E
			reads++
			readBytes += len(e.Key) + len(e.Value)
		} else {
			// The buffer overrides the snapshot's version of the key.
			bufIter.Next()
			var base *cluster.Entry
			if order == 0 {
				snapIter.Next()
				base = sn.E
			}
			e = bn.E
			switch be := t.req.Deferred[e]; {
			case be == nil || be.Ops == nil:
			case be.VsOff >= 0:
				// The placeholder with later ops folded over it is in no
				// entry the buffer holds, so it is the one fresh entry.
				val, gone := t.ownValue(e, be)
				if gone {
					continue
				}
				e = &cluster.Entry{Key: e.Key, Value: val}
			default:
				if !be.Fetched {
					reads++
					readBytes += len(e.Key) + len(base.Val())
				}
				m, gone := t.materialize(e, be, base, !snapshot)
				if gone {
					if !snapshot {
						cleared = append(cleared, e)
					}
					continue
				}
				e = m
			}
		}
		switch {
		case n < len(stack):
			stack[n] = e
		case kvs != nil:
			if *kvs == nil {
				*kvs = make([]KeyValue, 0, spillCap(o))
				for _, e := range stack {
					*kvs = append(*kvs, pair(e))
				}
			}
			*kvs = append(*kvs, pair(e))
		case spill == nil:
			spill = append(make([]*cluster.Entry, 0, spillCap(o)), stack[:]...)
			fallthrough
		default:
			spill = append(spill, e)
		}
		n++
		last = e.Key
		byteCount += len(e.Key) + len(e.Value)
	}
	for _, e := range cleared {
		t.clearBuffered(e.Key)
	}
	t.countRead(reads, readBytes)

	if !snapshot && !t.readOnly {
		// Conflict with exactly the portion of the range actually observed.
		// A read that stopped at its limit ends the range at a bound it
		// found, which the set keeps as it is: the successor built here, or
		// the last key itself, which nothing writes again. The caller's
		// bounds are copied.
		switch {
		case !more || n == 0:
			t.req.ReadConflicts.Add(begin, end)
		case o.Reverse:
			t.req.ReadConflicts.AddOwned(last, end, true, false)
		default:
			t.req.ReadConflicts.AddOwned(begin, keyAfter(last), false, true)
		}
	}
	return n, spill, more, byteCount, nil
}

// rangeStackLen is how many pairs getRangeLocked collects on its caller's
// stack: a kvcursor's first batch, and every point and record read, fit.
const rangeStackLen = 128

// maxSpillCap bounds the batch a range read allocates for its limit before it
// knows how many pairs it will find: a kvcursor's largest default batch.
const maxSpillCap = 4096

// spillCap is the capacity a read that outgrows the stack array allocates: it
// usually fills its limit.
func spillCap(o RangeOptions) int {
	if o.Limit > rangeStackLen {
		return min(o.Limit, maxSpillCap)
	}
	return 2 * rangeStackLen
}

// Set buffers a key-value write.
func (t *Transaction) Set(key, value []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkWrite(key, value); err != nil {
		return err
	}
	t.note(AccessWrite, key, nil, false)
	t.bufSet(&cluster.Entry{Key: cloneBytes(key), Value: cloneBytes(value)}, nil)
	t.accountWrite(len(key) + len(value))
	return nil
}

func (t *Transaction) checkWrite(key, value []byte) error {
	if err := t.checkUsable(); err != nil {
		return err
	}
	if len(key) > t.db.opts.Limits.MaxKeySize {
		return errCode(CodeKeyTooLarge, "key of %d bytes exceeds limit", len(key))
	}
	if len(value) > t.db.opts.Limits.MaxValueSize {
		return errCode(CodeValueTooLarge, "value of %d bytes exceeds limit", len(value))
	}
	return nil
}

// bufSet buffers e in place of whatever the buffer held for its key; be is
// what commit owes the new entry, nil for a plain set. The entry is never
// written again: commit hands it to the store as it is.
func (t *Transaction) bufSet(e *cluster.Entry, be *cluster.BufEntry) {
	var old *cluster.Entry
	t.req.Writes, old = cluster.Put(t.req.Writes, e)
	if old != nil {
		delete(t.req.Deferred, old)
	}
	if be != nil {
		if t.req.Deferred == nil {
			t.req.Deferred = make(map[*cluster.Entry]*cluster.BufEntry)
		}
		t.req.Deferred[e] = be
	}
}

// bufDeleteRange drops the buffered keys in [begin, end). Most clears find
// none, and then nothing is copied.
func (t *Transaction) bufDeleteRange(begin, end []byte) {
	var it cluster.Iter
	it.Seek(t.req.Writes, begin, false)
	if n := it.Peek(); n == nil || bytes.Compare(n.E.Key, end) >= 0 {
		return
	}
	if len(t.req.Deferred) > 0 {
		for n := it.Peek(); n != nil && bytes.Compare(n.E.Key, end) < 0; n = it.Peek() {
			delete(t.req.Deferred, it.Next().E)
		}
	}
	t.req.Writes = cluster.ClearRange(t.req.Writes, begin, end)
}

// clearBuffered turns a buffered key into a cleared one: a COMPARE_AND_CLEAR
// matched what the buffer, or the snapshot under it, holds for the key.
func (t *Transaction) clearBuffered(key []byte) {
	t.bufDeleteRange(key, keyAfter(key))
	t.req.Clears.AddKey(key)
}

// accountWrite counts one issued mutation of n bytes and bills it to the
// bound meter.
func (t *Transaction) accountWrite(n int) {
	t.stats.Size += n
	t.stats.Mutations++
	if t.meter != nil {
		t.meter.RecordWrite(1, n)
	}
}

// Clear buffers the removal of a single key.
func (t *Transaction) Clear(key []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.clearRange(key, keyAfter(key), true)
}

// ClearRange buffers the removal of all keys in [begin, end). Range clears
// are cheap regardless of the number of keys affected (§2), which is what
// makes dropping a whole index or record store inexpensive (§6).
func (t *Transaction) ClearRange(begin, end []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.clearRange(begin, end, false)
}

// clearRange buffers a clear; point says it is Clear's single key, which is
// not a range clear in the statistics.
func (t *Transaction) clearRange(begin, end []byte, point bool) error {
	if err := t.checkUsable(); err != nil {
		return err
	}
	if bytes.Compare(begin, end) >= 0 {
		return nil
	}
	t.note(AccessClear, begin, end, false)
	t.bufDeleteRange(begin, end)
	t.req.Clears.Add(begin, end)
	if !point {
		t.stats.RangeClears++
	}
	t.accountWrite(len(begin) + len(end))
	return nil
}

// Atomic buffers an atomic mutation (§2). For versionstamped mutations the
// key (or value) must carry a 4-byte little-endian placeholder offset as its
// final bytes, as produced by tuple.Tuple.PackWithVersionstamp.
func (t *Transaction) Atomic(typ MutationType, key, param []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkUsable(); err != nil {
		return err
	}
	t.note(AccessWrite, key, nil, false)
	switch typ {
	case MutationSetVersionstampedKey:
		if len(key) < 4 {
			return errCode(CodeClientInvalidOp, "versionstamped key too short")
		}
		offset := int(binary.LittleEndian.Uint32(key[len(key)-4:]))
		raw := cloneBytes(key[:len(key)-4])
		if offset+10 > len(raw) {
			return errCode(CodeClientInvalidOp, "versionstamp offset %d out of bounds", offset)
		}
		if len(raw) > t.db.opts.Limits.MaxKeySize {
			return errCode(CodeKeyTooLarge, "key of %d bytes exceeds limit", len(raw))
		}
		t.req.VsKeys = append(t.req.VsKeys, cluster.VsKey{RawKey: raw, Offset: offset, Value: cloneBytes(param)})
		t.accountWrite(len(raw) + len(param))
		return nil
	case MutationSetVersionstampedValue:
		if len(param) < 4 {
			return errCode(CodeClientInvalidOp, "versionstamped value too short")
		}
		offset := int(binary.LittleEndian.Uint32(param[len(param)-4:]))
		raw := cloneBytes(param[:len(param)-4])
		if offset+10 > len(raw) {
			return errCode(CodeClientInvalidOp, "versionstamp offset %d out of bounds", offset)
		}
		if err := t.checkWrite(key, raw); err != nil {
			return err
		}
		t.bufSet(&cluster.Entry{Key: cloneBytes(key), Value: raw}, &cluster.BufEntry{VsOff: int32(offset)})
		t.accountWrite(len(key) + len(raw))
		return nil
	}
	if err := t.checkWrite(key, param); err != nil {
		return err
	}
	op := cluster.Mutation{Type: typ, Param: cloneBytes(param)}
	e := cluster.Get(t.req.Writes, key)
	be := t.req.Deferred[e]
	switch {
	case be != nil:
		// Pending ops, or a versionstamped value: commit folds this op after
		// them, over the committed base or the stamped value.
		be.Ops = append(be.Ops, op)
	case e != nil || t.req.Clears.ContainsKey(key):
		// The key's value is known — buffered, or cleared — so the op folds now.
		val, cleared := cluster.ApplyMutations(e.Val(), []cluster.Mutation{op}, t.db.opts.Limits.MaxValueSize)
		switch {
		case cleared && e != nil:
			t.clearBuffered(key)
		case cleared:
		case e != nil:
			t.bufSet(&cluster.Entry{Key: e.Key, Value: val}, nil)
		default:
			t.bufSet(&cluster.Entry{Key: cloneBytes(key), Value: val}, nil)
		}
	default:
		t.bufSet(&cluster.Entry{Key: cloneBytes(key)}, &cluster.BufEntry{Ops: []cluster.Mutation{op}, VsOff: -1})
	}
	t.accountWrite(len(key) + len(param))
	return nil
}

// ClearVersionstampedKey drops the SetVersionstampedKey mutation this
// transaction buffered for key, given as Atomic took it: placeholder bytes
// and offset suffix. A key with no such mutation buffered is left alone.
//
// Real FoundationDB cannot take back a buffered versionstamped mutation:
// this is a simulator extension standing in for the Record Layer's
// version-mutation cache, which keeps a record context's versionstamped
// index keys above the client until commit. A record saved or deleted again
// in the transaction that indexed it must not leave its first entry behind.
func (t *Transaction) ClearVersionstampedKey(key []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkUsable(); err != nil {
		return err
	}
	if len(key) < 4 {
		return errCode(CodeClientInvalidOp, "versionstamped key too short")
	}
	t.note(AccessClear, key, nil, false)
	offset, raw := int(binary.LittleEndian.Uint32(key[len(key)-4:])), key[:len(key)-4]
	for i, op := range t.req.VsKeys {
		if op.Offset == offset && bytes.Equal(op.RawKey, raw) {
			t.req.VsKeys = append(t.req.VsKeys[:i], t.req.VsKeys[i+1:]...)
			break
		}
	}
	return nil
}

// ClaimLocalVersion returns the next 2-byte user version of this
// transaction's versionstamps (§7), counting from 0 on every attempt: the
// one counter every store open in the transaction draws from, so no two
// records it saves share a complete version. Real FoundationDB keeps no such
// counter; it stands in for the Record Layer's record context, whose
// claimLocalVersion does the same.
func (t *Transaction) ClaimLocalVersion() uint16 {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.localVersion
	t.localVersion++
	return v
}

// AddReadConflictKey manually adds a single-key read conflict, used after
// snapshot reads to conflict only on the keys that matter (§10.1). A read
// transaction (CreateReadTransaction) records none.
func (t *Transaction) AddReadConflictKey(key []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.note(AccessReadConflict, key, nil, false)
	if !t.readOnly {
		t.req.ReadConflicts.AddKey(key)
	}
}

// AddReadConflictRange manually adds a read conflict range. A read
// transaction records none.
func (t *Transaction) AddReadConflictRange(begin, end []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.note(AccessReadConflict, begin, end, false)
	if !t.readOnly {
		t.req.ReadConflicts.Add(begin, end)
	}
}

// AddWriteConflictKey manually adds a single-key write conflict.
func (t *Transaction) AddWriteConflictKey(key []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.note(AccessWriteConflict, key, nil, false)
	t.req.WriteConflicts.AddKey(key)
}

// Commit validates and applies the transaction. On conflict it returns a
// retryable not_committed error, matching optimistic concurrency control.
// It first runs the queued commit checks (AddCommitCheck); if one fails,
// Commit returns its error and sends nothing, so the error is never
// maybe-committed.
// Under a latency model a committing commit waits out PerCommit after every
// issued read has resolved; read-only commits are client-side no-ops and
// stay free.
func (t *Transaction) Commit() error {
	if err := t.RunCommitChecks(); err != nil {
		return err
	}
	t.mu.Lock()
	trace := t.trace
	var t0 int64
	if trace != nil {
		t0 = t.db.simNow()
	}
	ready, err := t.commitLocked()
	hook, version, bumped := t.onCommit, t.cVersion, t.req.BumpMeta
	t.onCommit = nil
	t.mu.Unlock()
	if tap := t.db.tap; tap != nil {
		tap(t, Access{Kind: AccessCommit, Err: err})
	}
	if err != nil {
		if trace != nil {
			trace.Add(obs.SpanCommit, t0, t.db.simNow(), 0, err.Error())
		}
		return err
	}
	// waitUntil advances the latency clock to ready, so the span's end under
	// the virtual clock is exactly the commit round trip's completion.
	t.awaitRead(ready)
	if trace != nil {
		trace.Add(obs.SpanCommit, t0, t.db.simNow(), 0, "")
	}
	if hook != nil {
		hook(version, bumped)
	}
	return nil
}

// OnCommit registers f to run once, after this transaction's Commit succeeds,
// with the commit version and whether the transaction bumped the metadata
// version; a read-only transaction commits at its read version. Hooks run in
// registration order, outside the transaction's lock. None runs after a
// failed Commit — a conflict, or a commit_unknown_result even when the commit
// applied — or after Cancel, and Reset drops them. It is how a cache learns a
// state from the transaction that wrote it: what that transaction read and
// wrote becomes committed at exactly that version.
func (t *Transaction) OnCommit(f func(version int64, bumped bool)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev := t.onCommit; prev != nil {
		t.onCommit = func(v int64, bumped bool) { prev(v, bumped); f(v, bumped) }
	} else {
		t.onCommit = f
	}
}

// AddCommitCheck queues check to run before this transaction commits: at the
// latest when Commit is called, before it sends anything, or earlier when a
// caller runs the queue with RunCommitChecks. Checks run in the order they
// were queued, each once, outside the transaction's lock, so a check may read
// and write through the transaction. Reset and Cancel drop the queue, as they
// drop OnCommit hooks. It is how a layer defers work it issued to the point
// where its result is needed, without letting the transaction commit before
// the work is done; the Java Record Layer's FDBRecordContext.addCommitCheck
// has the same shape. The record store parks a delete's index maintenance,
// whose probe reads are in flight, as a check: it resolves at the next call
// of any store on the transaction, which runs the queue first, or here at
// Commit, and its error surfaces from that call or from Commit.
func (t *Transaction) AddCommitCheck(check func() error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev := t.checks; prev != nil {
		t.checks = func() error {
			if err := prev(); err != nil {
				return err
			}
			return check()
		}
	} else {
		t.checks = check
	}
}

// RunCommitChecks runs every queued commit check now, in order, and drops it.
// The first check to fail stops the run and fails the transaction: the checks
// after it are dropped, and this call, every later one and Commit return its
// error, until Reset.
func (t *Transaction) RunCommitChecks() error {
	t.mu.Lock()
	checks := t.checks
	t.checks = nil
	t.mu.Unlock()
	if checks == nil {
		return nil
	}
	err := checks()
	if err != nil {
		t.mu.Lock()
		t.checks = func() error { return err }
		t.mu.Unlock()
	}
	return err
}

// commitLocked is Commit's body, returning the latency-clock time the commit
// round trip completes (0 when nothing is charged). The wait happens in
// Commit after the lock is released — awaitRead takes t.mu itself. Caller
// holds t.mu.
func (t *Transaction) commitLocked() (int64, error) {
	if err := t.checkUsable(); err != nil {
		return 0, err
	}
	if t.stats.Size+t.conflictRangeBytes() > t.db.opts.Limits.MaxTxnSize {
		return 0, errCode(CodeTransactionTooLarge, "transaction exceeds %d bytes", t.db.opts.Limits.MaxTxnSize)
	}
	writes := t.req.Writes != nil || t.req.Clears.Len() > 0 || len(t.req.VsKeys) > 0 || t.req.WriteConflicts.Len() > 0 || t.req.BumpMeta
	if writes && t.readOnly {
		// It recorded no read conflicts, so nothing could validate its writes.
		return 0, errCode(CodeClientInvalidOp, "read transaction cannot commit mutations")
	}
	if !writes {
		// Read-only transactions commit trivially at their read version.
		t.committed = true
		if err := t.ensureSnapshot(); err != nil {
			return 0, err
		}
		t.cVersion = t.req.ReadVersion
		return 0, nil
	}
	if err := t.ensureSnapshot(); err != nil {
		return 0, err
	}
	v, err := t.db.commit(t)
	if err != nil {
		return 0, err
	}
	t.committed = true
	t.cVersion = v
	m := t.db.opts.Latency
	if !m.Enabled() || m.PerCommit <= 0 {
		return 0, nil
	}
	// The commit round trip starts once the GRV and every issued read have
	// resolved (the real client flushes outstanding futures before commit).
	start := t.db.simNow()
	if t.grvReady > start {
		start = t.grvReady
	}
	for _, r := range t.outstanding {
		if r > start {
			start = r
		}
	}
	return start + int64(m.PerCommit), nil
}

func (t *Transaction) conflictRangeBytes() int {
	n := 0
	for _, r := range t.req.ReadConflicts.All() {
		n += len(r.Begin) + len(r.End)
	}
	return n
}

// CommittedVersion returns the version this transaction committed at.
func (t *Transaction) CommittedVersion() (int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.committed {
		return 0, errCode(CodeClientInvalidOp, "transaction not committed")
	}
	return t.cVersion, nil
}

// Versionstamp returns the 10-byte versionstamp assigned at commit.
func (t *Transaction) Versionstamp() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.committed {
		return nil, errCode(CodeClientInvalidOp, "transaction not committed")
	}
	return cluster.Versionstamp(t.cVersion), nil
}

// SetTrace attaches a span sink: GRV, read-window, await, and commit spans
// are recorded into it, priced by the latency clock. The Runner attaches the
// context's trace to each attempt's transaction; nil (the default) keeps
// every instrumentation site at one pointer check.
func (t *Transaction) SetTrace(tr *obs.Trace) {
	t.mu.Lock()
	t.trace = tr
	t.mu.Unlock()
}

// BindMeter bills the transaction's reads and writes from here on to m,
// unless a meter is bound already: the first binding holds until Reset.
func (t *Transaction) BindMeter(m Meter) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.meter == nil {
		t.meter = m
	}
}

// Metered reports whether a meter is bound: a caller that would derive one
// to bind can skip the work, since BindMeter would keep the first.
func (t *Transaction) Metered() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.meter != nil
}

// Trace returns the attached span sink, or nil. Layers above capture it once
// (e.g. at store open) rather than re-reading per operation.
func (t *Transaction) Trace() *obs.Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.trace
}

// LatencyNow reads the database's latency clock (the virtual clock under
// Options.Latency.Virtual, the wall clock otherwise) so layers can price
// their own trace spans in the same timebase as the read windows.
func (t *Transaction) LatencyNow() int64 { return t.db.simNow() }

// Stats returns the I/O accounting for this transaction so far.
func (t *Transaction) Stats() TxnStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// Cancel aborts the transaction; all subsequent operations fail. Queued
// commit checks are dropped unrun.
func (t *Transaction) Cancel() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.canceled = true
	t.checks = nil
}

// Reset returns the transaction to a fresh state with a new read version. A
// read transaction stays one.
func (t *Transaction) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.txnState = txnState{start: t.db.nowNanos(), req: cluster.CommitRequest{ReadVersion: -1}, readOnly: t.readOnly}
}

// shared hands out b, which the database never writes again, clipped to
// cap == len so a caller's append copies instead of writing past it; nil
// stays nil.
func shared(b []byte) []byte { return b[:len(b):len(b)] }

// pair is e as a read hands it out: its own bytes, shared (see KeyValue).
func pair(e *cluster.Entry) KeyValue { return KeyValue{Key: shared(e.Key), Value: shared(e.Value)} }

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// keyAfter returns the immediate successor key (key + 0x00).
func keyAfter(key []byte) []byte {
	out := make([]byte, len(key)+1)
	copy(out, key)
	return out
}

// KeyAfter returns the immediate successor key (key + 0x00); exported for
// layers that need to construct inclusive-begin scans.
func KeyAfter(key []byte) []byte { return keyAfter(key) }
