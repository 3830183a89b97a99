package fdb

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sort"
	"sync"

	"recordlayer/internal/obs"
)

// KeyValue is a single key-value pair returned by range reads. Key and Value
// are the database's own bytes — the snapshot's, or the transaction's write
// buffer's — shared with every other read of the pair and never written again,
// so a caller may keep them for as long as it likes. They are read-only: each
// has cap == len, so an append copies, and a caller that must write into one
// makes its own copy first (rl-vet's kvreadonly analyzer checks this).
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
type MutationType int

const (
	// MutationAdd performs little-endian integer addition.
	MutationAdd MutationType = iota
	// MutationBitAnd, MutationBitOr, MutationBitXor are bitwise ops.
	MutationBitAnd
	MutationBitOr
	MutationBitXor
	// MutationMax / MutationMin compare as little-endian unsigned integers.
	MutationMax
	MutationMin
	// MutationByteMax / MutationByteMin compare lexicographically. Because
	// tuple encoding is order-preserving, these implement MAX_EVER/MIN_EVER
	// over tuple-encoded values.
	MutationByteMax
	MutationByteMin
	// MutationAppendIfFits appends if the result stays within the value limit.
	MutationAppendIfFits
	// MutationCompareAndClear clears the key iff its value equals the param.
	MutationCompareAndClear
	// MutationSetVersionstampedKey substitutes the 10-byte commit versionstamp
	// into the key at the offset given by the key's final 4 little-endian
	// bytes (which are stripped).
	MutationSetVersionstampedKey
	// MutationSetVersionstampedValue does the same substitution in the value.
	MutationSetVersionstampedValue
)

type mutation struct {
	typ   MutationType
	param []byte
}

// bufEntry is what commit still owes a buffered key that is more than a plain
// set. Most keys of the write buffer have none: their entry already holds the
// bytes commit will store.
type bufEntry struct {
	// ops are pending atomic ops. Without a versionstamp they fold over the
	// committed base when the key is read or committed, and the entry's value
	// means nothing while there are any.
	ops []mutation
	// vsOff is where commit writes the versionstamp into the entry's value;
	// -1 when the value is not versionstamped. Mutations apply in the order
	// they were issued, so commit writes the stamp first and then folds ops
	// over the stamped value.
	vsOff int
}

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

type vsKeyOp struct {
	rawKey []byte // placeholder key with offset suffix stripped
	offset int
	value  []byte
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

	readVersion int64 // -1 until GRV
	snapRoot    *node
	// metaVersion is the database's metadata version as of readVersion, bound
	// with the snapshot.
	metaVersion int64
	// grvReady is the latency-clock time the GRV round trip completes
	// (latency model only; 0 when no real GRV has been priced). Reads issue
	// no earlier than it, so the GRV window pipelines with the first read
	// window instead of stacking serially with every read.
	grvReady int64

	// writes is the write buffer: a treap that only this transaction holds,
	// edited in place, one immutable entry per written key. It stays in key
	// order from the first Set to commit, so a range read merges an iterator
	// over it with one over the snapshot, and commit walks it into a sorted
	// batch. deferred holds a bufEntry for exactly the entries of writes that
	// are pending atomics or versionstamped values; bufSet and bufDeleteRange
	// are the only code that edits either, so neither outlives the other.
	writes   *node
	deferred map[*entry]*bufEntry
	// clears are the cleared ranges; a key in writes overrides them.
	clears rangeSet
	vsKeys []vsKeyOp

	readConflicts  rangeSet
	writeConflicts rangeSet

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

	// The flags and the local version share one word, which keeps a
	// Transaction in its size class.
	pendingRV bool // SetReadVersion called; snapshot not yet bound
	bumpMeta  bool // this transaction bumps the metadata version
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
	if t.pendingRV {
		// SetReadVersion was called: bind to the retained snapshot now.
		snap, ok := t.db.snapshotAt(t.readVersion)
		if !ok {
			return errCode(CodeTransactionTooOld, "read version %d no longer retained", t.readVersion)
		}
		t.readVersion, t.snapRoot, t.metaVersion = snap.version, snap.root, snap.meta
		t.pendingRV = false
		return nil
	}
	if t.readVersion < 0 {
		snap := t.db.grv()
		t.readVersion, t.snapRoot, t.metaVersion = snap.version, snap.root, snap.meta
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
	readVersion, metaVersion, bumped = t.readVersion, t.metaVersion, t.bumpMeta
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
	t.bumpMeta = true
	return nil
}

// HasMutations reports whether the transaction has buffered any write (set,
// clear, atomic op or metadata-version bump): its reads may then see
// uncommitted state, so nothing read through it may outlive it in a cache.
func (t *Transaction) HasMutations() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats.Mutations > 0 || t.bumpMeta
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
	t.readVersion = v
	t.snapRoot = nil
	t.pendingRV = true
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
	e := treapGet(t.writes, key)
	if e == nil && t.clears.ContainsKey(key) {
		return nil, nil
	}
	be := t.deferred[e]
	if e != nil && (be == nil || be.vsOff >= 0) {
		val, _ := t.ownValue(e, be)
		return val, nil
	}
	if err := t.ensureSnapshot(); err != nil {
		return nil, err
	}
	base := treapGet(t.snapRoot, key)
	if !snapshot && !t.readOnly {
		t.readConflicts.AddKey(key)
	}
	t.countRead(1, len(key)+len(base.val()))
	if e == nil {
		return shared(base.val()), nil
	}
	// Pending atomic ops: materialize against the read snapshot and convert
	// to a set, as the read-your-writes layer does.
	val, cleared := t.materialize(e, be, base)
	if cleared {
		t.clearBuffered(key)
	}
	return shared(val), nil
}

// ownValue is what a read of buffered entry e sees when the buffer alone
// answers it: be is nil (a plain set) or versionstamped. The stamp is unknown
// until commit, so a read sees the placeholder bytes with any later ops folded
// over them; gone reports that one of those ops clears the key.
func (t *Transaction) ownValue(e *entry, be *bufEntry) (val []byte, gone bool) {
	if be == nil || be.ops == nil {
		return shared(e.value), false
	}
	return applyMutations(e.value, be.ops, t.db.opts.Limits.MaxValueSize)
}

// materialize folds the pending atomic ops of buffered entry e over base, the
// snapshot's entry for the key (nil when it has none); the caller counts the
// read of base. The key becomes a plain set of the result, unless a
// COMPARE_AND_CLEAR matched: then cleared is true and the caller takes the key
// out of the buffer and clears it, once no iterator is walking the buffer.
func (t *Transaction) materialize(e *entry, be *bufEntry, base *entry) (val []byte, cleared bool) {
	val, cleared = applyMutations(base.val(), be.ops, t.db.opts.Limits.MaxValueSize)
	if !cleared {
		t.bufSet(&entry{key: e.key, value: val}, nil)
	}
	return val, cleared
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
// scan early. The returned slice is the caller's, fresh on each call; the Key
// and Value bytes in it are the database's, shared and read-only (see
// KeyValue).
func (t *Transaction) GetRange(begin, end []byte, o RangeOptions) ([]KeyValue, bool, error) {
	return t.syncGetRange(begin, end, o, false)
}

// syncGetRange is issue-plus-await without materializing a future.
func (t *Transaction) syncGetRange(begin, end []byte, o RangeOptions, snapshot bool) ([]KeyValue, bool, error) {
	t.mu.Lock()
	kvs, more, nbytes, err := t.getRangeLocked(begin, end, o, snapshot)
	var ready int64
	if err == nil {
		ready = t.issueLocked(nbytes)
	}
	t.mu.Unlock()
	t.awaitRead(ready)
	return kvs, more, err
}

// GetRangeAsync issues a range read as a future: the batch's data, conflict
// range and accounting are established now, and only the simulated latency
// wait is deferred to Get. A whole batch pays one per-read latency cost, so
// range reads issued ahead (kvcursor read-ahead, pipelined record fetches)
// overlap their windows with consumption. What the future returns is owned
// as GetRange's is.
func (t *Transaction) GetRangeAsync(begin, end []byte, o RangeOptions) *FutureRange {
	return t.getRangeAsync(begin, end, o, false)
}

func (t *Transaction) getRangeAsync(begin, end []byte, o RangeOptions, snapshot bool) *FutureRange {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := &FutureRange{fut: fut{t: t}}
	var nbytes int
	f.kvs, f.more, nbytes, f.err = t.getRangeLocked(begin, end, o, snapshot)
	if f.err == nil {
		f.ready = t.issueLocked(nbytes)
	}
	return f
}

// getRangeLocked performs the range read, additionally returning the total
// key+value bytes delivered (the latency model's transfer size).
func (t *Transaction) getRangeLocked(begin, end []byte, o RangeOptions, snapshot bool) ([]KeyValue, bool, int, error) {
	if err := t.checkUsable(); err != nil {
		return nil, false, 0, err
	}
	t.note(AccessRead, begin, end, snapshot)
	// A fault here lands mid-scan from the cursor's perspective: earlier
	// batches of the same logical scan already succeeded.
	if f := t.db.opts.Faults; f != nil {
		if err := f.readFault(); err != nil {
			return nil, false, 0, err
		}
	}
	if bytes.Compare(begin, end) >= 0 {
		return nil, false, 0, nil
	}
	if err := t.ensureSnapshot(); err != nil {
		return nil, false, 0, err
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
	var snapIter, bufIter treapIter
	snapIter.seek(t.snapRoot, seek, o.Reverse)
	bufIter.seek(t.writes, seek, o.Reverse)

	// The batch collects on the stack and is copied out at its exact size; one
	// larger than the array spills into a heap slice, which is then the batch.
	var stack [rangeStackLen]KeyValue
	var spill []KeyValue
	n := 0
	var last []byte // the batch's last key
	var byteCount int
	var reads, readBytes int // from the snapshot, not the buffer
	more := false
	var cleared []*entry // pending atomics that turned out to clear their key
	for {
		sn := snapIter.peek() // the snapshot's next key in range that no clear covers
		for ; sn != nil; sn = snapIter.peek() {
			if past(sn.e.key) {
				sn = nil
				break
			}
			if !t.clears.ContainsKey(sn.e.key) {
				break
			}
			snapIter.next()
		}
		bn := bufIter.peek()
		if bn != nil && past(bn.e.key) {
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
			if order = bytes.Compare(sn.e.key, bn.e.key); o.Reverse {
				order = -order
			}
		} else if sn == nil {
			order = 1
		}
		var kv KeyValue
		if order < 0 {
			snapIter.next()
			kv = KeyValue{Key: shared(sn.e.key), Value: shared(sn.e.value)}
			reads++
			readBytes += len(sn.e.key) + len(sn.e.value)
		} else {
			// The buffer overrides the snapshot's version of the key.
			bufIter.next()
			var base *entry
			if order == 0 {
				snapIter.next()
				base = sn.e
			}
			e := bn.e
			val := e.value
			switch be := t.deferred[e]; {
			case be == nil || be.ops == nil:
			case be.vsOff >= 0:
				var gone bool
				if val, gone = t.ownValue(e, be); gone {
					continue
				}
			default:
				reads++
				readBytes += len(e.key) + len(base.val())
				var gone bool
				if val, gone = t.materialize(e, be, base); gone {
					cleared = append(cleared, e)
					continue
				}
			}
			kv = KeyValue{Key: shared(e.key), Value: shared(val)}
		}
		switch {
		case n < len(stack):
			stack[n] = kv
		case spill == nil:
			// A read that outgrows the stack usually fills its limit.
			c := 2 * len(stack)
			if o.Limit > len(stack) {
				c = min(o.Limit, maxSpillCap)
			}
			spill = append(make([]KeyValue, 0, c), stack[:]...)
			fallthrough
		default:
			spill = append(spill, kv)
		}
		n++
		last = kv.Key
		byteCount += len(kv.Key) + len(kv.Value)
	}
	for _, e := range cleared {
		t.clearBuffered(e.key)
	}
	t.countRead(reads, readBytes)

	if !snapshot && !t.readOnly {
		// Conflict with exactly the portion of the range actually observed.
		cb, ce := begin, end
		if more && n > 0 {
			if !o.Reverse {
				ce = keyAfter(last)
			} else {
				cb = last
			}
		}
		t.readConflicts.Add(cb, ce)
	}
	kvs := slices.Clip(spill)
	if spill == nil && n > 0 {
		kvs = make([]KeyValue, n)
		copy(kvs, stack[:n])
	}
	return kvs, more, byteCount, nil
}

// rangeStackLen is how many pairs getRangeLocked collects on the stack: a
// kvcursor's first batch, and every point and record read, fit.
const rangeStackLen = 128

// maxSpillCap bounds the batch a range read allocates for its limit before it
// knows how many pairs it will find: a kvcursor's largest default batch.
const maxSpillCap = 4096

// Set buffers a key-value write.
func (t *Transaction) Set(key, value []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkWrite(key, value); err != nil {
		return err
	}
	t.note(AccessWrite, key, nil, false)
	t.bufSet(&entry{key: cloneBytes(key), value: cloneBytes(value)}, nil)
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
func (t *Transaction) bufSet(e *entry, be *bufEntry) {
	var old *entry
	t.writes, old = treapPut(t.writes, e, keyPrio(e.key))
	if old != nil {
		delete(t.deferred, old)
	}
	if be != nil {
		if t.deferred == nil {
			t.deferred = make(map[*entry]*bufEntry)
		}
		t.deferred[e] = be
	}
}

// bufDeleteRange drops the buffered keys in [begin, end). Most clears find
// none, and then nothing is copied.
func (t *Transaction) bufDeleteRange(begin, end []byte) {
	var it treapIter
	it.seek(t.writes, begin, false)
	if n := it.peek(); n == nil || bytes.Compare(n.e.key, end) >= 0 {
		return
	}
	l, rest := treapSplit(t.writes, begin)
	mid, r := treapSplit(rest, end)
	t.writes = treapMerge(l, r)
	if len(t.deferred) > 0 {
		for it.seek(mid, nil, false); it.peek() != nil; {
			delete(t.deferred, it.next().e)
		}
	}
}

// clearBuffered turns a buffered key into a cleared one: a COMPARE_AND_CLEAR
// matched what the buffer, or the snapshot under it, holds for the key.
func (t *Transaction) clearBuffered(key []byte) {
	t.bufDeleteRange(key, keyAfter(key))
	t.clears.AddKey(key)
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
	t.clears.Add(begin, end)
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
		t.vsKeys = append(t.vsKeys, vsKeyOp{rawKey: raw, offset: offset, value: cloneBytes(param)})
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
		t.bufSet(&entry{key: cloneBytes(key), value: raw}, &bufEntry{vsOff: offset})
		t.accountWrite(len(key) + len(raw))
		return nil
	}
	if err := t.checkWrite(key, param); err != nil {
		return err
	}
	op := mutation{typ, cloneBytes(param)}
	e := treapGet(t.writes, key)
	be := t.deferred[e]
	switch {
	case be != nil:
		// Pending ops, or a versionstamped value: commit folds this op after
		// them, over the committed base or the stamped value.
		be.ops = append(be.ops, op)
	case e != nil || t.clears.ContainsKey(key):
		// The key's value is known — buffered, or cleared — so the op folds now.
		val, cleared := applyMutations(e.val(), []mutation{op}, t.db.opts.Limits.MaxValueSize)
		switch {
		case cleared && e != nil:
			t.clearBuffered(key)
		case cleared:
		case e != nil:
			t.bufSet(&entry{key: e.key, value: val}, nil)
		default:
			t.bufSet(&entry{key: cloneBytes(key), value: val}, nil)
		}
	default:
		t.bufSet(&entry{key: cloneBytes(key)}, &bufEntry{ops: []mutation{op}, vsOff: -1})
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
	for i, op := range t.vsKeys {
		if op.offset == offset && bytes.Equal(op.rawKey, raw) {
			t.vsKeys = append(t.vsKeys[:i], t.vsKeys[i+1:]...)
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
		t.readConflicts.AddKey(key)
	}
}

// AddReadConflictRange manually adds a read conflict range. A read
// transaction records none.
func (t *Transaction) AddReadConflictRange(begin, end []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.note(AccessReadConflict, begin, end, false)
	if !t.readOnly {
		t.readConflicts.Add(begin, end)
	}
}

// AddWriteConflictKey manually adds a single-key write conflict.
func (t *Transaction) AddWriteConflictKey(key []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.note(AccessWriteConflict, key, nil, false)
	t.writeConflicts.AddKey(key)
}

// Commit validates and applies the transaction. On conflict it returns a
// retryable not_committed error, matching optimistic concurrency control.
// Under a latency model a committing commit waits out PerCommit after every
// issued read has resolved; read-only commits are client-side no-ops and
// stay free.
func (t *Transaction) Commit() error {
	t.mu.Lock()
	trace := t.trace
	var t0 int64
	if trace != nil {
		t0 = t.db.simNow()
	}
	ready, err := t.commitLocked()
	hook, version, bumped := t.onCommit, t.cVersion, t.bumpMeta
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
	writes := t.writes != nil || t.clears.Len() > 0 || len(t.vsKeys) > 0 || t.writeConflicts.Len() > 0 || t.bumpMeta
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
		t.cVersion = t.readVersion
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
	for _, r := range t.readConflicts.All() {
		n += len(r.Begin) + len(r.End)
	}
	return n
}

// applyTo produces the new committed root and the write ranges the resolver
// keeps for it, in one walk of the buffer in key order. Range clears go first;
// then every key the transaction sets, deletes or versionstamps goes into one
// sorted batch that treapApply lands in a single pass — a Clear of one key is
// a delete in that batch, not a range. Pending atomic mutations read their
// base value from the *current* committed root, not the transaction's
// snapshot — this is what makes concurrent atomic increments compose. A
// written key's resolver range is the committed entry's own key bytes with a
// nil End, which means exactly that key (see commitRecord); clears and manual
// write conflicts keep their End.
func (t *Transaction) applyTo(root *node, commitVersion int64) (*node, []KeyRange) {
	clears := t.clears.All()
	ranges := make([]KeyRange, 0, t.stats.Mutations+t.writeConflicts.Len())
	batch := make([]write, 0, t.stats.Mutations)
	written := func(key, val []byte) {
		t.stats.KeysWritten++
		t.stats.BytesWritten += len(key) + len(val)
		t.db.metrics.KeysWritten.Add(1)
		t.db.metrics.BytesWritten.Add(int64(len(key) + len(val)))
		ranges = append(ranges, KeyRange{Begin: key})
	}
	stamp := versionstampBytes(commitVersion)
	var it treapIter
	it.seek(t.writes, nil, false)
	// Clears and buffered keys are both in key order; so is their merge.
	for n := it.next(); n != nil || len(clears) > 0; {
		if len(clears) > 0 && (n == nil || bytes.Compare(clears[0].Begin, n.e.key) <= 0) {
			r := clears[0]
			clears = clears[1:]
			ranges = append(ranges, r)
			if !isSingleKey(r) {
				root = treapClearRange(root, r.Begin, r.End)
			} else if n == nil || !bytes.Equal(r.Begin, n.e.key) {
				// A key cleared and then written needs no delete: the write replaces it.
				batch = append(batch, write{key: r.Begin})
			}
			continue
		}
		e, be := n.e, t.deferred[n.e]
		if be != nil {
			// The base of the ops is the stamped value; without a stamp, root
			// holds it whichever range clears have been applied so far, since
			// no clear covers a key with pending ops.
			var val []byte
			if be.vsOff >= 0 {
				val = cloneBytes(e.value)
				copy(val[be.vsOff:be.vsOff+10], stamp)
			} else {
				val = treapGet(root, e.key).val()
			}
			cleared := false
			if be.ops != nil {
				val, cleared = applyMutations(val, be.ops, t.db.opts.Limits.MaxValueSize)
			}
			e = nil
			if !cleared {
				e = &entry{key: n.e.key, value: val}
			}
		}
		batch = append(batch, write{key: n.e.key, e: e, prio: n.prio})
		written(n.e.key, e.val())
		n = it.next()
	}
	// Versionstamped keys are few: each is placed into the sorted batch, over
	// whatever the batch held for that key.
	for _, op := range t.vsKeys {
		key := cloneBytes(op.rawKey)
		copy(key[op.offset:op.offset+10], stamp)
		w := write{key: key, e: &entry{key: key, value: op.value}, prio: keyPrio(key)}
		i := sort.Search(len(batch), func(i int) bool { return bytes.Compare(batch[i].key, key) >= 0 })
		if i == len(batch) || !bytes.Equal(batch[i].key, key) {
			batch = append(batch, write{})
			copy(batch[i+1:], batch[i:])
		}
		batch[i] = w
		written(key, op.value)
	}
	ranges = append(ranges, t.writeConflicts.All()...)
	return treapApply(root, batch), ranges
}

// isSingleKey reports whether r is [k, k+0x00): what Clear(k) buffers.
func isSingleKey(r KeyRange) bool {
	n := len(r.Begin)
	return len(r.End) == n+1 && r.End[n] == 0 && bytes.Equal(r.End[:n], r.Begin)
}

// versionstampBytes renders the 10-byte transaction version: 8-byte
// big-endian commit version plus a 2-byte batch order (always zero here,
// since each simulated commit forms its own batch).
func versionstampBytes(commitVersion int64) []byte {
	b := make([]byte, 10)
	binary.BigEndian.PutUint64(b, uint64(commitVersion))
	return b
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
	return versionstampBytes(t.cVersion), nil
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

// Cancel aborts the transaction; all subsequent operations fail.
func (t *Transaction) Cancel() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.canceled = true
}

// Reset returns the transaction to a fresh state with a new read version. A
// read transaction stays one.
func (t *Transaction) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.txnState = txnState{start: t.db.nowNanos(), readVersion: -1, readOnly: t.readOnly}
}

// applyMutations folds atomic operations over a base value. The second
// result reports that the key should be cleared (CompareAndClear matched).
func applyMutations(base []byte, ops []mutation, maxValue int) ([]byte, bool) {
	val := cloneBytes(base)
	cleared := base == nil
	for _, m := range ops {
		switch m.typ {
		case MutationAdd:
			val = addLittleEndian(val, m.param)
		case MutationBitAnd:
			val = bitOp(val, m.param, func(a, b byte) byte { return a & b })
		case MutationBitOr:
			val = bitOp(val, m.param, func(a, b byte) byte { return a | b })
		case MutationBitXor:
			val = bitOp(val, m.param, func(a, b byte) byte { return a ^ b })
		case MutationMax:
			if cleared || compareLittleEndian(m.param, val) > 0 {
				val = cloneBytes(m.param)
			}
		case MutationMin:
			if cleared || compareLittleEndian(m.param, val) < 0 {
				val = cloneBytes(m.param)
			}
		case MutationByteMax:
			if cleared || bytes.Compare(m.param, val) > 0 {
				val = cloneBytes(m.param)
			}
		case MutationByteMin:
			if cleared || bytes.Compare(m.param, val) < 0 {
				val = cloneBytes(m.param)
			}
		case MutationAppendIfFits:
			if len(val)+len(m.param) <= maxValue {
				val = append(val, m.param...)
			}
		case MutationCompareAndClear:
			if bytes.Equal(val, m.param) {
				return nil, true
			}
		}
		cleared = false
	}
	return val, false
}

// addLittleEndian adds two little-endian unsigned integers; the result has
// the parameter's length (FDB semantics), with wraparound.
func addLittleEndian(base, param []byte) []byte {
	out := make([]byte, len(param))
	var carry uint16
	for i := 0; i < len(param); i++ {
		var b byte
		if i < len(base) {
			b = base[i]
		}
		s := uint16(b) + uint16(param[i]) + carry
		out[i] = byte(s)
		carry = s >> 8
	}
	return out
}

func bitOp(base, param []byte, f func(a, b byte) byte) []byte {
	out := make([]byte, len(param))
	for i := 0; i < len(param); i++ {
		var b byte
		if i < len(base) {
			b = base[i]
		}
		out[i] = f(b, param[i])
	}
	return out
}

// compareLittleEndian compares little-endian unsigned integers of possibly
// different lengths.
func compareLittleEndian(a, b []byte) int {
	la, lb := len(a), len(b)
	n := la
	if lb > n {
		n = lb
	}
	for i := n - 1; i >= 0; i-- {
		var av, bv byte
		if i < la {
			av = a[i]
		}
		if i < lb {
			bv = b[i]
		}
		if av != bv {
			if av < bv {
				return -1
			}
			return 1
		}
	}
	return 0
}

// shared hands out b, which the database never writes again, clipped to
// cap == len so a caller's append copies instead of writing past it; nil
// stays nil.
func shared(b []byte) []byte { return b[:len(b):len(b)] }

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
