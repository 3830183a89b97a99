package fdb

import "recordlayer/internal/fdb/internal/cluster"

// Asynchronous futures (§8): the real FDB client returns a future from every
// read, and the Record Layer's hot paths issue many reads before awaiting any
// of them, paying one network round trip instead of N. The simulator mirrors
// that contract: GetAsync/GetRangeAsync resolve their *data* synchronously at
// issue time (the transaction's snapshot is fixed, so the answer is already
// determined) and defer only the simulated I/O *wait* until Get. Reads issued
// concurrently therefore share one latency window — awaiting the first
// advances the clock past all of them — while issue-await-issue-await loops
// pay one window per read, exactly the overlap structure of the real client.
//
// Because a future's value is captured at issue time, it observes the
// transaction's read-your-writes state as of the issue, not the await: a Set
// between GetAsync(k) and Get() is not visible to that future. This matches
// the real client, where the read request departs when the future is created.
//
// A future belongs to the goroutine that awaits it; Get is not safe for
// concurrent use on the same future, though distinct futures of one
// transaction may be awaited from different goroutines.

// fut is the shared await state of FutureValue and FutureRange. A future
// abandoned without Get leaks nothing: its in-flight slot is tracked by ready
// time and retired by the transaction's next issue once the clock passes it.
type fut struct {
	t     *Transaction
	ready int64 // latency-clock nanos at which the read completes; 0 = instant
	err   error
	done  bool
}

// await blocks until the simulated read completes, charging any actual wait
// to the transaction's SimWaitNanos.
func (f *fut) await() {
	if f.done {
		return
	}
	f.done = true
	f.t.awaitRead(f.ready)
}

// FutureValue is an in-flight single-key read issued by GetAsync.
type FutureValue struct {
	fut
	value []byte
}

// Get awaits the read and returns its result; nil when the key is absent.
// Get may be called repeatedly; only the first call can block.
func (f *FutureValue) Get() ([]byte, error) {
	f.await()
	return f.value, f.err
}

// FutureRange is an in-flight range read issued by GetRangeAsync. Its reply
// holds one pointer per pair to the database's own immutable entry, so a read
// of n pairs allocates the future and one n-pointer slice, and nothing per
// pair (a batch past 128 pairs spills into a slice sized for its limit).
type FutureRange struct {
	fut
	pairs Pairs
	more  bool
}

// Get awaits the read and returns the pairs plus whether more data remained
// when a limit stopped the scan early. Get may be called repeatedly; only the
// first call can block.
func (f *FutureRange) Get() (Pairs, bool, error) {
	f.await()
	return f.pairs, f.more, f.err
}

// Pairs is a range read's reply, in scan order. It points at the entries the
// read found — the snapshot's, or those the transaction's write buffer held —
// which are never written again, so a Pairs stays valid, and its pairs
// unchanged, for as long as anyone holds it: later writes of the transaction
// and later commits replace entries, they do not edit them. The zero Pairs is
// empty.
type Pairs struct {
	es []*cluster.Entry
	m  *mapping // a mapped read's (GetMappedRangeAsync); nil for a plain one
}

// mapping holds a mapped read's pairs of every mapped range, pair i's at
// es[off[i]:off[i+1]]. It lies behind a pointer so that a plain range future
// stays in its 80-byte size class.
type mapping struct {
	es  []*cluster.Entry
	off []int32
}

// Len is the number of pairs.
func (p Pairs) Len() int { return len(p.es) }

// At returns pair i, 0 <= i < Len. The KeyValue is built on the caller's
// stack; its Key and Value are the database's bytes, shared and read-only
// (see KeyValue).
func (p Pairs) At(i int) KeyValue { return pair(p.es[i]) }

// Mapped returns the pairs of the range a mapped read's mapper derived from
// pair i's key, 0 <= i < Len, in key order; none for a plain read.
func (p Pairs) Mapped(i int) Pairs {
	if p.m == nil {
		return Pairs{}
	}
	return Pairs{es: p.m.es[p.m.off[i]:p.m.off[i+1]]}
}
