package fdb

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

// FutureRange is an in-flight range read issued by GetRangeAsync.
type FutureRange struct {
	fut
	kvs  []KeyValue
	more bool
}

// Get awaits the read and returns the pairs plus whether more data remained
// when a limit stopped the scan early. The slice is the caller's; the bytes
// in it are shared and read-only (see KeyValue).
func (f *FutureRange) Get() ([]KeyValue, bool, error) {
	f.await()
	return f.kvs, f.more, f.err
}
