// Package fdb is a deterministic, in-process simulator of FoundationDB: an
// ordered, transactional key-value store with MVCC snapshot reads, optimistic
// concurrency control, atomic mutations, versionstamps, range clears, and the
// key/value/transaction size and time limits described in §2 of the Record
// Layer paper.
//
// The simulator implements the contract the Record Layer programs against —
// strictly-serializable transactions whose read conflict ranges are validated
// at commit time against the write ranges of concurrently committed
// transactions — so the layers built on top exercise the same code paths they
// would on a real cluster.
package fdb

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"recordlayer/internal/obs"
)

// Limits captures the keyspace and transaction limits FoundationDB enforces
// (§2: 10 kB keys, 100 kB values, 10 MB transactions, 5 s duration).
type Limits struct {
	MaxKeySize   int
	MaxValueSize int
	MaxTxnSize   int
	TxnTimeout   time.Duration
}

// DefaultLimits mirrors the production limits quoted in the paper.
func DefaultLimits() Limits {
	return Limits{
		MaxKeySize:   10_000,
		MaxValueSize: 100_000,
		MaxTxnSize:   10_000_000,
		TxnTimeout:   5 * time.Second,
	}
}

// Options configures a simulated database.
type Options struct {
	Limits Limits
	// Clock supplies wall-clock time for the transaction time limit; tests
	// inject a manual clock. Defaults to time.Now.
	Clock func() time.Time
	// Sleep performs the backoff delay; tests inject a no-op or recorder.
	// Defaults to time.Sleep.
	Sleep func(time.Duration)
	// Latency models per-read I/O latency (§8): every read — sync or async —
	// completes a read-cost after it was issued, and reads issued before
	// awaiting overlap within one window. The zero value keeps reads instant,
	// so existing callers and tests are unaffected.
	Latency LatencyModel
	// Faults, when non-nil, deals seeded deterministic failures into reads
	// and commits (see FaultInjector). Nil — the default — costs one pointer
	// check per operation: injection off must be free.
	Faults *FaultInjector
}

// LatencyModel prices simulated I/O: a fixed per-read cost (the network
// round trip) plus a per-KB cost on the key+value bytes returned (the
// transfer). A whole range-read batch pays one PerRead, which is what makes
// batched range scans cheaper than N point reads under the model. PerGRV and
// PerCommit price the transaction's bracketing round trips, so end-to-end
// transaction cost is GRV + overlapped reads + commit rather than reads alone.
type LatencyModel struct {
	PerRead time.Duration
	PerKB   time.Duration
	// PerGRV prices the read-version acquisition: the first real GRV call a
	// transaction performs delays every subsequent read (reads issued after
	// it still overlap with each other, so the GRV and first read windows
	// pipeline into one wait). SetReadVersion skips the GRV call and
	// therefore its cost — exactly the read-version-caching win of §4.
	PerGRV time.Duration
	// PerCommit prices a committing commit (one with writes): the commit
	// completes PerCommit after every issued read has resolved. Read-only
	// commits are client-side no-ops and stay free.
	PerCommit time.Duration
	// Virtual runs the latency clock as a deterministic in-process virtual
	// clock: awaiting a future advances the clock to the read's ready time
	// instead of sleeping, so tests assert exact window counts (via
	// TxnStats.SimWaitNanos) without wall-clock time passing. The
	// transaction *timeout* clock (Options.Clock) is unaffected.
	Virtual bool
}

// Enabled reports whether the model charges any latency at all.
func (m LatencyModel) Enabled() bool {
	return m.PerRead > 0 || m.PerKB > 0 || m.PerGRV > 0 || m.PerCommit > 0
}

// readCost prices one read returning nbytes of key+value data.
func (m LatencyModel) readCost(nbytes int) time.Duration {
	return m.PerRead + time.Duration(nbytes)*m.PerKB/1024
}

const (
	// versionStep is the commit-version increment per commit. FoundationDB
	// advances versions by roughly one million per second; 1 keeps
	// versionstamps dense.
	versionStep = 1
	// resolverWindow bounds how many recent commits are retained for conflict
	// resolution (stand-in for FDB's 5 second MVCC window).
	resolverWindow = 10_000
	// snapshotHistory bounds how many recent committed roots are retained so
	// that SetReadVersion (read-version caching, §4) can read slightly stale
	// snapshots.
	snapshotHistory = 64
)

// commitRecord is one commit in the resolver window. A write range with a nil
// End stands for exactly its Begin key: the resolver keeps a written key
// without allocating its successor.
type commitRecord struct {
	version int64
	writes  []KeyRange
}

// ring keeps the newest items pushed to it, at most its bound, oldest first.
// It grows to the bound and then overwrites its oldest slot in place, so a
// full window never reallocates or copies.
type ring[T any] struct {
	buf  []T
	head int // the oldest item's slot once buf is full
}

// push appends x; once the ring holds n items it replaces the oldest, which
// it returns with evicted set.
func (r *ring[T]) push(x T, n int) (old T, evicted bool) {
	if len(r.buf) < n {
		if len(r.buf) == cap(r.buf) {
			grown := make([]T, len(r.buf), min(max(2*cap(r.buf), 8), n))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, x)
		return old, false
	}
	old, r.buf[r.head] = r.buf[r.head], x
	r.head = (r.head + 1) % n
	return old, true
}

// len is the number of items held.
func (r *ring[T]) len() int { return len(r.buf) }

// at returns the i-th oldest item.
func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)%len(r.buf)] }

type versionedRoot struct {
	version int64
	root    *node
	meta    int64 // metaVersion as of version
}

// Database is a simulated FoundationDB cluster: one ordered keyspace with
// transactional access.
type Database struct {
	mu      sync.Mutex
	opts    Options
	version int64
	root    *node
	recent  ring[commitRecord]  // ascending by version; resolver window
	floor   int64               // newest version evicted from the resolver window
	history ring[versionedRoot] // ascending by version; snapshot history
	// metaVersion is the commit version of the newest transaction that called
	// BumpMetadataVersion (0: none yet) — FDB's \xff/metadataVersion key. It
	// lives outside root like any system key: no range read, Size() or
	// KeysRead ever sees it; a transaction learns it with its read version.
	metaVersion int64
	metrics     Metrics
	tap         Tap // SetTap's; nil in production

	// vclock is the virtual latency clock (nanos) when Latency.Virtual is
	// set: awaits advance it monotonically instead of sleeping.
	vclock atomic.Int64
}

// Open creates an empty simulated database. A nil opts uses defaults.
func Open(opts *Options) *Database {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.Limits == (Limits{}) {
		o.Limits = DefaultLimits()
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	return &Database{opts: o}
}

// Metrics returns cumulative database-level counters.
func (d *Database) Metrics() *Metrics { return &d.metrics }

// simNow reads the latency clock: the virtual clock in virtual mode, the
// wall clock otherwise.
func (d *Database) simNow() int64 {
	if d.opts.Latency.Virtual {
		return d.vclock.Load()
	}
	return d.opts.Clock().UnixNano()
}

// LatencyNow exposes the latency clock's current reading (nanos) so tests
// and experiments can measure simulated elapsed time under the virtual clock.
func (d *Database) LatencyNow() int64 { return d.simNow() }

// waitUntil blocks until the latency clock reaches ready, returning the nanos
// actually waited. In virtual mode the clock jumps forward instead of
// sleeping; a ready time already in the past (an overlapped read) costs
// nothing either way.
func (d *Database) waitUntil(ready int64) int64 {
	if d.opts.Latency.Virtual {
		for {
			now := d.vclock.Load()
			if now >= ready {
				return 0
			}
			if d.vclock.CompareAndSwap(now, ready) {
				return ready - now
			}
		}
	}
	now := d.opts.Clock().UnixNano()
	if ready <= now {
		return 0
	}
	d.opts.Sleep(time.Duration(ready - now))
	return ready - now
}

// ReadVersion returns the latest committed version (the GRV result).
func (d *Database) ReadVersion() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.version
}

// CreateTransaction begins a new transaction. The read version is obtained
// lazily on first read (matching the real client's deferred GRV).
func (d *Database) CreateTransaction() *Transaction {
	d.metrics.TransactionsStarted.Add(1)
	return &Transaction{
		db:       d,
		txnState: txnState{start: d.nowNanos(), readVersion: -1},
	}
}

// CreateReadTransaction begins a transaction that never commits a write: the
// one ReadRun and ReadTransact give their closure. Its reads record no read
// conflicts, since nothing will ever check them, and its Commit fails with
// client_invalid_operation if it buffered a mutation, applying nothing.
// Without one, Commit succeeds at the read version like any read-only commit.
// Everything else — read-your-writes, metering, stats, traces — is
// CreateTransaction's.
func (d *Database) CreateReadTransaction() *Transaction {
	tr := d.CreateTransaction()
	tr.readOnly = true
	return tr
}

// grv performs a getReadVersion call: the latest committed version with its
// root and metadata version (the proxies piggy-back the latter on every GRV
// reply, FDB >= 6.1).
func (d *Database) grv() versionedRoot {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.metrics.GRVCalls.Add(1)
	return versionedRoot{version: d.version, root: d.root, meta: d.metaVersion}
}

// snapshotAt returns the newest retained snapshot with version <= v. The
// second result reports whether such a snapshot is still retained.
func (d *Database) snapshotAt(v int64) (versionedRoot, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if v >= d.version {
		return versionedRoot{version: d.version, root: d.root, meta: d.metaVersion}, true
	}
	for i := d.history.len() - 1; i >= 0; i-- {
		if h := d.history.at(i); h.version <= v {
			return h, true
		}
	}
	return versionedRoot{}, false
}

// commit validates the transaction's read conflict ranges against writes
// committed after its read version, then atomically applies its mutations.
func (d *Database) commit(t *Transaction) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()

	// Resolver: reject if any concurrently committed write range intersects
	// what this transaction read (with isolation, i.e. non-snapshot).
	if t.readConflicts.Len() > 0 {
		if t.readVersion < d.floor {
			// The resolver window no longer covers this read version.
			return 0, errCode(CodeTransactionTooOld, "read version %d predates resolver window", t.readVersion)
		}
		for i := d.recent.len() - 1; i >= 0; i-- {
			rec := d.recent.at(i)
			if rec.version <= t.readVersion {
				break
			}
			for _, w := range rec.writes {
				// A written key (nil End) overlaps exactly when a read
				// conflict range contains it.
				if w.End == nil && t.readConflicts.ContainsKey(w.Begin) ||
					w.End != nil && t.readConflicts.Overlaps(w.Begin, w.End) {
					d.metrics.Conflicts.Add(1)
					return 0, errCode(CodeNotCommitted, "transaction conflict")
				}
			}
		}
	}

	// Fault injection happens after validation: a commit that would have
	// conflicted anyway reports the real conflict, so injected failures only
	// replace successes. For unknown-result the injector decides whether the
	// mutations genuinely apply — the client-visible error is identical
	// either way, which is the whole point of commit_unknown_result.
	if f := d.opts.Faults; f != nil {
		switch f.commitFault() {
		case commitFailNot:
			d.metrics.Conflicts.Add(1)
			return 0, errCode(CodeNotCommitted, "transaction conflict (injected)")
		case commitUnknownDropped:
			return 0, errCode(CodeCommitUnknownResult, "commit result unknown (injected)")
		case commitUnknownApplied:
			d.applyLocked(t)
			return 0, errCode(CodeCommitUnknownResult, "commit result unknown (injected)")
		}
	}

	return d.applyLocked(t), nil
}

// applyLocked applies a validated transaction's mutations atomically,
// returning the commit version. Caller holds d.mu.
func (d *Database) applyLocked(t *Transaction) int64 {
	commitVersion := d.version + versionStep
	// The new root, and the write conflict ranges kept for future resolution.
	root, writes := t.applyTo(d.root, commitVersion)
	if len(writes) > 0 {
		if old, evicted := d.recent.push(commitRecord{version: commitVersion, writes: writes}, resolverWindow); evicted {
			d.floor = old.version
		}
	}
	d.history.push(versionedRoot{version: d.version, root: d.root, meta: d.metaVersion}, snapshotHistory)
	d.version = commitVersion
	d.root = root
	if t.bumpMeta {
		d.metaVersion = commitVersion
	}
	d.metrics.Commits.Add(1)
	return commitVersion
}

// TransactFunc is the body of one transactional attempt. Run and
// RunIdempotent commit the transaction after it returns nil; ReadRun never
// commits. It may be invoked several times, so it must be idempotent with
// respect to out-of-transaction state.
type TransactFunc func(ctx context.Context, tr *Transaction) (interface{}, error)

// Door is the way work enters the retry loop (Retry): every attempt gets a
// fresh transaction, and ctx is checked before each one. *Database is a Door
// with its own policy and no governance; the façade's Runner is a Door that
// also admits, bills and counts the work under the tenant and priority ctx
// carries. Background loops (the online indexer, the scrubber) take a Door,
// so whoever starts one decides how it shares the cluster.
type Door interface {
	// Run retries fn on retryable errors and commits it once it returns nil.
	Run(ctx context.Context, fn TransactFunc) (interface{}, error)
	// RunIdempotent is Run for a closure the caller promises is idempotent:
	// commit_unknown_result is retried like a clean failure. Call sites carry
	// a reasoned //rl:idempotent directive (rl-vet's idempotent analyzer).
	RunIdempotent(ctx context.Context, fn TransactFunc) (interface{}, error)
	// ReadRun is Run without the commit.
	ReadRun(ctx context.Context, fn TransactFunc) (interface{}, error)
}

var _ Door = (*Database)(nil)

// Run runs fn under the database's policy — 101 attempts with a backoff
// doubling from 1 ms to 64 ms (see Retry) — and commits it. A trace on ctx
// (obs.WithTrace) is attached to every attempt's transaction. Nothing is
// admitted or billed: that is the Runner's.
func (d *Database) Run(ctx context.Context, fn TransactFunc) (interface{}, error) {
	return d.transact(ctx, fn, true, false)
}

// RunIdempotent is Run that also retries commit_unknown_result (see Door).
func (d *Database) RunIdempotent(ctx context.Context, fn TransactFunc) (interface{}, error) {
	return d.transact(ctx, fn, true, true)
}

// ReadRun is Run without the commit.
func (d *Database) ReadRun(ctx context.Context, fn TransactFunc) (interface{}, error) {
	return d.transact(ctx, fn, false, false)
}

// Transact is Run for a caller with no context: nothing stops the loop early.
func (d *Database) Transact(f func(*Transaction) (interface{}, error)) (interface{}, error) {
	return d.transact(nil, func(_ context.Context, tr *Transaction) (interface{}, error) { return f(tr) }, true, false)
}

// ReadTransact is ReadRun for a caller with no context.
func (d *Database) ReadTransact(f func(*Transaction) (interface{}, error)) (interface{}, error) {
	return d.transact(nil, func(_ context.Context, tr *Transaction) (interface{}, error) { return f(tr) }, false, false)
}

// transact runs fn, and commits it when commit is set, under Retry with the
// database's policy. A nil ctx (Transact, ReadTransact) carries no trace.
func (d *Database) transact(ctx context.Context, fn TransactFunc, commit, idempotent bool) (interface{}, error) {
	var trace *obs.Trace
	if ctx != nil {
		trace = obs.FromContext(ctx)
	}
	p := RetryPolicy{
		MaxAttempts: transactAttempts,
		Backoff:     transactBackoff,
		MaxBackoff:  transactMaxBackoff,
		Sleep:       d.sleep,
		Idempotent:  idempotent,
	}
	//rl:idempotent the promise is RunIdempotent's caller's, whose call site carries its own directive
	return d.Retry(ctx, p, func(int) (interface{}, error) {
		var tr *Transaction
		if commit {
			tr = d.CreateTransaction()
		} else {
			tr = d.CreateReadTransaction()
		}
		if trace != nil {
			tr.SetTrace(trace)
		}
		v, err := fn(ctx, tr)
		if err == nil && commit {
			err = tr.Commit()
		}
		return v, err
	})
}

// Size returns the number of live keys (for tests and experiments).
func (d *Database) Size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return treapCount(d.root)
}
