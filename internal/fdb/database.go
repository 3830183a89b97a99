// Package fdb is the client half of a deterministic, in-process simulator of
// FoundationDB: an ordered, transactional key-value store with MVCC snapshot
// reads, optimistic concurrency control, atomic mutations, versionstamps,
// range clears, and the key/value/transaction size and time limits described
// in §2 of the Record Layer paper.
//
// The simulator implements the contract the Record Layer programs against —
// strictly-serializable transactions whose read conflict ranges are validated
// at commit time against the write ranges of concurrently committed
// transactions — so the layers built on top exercise the same code paths they
// would on a real cluster.
//
// The server half — the committed tree, the versions, the resolver and the
// snapshot history — is internal/fdb/internal/cluster, which nothing but this
// package can import. A Transaction reaches it as a real client reaches its
// cluster: a GRV or a cached read version binds a snapshot, which its reads
// walk, and Commit sends one cluster.CommitRequest — the read version, the
// conflict ranges and the write buffer, held in the transaction as they are
// built — and turns the cluster's Verdict into an error, counters and stats.
// This package keeps what the client owns: the read-your-writes merge,
// futures, the latency clock, read faults, the tap, the meter, the Door and
// Retry.
//
// It also serves FoundationDB 7.1's mapped range read
// (Transaction.GetMappedRangeAsync, getMappedRange): a range and, for each pair
// it finds, the range a caller's Mapper derives from the pair's key, in one
// request and one read window — an index batch with the records its entries
// point at. Each range is read, conflict-ranged and counted as a separate
// read of it would be. Unlike a real cluster, which refuses a mapped read of
// keys the transaction has written (error 2036), it serves read-your-writes:
// a simulator extension, like ClearVersionstampedKey, so that the record
// layer keeps one fetch path whatever its transaction has buffered.
package fdb

import (
	"context"
	"sync/atomic"
	"time"

	"recordlayer/internal/fdb/internal/cluster"
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

// Database is a simulated FoundationDB cluster, as its clients see it: one
// ordered keyspace with transactional access.
type Database struct {
	opts    Options
	cluster *cluster.Cluster
	metrics Metrics
	tap     Tap // SetTap's; nil in production

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
	var roll func() cluster.Outcome
	if o.Faults != nil {
		roll = o.Faults.commitFault
	}
	return &Database{opts: o, cluster: cluster.New(o.Limits.MaxValueSize, roll)}
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
func (d *Database) ReadVersion() int64 { return d.cluster.ReadVersion() }

// CreateTransaction begins a new transaction. The read version is obtained
// lazily on first read (matching the real client's deferred GRV).
func (d *Database) CreateTransaction() *Transaction {
	d.metrics.TransactionsStarted.Add(1)
	return &Transaction{
		db:       d,
		txnState: txnState{start: d.nowNanos(), req: cluster.CommitRequest{ReadVersion: -1}},
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

// commit sends t's request and turns the cluster's verdict into t's error,
// stats and the database's counters.
func (d *Database) commit(t *Transaction) (int64, error) {
	v := d.cluster.Commit(&t.req) // the counts are zero unless it applied
	t.stats.KeysWritten += v.KeysWritten
	t.stats.BytesWritten += v.BytesWritten
	d.metrics.KeysWritten.Add(int64(v.KeysWritten))
	d.metrics.BytesWritten.Add(int64(v.BytesWritten))
	switch v.Outcome {
	case cluster.Committed:
		d.metrics.Commits.Add(1)
		return v.Version, nil
	case cluster.TooOld:
		return 0, errCode(CodeTransactionTooOld, "read version %d predates resolver window", t.req.ReadVersion)
	case cluster.Conflicted:
		d.metrics.Conflicts.Add(1)
		e := errCode(CodeNotCommitted, "transaction conflict")
		e.Conflict = &Conflict{Read: cloneRange(v.Read), Write: cloneRange(v.Write)}
		return 0, e
	case cluster.InjectedNotCommitted:
		d.metrics.Conflicts.Add(1)
		return 0, injected(CodeNotCommitted, "transaction conflict (injected)")
	case cluster.InjectedUnknownApplied:
		d.metrics.Commits.Add(1)
	}
	return 0, injected(CodeCommitUnknownResult, "commit result unknown (injected)")
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
func (d *Database) Size() int { return d.cluster.Size() }
