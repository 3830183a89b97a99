package recordlayer

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"recordlayer/internal/fdb"
	"recordlayer/internal/obs"
	"recordlayer/internal/resource"
	"recordlayer/internal/tuple"
)

// TransactFunc is the body of one transactional attempt; see fdb.TransactFunc.
type TransactFunc = fdb.TransactFunc

// RunnerOptions tunes the retry loop. The zero value gives sensible
// production defaults.
type RunnerOptions struct {
	// MaxAttempts caps total attempts (first try plus retries); default 10.
	MaxAttempts int
	// Rand supplies jitter in [0,1); default math/rand. The delay before
	// retry n is backoff/2 + Rand()*backoff/2 (decorrelated half-jitter),
	// where the backoff doubles from fdb.RunnerBackoff (2 ms) up to
	// fdb.RunnerMaxBackoff (250 ms).
	Rand func() float64
	// Sleep waits between attempts, and out a background admission's quota
	// RetryAfter, and must honor ctx cancellation; tests inject an instant
	// version. The default uses a timer.
	Sleep func(ctx context.Context, d time.Duration) error
	// Now supplies wall-clock readings for transaction-latency accounting
	// (Usage.TxnTime) and the runner's trace spans; tests inject a manual
	// clock so span assertions are exact. Defaults to time.Now.
	Now func() time.Time
	// Governor enforces per-tenant admission control: when the context
	// carries a tenant (WithTenant), each Run/ReadRun acquires admission
	// before its first attempt — failing fast with *QuotaExceededError when
	// the tenant is over its rate quota (a background admission, see
	// WithPriority, waits out RetryAfter instead), waiting (weighted-fair)
	// when the tenant or cluster is at its concurrency ceiling. Nil disables
	// admission control.
	Governor *resource.Governor
	// Accountant meters per-tenant usage for tenant-bound contexts: the
	// runner records transaction latency and conflicts, and binds the
	// tenant's meter to each attempt's transaction, which bills it for every
	// key and byte the attempt reads and writes (fdb.Transaction.BindMeter).
	// Nil falls back to the Governor's accountant; if both are nil, metering
	// is off.
	Accountant *resource.Accountant
}

func (o RunnerOptions) withDefaults() RunnerOptions {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 10
	}
	if o.Rand == nil {
		o.Rand = rand.Float64
	}
	if o.Sleep == nil {
		o.Sleep = sleepCtx
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Accountant == nil && o.Governor != nil {
		o.Accountant = o.Governor.Accountant()
	}
	return o
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// RunnerMetrics is a point-in-time snapshot of a Runner's counters. Counters
// fold in once per *completed* execution under one lock, so a snapshot is
// always internally consistent — it can never show an execution's retries
// without the run (or failure) they belonged to.
type RunnerMetrics struct {
	// Runs counts completed successful executions (Run + ReadRun).
	Runs int64
	// Retries counts re-executions after retryable errors, recorded when
	// their execution completes.
	Retries int64
	// Failures counts executions that returned an error to the caller.
	Failures int64
	// RetriesByCause breaks Retries down by the classified cause of the
	// attempt error that triggered each retry (see retry causes below). Nil
	// until the first retry.
	RetriesByCause map[string]int64
	// FailuresByCause breaks Failures down by the classified cause of the
	// error returned to the caller. Nil until the first failure.
	FailuresByCause map[string]int64
}

// Retry/failure cause labels recorded in RunnerMetrics and on attempt spans.
// Chaos runs use these to attribute exactly which failure mode each retry
// answered.
const (
	CauseConflict       = "conflict"        // not_committed: clean optimistic-concurrency abort
	CauseTooOld         = "too_old"         // transaction_too_old: read version left the MVCC window
	CauseFutureVersion  = "future_version"  // future_version: cluster behind the cached read version
	CauseTimeout        = "timeout"         // transaction_timed_out: 5 s transaction limit
	CauseQuota          = "quota"           // admission rejected over tenant quota
	CauseMaybeCommitted = "maybe_committed" // commit_unknown_result: fate of the commit unknown
	CauseCanceled       = "canceled"        // context canceled or deadline exceeded
	CauseOther          = "other"           // anything else (application errors)
)

// errCause classifies an error into one of the Cause* labels.
func errCause(err error) string {
	if err == nil {
		return ""
	}
	var qe *resource.QuotaExceededError
	if errors.As(err, &qe) {
		return CauseQuota
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return CauseCanceled
	}
	var fe *fdb.Error
	if errors.As(err, &fe) {
		switch fe.Code {
		case fdb.CodeNotCommitted:
			return CauseConflict
		case fdb.CodeTransactionTooOld:
			return CauseTooOld
		case fdb.CodeFutureVersion:
			return CauseFutureVersion
		case fdb.CodeTransactionTimedOut:
			return CauseTimeout
		case fdb.CodeCommitUnknownResult:
			return CauseMaybeCommitted
		}
	}
	return CauseOther
}

// RetryLimitError wraps the last retryable error once the attempt budget is
// exhausted; see fdb.RetryLimitError.
type RetryLimitError = fdb.RetryLimitError

// MaybeCommittedError reports that an execution ended with
// commit_unknown_result ambiguity; see fdb.MaybeCommittedError. Ambiguity is
// sticky across attempts: once any attempt ends maybe-committed, no later
// clean failure can restore the "nothing was applied" guarantee.
type MaybeCommittedError = fdb.MaybeCommittedError

// IsMaybeCommitted reports whether err carries commit-unknown-result
// ambiguity — either the typed MaybeCommittedError or a raw fdb
// commit_unknown_result.
func IsMaybeCommitted(err error) bool { return fdb.IsMaybeCommitted(err) }

// Runner executes transactional closures against a database with the
// standard Record Layer retry loop (§5): bounded attempts, exponential
// backoff with jitter on retryable errors (conflicts, stale read versions,
// timeouts), and context cancellation and deadline propagation. A Runner is
// safe for concurrent use; one per database is typical.
//
// A Runner is an fdb.Door, so background work takes one too: an online index
// build or a scrub handed a Runner under WithTenant and
// WithPriority(PriorityBackground) is admitted, billed, traced and
// retry-counted batch by batch like foreground work.
type Runner struct {
	db   *fdb.Database
	opts RunnerOptions

	mu sync.Mutex
	m  RunnerMetrics
}

var _ fdb.Door = (*Runner)(nil)

// NewRunner creates a runner over db. A zero RunnerOptions uses defaults.
func NewRunner(db *fdb.Database, opts RunnerOptions) *Runner {
	return &Runner{db: db, opts: opts.withDefaults()}
}

// Database returns the underlying database (for metrics and tooling).
func (r *Runner) Database() *fdb.Database { return r.db }

// Metrics returns a single atomically-assembled snapshot of the runner's
// counters: the read happens under the same lock every completed execution
// updates under, so concurrent Run calls can never tear it. The per-cause
// maps are deep-copied, so the snapshot stays stable after release.
func (r *Runner) Metrics() RunnerMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.m
	m.RetriesByCause = copyCauses(r.m.RetriesByCause)
	m.FailuresByCause = copyCauses(r.m.FailuresByCause)
	return m
}

func copyCauses(src map[string]int64) map[string]int64 {
	if src == nil {
		return nil
	}
	out := make(map[string]int64, len(src))
	for c, n := range src {
		out[c] = n
	}
	return out
}

// record folds one completed execution into the counters as one atomic
// update. retryCauses (nil when the execution never retried) and failCause
// (empty on success) attribute the per-cause breakdowns; the no-retry success
// path stays allocation-free.
func (r *Runner) record(runs, retries, failures int64, retryCauses map[string]int64, failCause string) {
	r.mu.Lock()
	r.m.Runs += runs
	r.m.Retries += retries
	r.m.Failures += failures
	if len(retryCauses) > 0 {
		if r.m.RetriesByCause == nil {
			r.m.RetriesByCause = make(map[string]int64)
		}
		for c, n := range retryCauses {
			r.m.RetriesByCause[c] += n
		}
	}
	if failures > 0 && failCause != "" {
		if r.m.FailuresByCause == nil {
			r.m.FailuresByCause = make(map[string]int64)
		}
		r.m.FailuresByCause[failCause] += failures
	}
	r.mu.Unlock()
}

// Run executes fn transactionally: fn is retried on retryable errors and its
// writes are committed after it returns nil. The context is checked before
// every attempt and during backoff, so cancellation and deadlines interrupt
// the loop promptly with ctx.Err().
func (r *Runner) Run(ctx context.Context, fn TransactFunc) (interface{}, error) {
	return r.run(ctx, fn, true, false)
}

// RunIdempotent is Run for a closure the caller asserts is idempotent: a
// commit_unknown_result attempt (whose commit may or may not have applied) is
// retried like a clean failure, because committing idempotent work a second
// time converges to the same state. Callers that cannot make that promise
// must use Run, which surfaces the ambiguity as *MaybeCommittedError. Call
// sites carry a reasoned //rl:idempotent directive (enforced by rl-vet's
// idempotent analyzer).
func (r *Runner) RunIdempotent(ctx context.Context, fn TransactFunc) (interface{}, error) {
	return r.run(ctx, fn, true, true)
}

// ReadRun executes fn as a read-only transaction: same retry semantics as
// Run, but nothing is committed. Read-only work is inherently idempotent, so
// maybe-committed ambiguity (which only commits can produce) never reaches
// the caller.
func (r *Runner) ReadRun(ctx context.Context, fn TransactFunc) (interface{}, error) {
	return r.run(ctx, fn, false, true)
}

func (r *Runner) run(ctx context.Context, fn TransactFunc, commit, idempotent bool) (interface{}, error) {
	// The latency clock starts before admission: Usage.TxnTime documents
	// end-to-end latency including retries and backoff, and the queue wait a
	// throttled tenant experiences is exactly the signal the governor's
	// accounting must not hide. The admission trace span uses the same clock
	// readings, so span duration and TxnTime queue wait agree exactly.
	start := r.opts.Now()
	trace := obs.FromContext(ctx)
	var meter *resource.Meter
	if tenant, ok := resource.TenantFrom(ctx); ok {
		if r.opts.Accountant != nil {
			meter = r.opts.Accountant.Tenant(tenant)
		}
		if r.opts.Governor != nil {
			// One admission covers the whole retry loop: a retried attempt
			// is the same unit of tenant work, not a new request. The
			// admission's priority class rides the context (WithPriority).
			release, err := r.admit(ctx, tenant)
			if trace != nil {
				attr := ""
				if err != nil {
					attr = err.Error()
				}
				trace.Add(obs.SpanAdmit, start.UnixNano(), r.opts.Now().UnixNano(), 0, attr)
			}
			if err != nil {
				r.record(0, 0, 1, nil, errCause(err))
				return nil, err
			}
			defer release()
		}
	}
	// The attempt is a closure, not a method of retryLog: ctx and fn stay
	// out of a struct reached through a pointer, so a caller's closure does
	// not escape to the heap.
	x := retryLog{r: r, trace: trace}
	p := fdb.RetryPolicy{
		MaxAttempts: r.opts.MaxAttempts,
		Backoff:     fdb.RunnerBackoff,
		MaxBackoff:  fdb.RunnerMaxBackoff,
		Rand:        r.opts.Rand,
		Sleep:       x.sleep,
		Idempotent:  idempotent,
	}
	//rl:idempotent the promise is the caller's: RunIdempotent call sites carry their own directive, Run makes none, and ReadRun never commits
	v, err := r.db.Retry(ctx, p, func(n int) (interface{}, error) {
		var tr *fdb.Transaction
		if commit {
			tr = r.db.CreateTransaction()
		} else {
			tr = r.db.CreateReadTransaction()
		}
		if meter != nil {
			tr.BindMeter(meter)
		}
		var a0 int64
		if trace != nil {
			tr.SetTrace(trace)
			a0 = r.opts.Now().UnixNano()
		}
		v, err := fn(ctx, tr)
		if err == nil && commit {
			err = tr.Commit()
		}
		if trace != nil {
			attr := fmt.Sprintf("attempt=%d", n)
			if err != nil {
				attr += " cause=" + errCause(err) + " err=" + err.Error()
			}
			if fe, ok := realConflict(err); ok {
				attr += " conflict=" + tuple.Describe(fe.Conflict.Write.Begin)
			}
			trace.Add(obs.SpanAttempt, a0, r.opts.Now().UnixNano(), 0, attr)
		}
		if err != nil && fdb.IsConflict(err) {
			meter.RecordConflict()
		}
		x.last, x.lastN = err, n
		return v, err
	})
	if err != nil {
		r.record(0, x.retries, 1, x.retryCauses, errCause(err))
		return nil, err
	}
	r.record(1, x.retries, 0, x.retryCauses, "")
	meter.RecordTxn(r.opts.Now().Sub(start))
	return v, nil
}

// realConflict returns err's *fdb.Error when the resolver found a conflict —
// not when a FaultInjector made one up — so it names the keys.
func realConflict(err error) (*fdb.Error, bool) {
	var fe *fdb.Error
	ok := errors.As(err, &fe) && fe.Conflict != nil && !fe.Injected
	return fe, ok
}

// admit acquires tenant's admission from the Governor. A foreground
// admission over quota fails fast with *QuotaExceededError; a background one
// waits the error's RetryAfter through Sleep and asks again, so background
// work yields its tenant's quota instead of failing.
func (r *Runner) admit(ctx context.Context, tenant string) (func(), error) {
	for {
		release, err := r.opts.Governor.Admit(ctx, tenant)
		if err == nil || resource.PriorityFrom(ctx) != resource.PriorityBackground {
			return release, err
		}
		var qe *resource.QuotaExceededError
		if !errors.As(err, &qe) {
			return nil, err
		}
		if err := r.opts.Sleep(ctx, qe.RetryAfter); err != nil {
			return nil, err
		}
	}
}

// retryLog is one execution's record of its retries: the latest attempt's
// error, and how many retries there were and what for.
type retryLog struct {
	r     *Runner
	trace *obs.Trace

	last        error
	lastN       int
	retries     int64
	retryCauses map[string]int64
}

// sleep counts the retry the loop is backing off for by its cause and waits
// under a backoff span.
func (x *retryLog) sleep(ctx context.Context, delay time.Duration) error {
	x.retries++
	if x.retryCauses == nil {
		x.retryCauses = make(map[string]int64, 4)
	}
	x.retryCauses[errCause(x.last)]++
	var b0 int64
	if x.trace != nil {
		b0 = x.r.opts.Now().UnixNano()
	}
	if err := x.r.opts.Sleep(ctx, delay); err != nil {
		return err
	}
	if x.trace != nil {
		x.trace.Add(obs.SpanBackoff, b0, x.r.opts.Now().UnixNano(), 0,
			fmt.Sprintf("attempt=%d delay=%s cause=%v", x.lastN, delay, x.last))
	}
	return nil
}

// IsRetryable reports whether err is an error the runner would retry (a
// FoundationDB conflict, stale read version, or transaction timeout).
func IsRetryable(err error) bool { return fdb.IsRetryable(err) }
