package fdb

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// The two retry policies in the tree. Both run through Database.Retry; only
// these numbers differ.
const (
	// Database.Run, RunIdempotent and ReadRun: 100 retries
	// (the bindings' transaction_retry_limit), a backoff doubling from 1 ms
	// up to the bindings' 64 ms max_retry_delay, no jitter, Options.Sleep.
	transactAttempts   = 101
	transactBackoff    = time.Millisecond
	transactMaxBackoff = 64 * time.Millisecond

	// RunnerBackoff and RunnerMaxBackoff are the recordlayer Runner's
	// schedule: half-jittered, doubling from 2 ms up to 250 ms. Its attempt
	// limit and jitter source are RunnerOptions.MaxAttempts and Rand.
	RunnerBackoff    = 2 * time.Millisecond
	RunnerMaxBackoff = 250 * time.Millisecond
)

// RetryPolicy is what one call of Retry may do between attempts.
type RetryPolicy struct {
	// MaxAttempts caps total attempts (first try plus retries).
	MaxAttempts int
	// Backoff is the delay before the first retry; it doubles per retry up
	// to MaxBackoff.
	Backoff, MaxBackoff time.Duration
	// Rand, when non-nil, jitters each delay: backoff/2 + Rand()*backoff/2.
	// Nil sleeps the full backoff.
	Rand func() float64
	// Sleep waits out a delay and returns early with ctx's error when it is
	// done first.
	Sleep func(ctx context.Context, d time.Duration) error
	// Idempotent is the caller's promise that committing an attempt twice
	// converges, so commit_unknown_result is retried like a clean failure.
	Idempotent bool
}

// Retry is the retry loop of §5, the one every transactional entry point
// runs. It calls attempt(1), attempt(2), ... until one returns a nil error,
// and returns that attempt's value. An attempt creates, runs and commits its
// own transaction. Retry checks ctx before every attempt; a nil ctx never
// stops the loop (Database.Transact and ReadTransact have no caller
// context). It retries retryable errors (IsRetryable), and
// commit_unknown_result too when p.Idempotent, counting one Metrics.Retries
// per retry and sleeping the policy's backoff first. It gives up on any other error, on a failed Sleep,
// on ctx's error, or with *RetryLimitError after p.MaxAttempts.
//
// Ambiguity is sticky: once an attempt ends commit_unknown_result, its
// commit may be durable, and no later clean failure can undo that, so every
// terminal error after it is a *MaybeCommittedError.
func (d *Database) Retry(ctx context.Context, p RetryPolicy, attempt func(n int) (interface{}, error)) (interface{}, error) {
	backoff := p.Backoff
	ambiguous := false
	// fail types a terminal error after n attempts.
	fail := func(n int, err error) error {
		if ambiguous {
			return &MaybeCommittedError{Attempts: n, Last: err}
		}
		return err
	}
	for n := 1; ; n++ {
		if ctx != nil && ctx.Err() != nil {
			return nil, fail(n-1, ctx.Err())
		}
		v, err := attempt(n)
		if err == nil {
			return v, nil
		}
		maybe := IsMaybeCommitted(err)
		ambiguous = ambiguous || maybe
		if !IsRetryable(err) && !(p.Idempotent && maybe) {
			return nil, fail(n, err)
		}
		if n >= p.MaxAttempts {
			if !ambiguous {
				err = &RetryLimitError{Attempts: n, Last: err}
			}
			return nil, fail(n, err)
		}
		d.metrics.Retries.Add(1)
		delay := backoff
		if p.Rand != nil {
			delay = backoff/2 + time.Duration(p.Rand()*float64(backoff/2))
		}
		if err := p.Sleep(ctx, delay); err != nil {
			return nil, fail(n, err)
		}
		backoff = min(2*backoff, p.MaxBackoff)
	}
}

// sleep is the database policy's Sleep: Options.Sleep, which cannot be
// interrupted.
func (d *Database) sleep(_ context.Context, delay time.Duration) error {
	d.opts.Sleep(delay)
	return nil
}

// RetryLimitError wraps the last retryable error once the attempt budget is
// exhausted. Unwrap exposes the underlying *Error for errors.Is/As.
type RetryLimitError struct {
	Attempts int
	Last     error
}

func (e *RetryLimitError) Error() string {
	return fmt.Sprintf("transaction failed after %d attempts: %v", e.Attempts, e.Last)
}

// Unwrap returns the final attempt's error.
func (e *RetryLimitError) Unwrap() error { return e.Last }

// MaybeCommittedError reports that a retry loop ended with
// commit_unknown_result ambiguity: some attempt's commit may or may not have
// applied, and the loop could not resolve the doubt — the caller made no
// idempotency promise, or the attempt budget (or the context) ran out while
// the ambiguity persisted. The caller must treat the write as in-doubt —
// verify by reading, or re-run only work that is safe to apply twice. Unwrap
// exposes the terminal error.
type MaybeCommittedError struct {
	Attempts int
	Last     error
}

func (e *MaybeCommittedError) Error() string {
	return fmt.Sprintf("commit result unknown after %d attempts (transaction may or may not have applied): %v", e.Attempts, e.Last)
}

// Unwrap returns the final attempt's error.
func (e *MaybeCommittedError) Unwrap() error { return e.Last }

// IsMaybeCommitted reports whether err carries commit_unknown_result
// ambiguity: a *MaybeCommittedError from Retry, or a raw (or wrapped)
// commit_unknown_result. The commit's fate is genuinely unknown — it may or
// may not be durable. Unlike a clean failure, the only safe generic reaction
// is to surface the ambiguity; retrying is sound only for idempotent work.
func IsMaybeCommitted(err error) bool {
	var me *MaybeCommittedError
	var fe *Error
	return errors.As(err, &me) || errors.As(err, &fe) && fe.Code == CodeCommitUnknownResult
}
