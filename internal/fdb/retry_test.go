package fdb

import (
	"context"
	"errors"
	"testing"
	"time"

	"recordlayer/internal/obs"
)

// TestRunIdempotentKeepsAmbiguity: an applied commit_unknown_result on
// attempt 1, then clean conflicts on every retry until the limit. The first
// commit is durable, so the loop must not report the last clean conflict as
// if nothing had applied: the terminal error is a *MaybeCommittedError.
func TestRunIdempotentKeepsAmbiguity(t *testing.T) {
	db, inj := faultyDB(FaultConfig{Seed: 7, PCommitUnknown: 1, PUnknownApplied: 1})
	attempts := 0
	//rl:idempotent test closure blind-writes a constant; re-running converges
	_, err := db.RunIdempotent(context.Background(), func(_ context.Context, tr *Transaction) (interface{}, error) {
		attempts++
		if attempts == 1 {
			return nil, tr.Set([]byte("a"), []byte("v"))
		}
		// From here on every attempt conflicts for real: it reads c, and
		// another transaction writes c before this one commits.
		inj.Disable()
		if _, err := tr.Get([]byte("c")); err != nil {
			return nil, err
		}
		other := db.CreateTransaction()
		if err := other.Set([]byte("c"), []byte("x")); err != nil {
			return nil, err
		}
		if err := other.Commit(); err != nil {
			return nil, err
		}
		return nil, tr.Set([]byte("b"), []byte("v"))
	})
	var me *MaybeCommittedError
	if !errors.As(err, &me) || !IsMaybeCommitted(err) {
		t.Fatalf("err = %v, want *MaybeCommittedError", err)
	}
	if me.Attempts != transactAttempts || attempts != transactAttempts {
		t.Fatalf("attempts = %d / %d, want %d", me.Attempts, attempts, transactAttempts)
	}
	if !IsConflict(err) {
		t.Fatalf("err = %v, want it to unwrap to the last attempt's conflict", err)
	}
	if c := inj.Counts(); c.CommitsUnknown != 1 || c.UnknownApplied != 1 {
		t.Fatalf("fault counts = %+v, want one applied unknown result", c)
	}
	v, err := db.ReadTransact(func(tr *Transaction) (interface{}, error) { return tr.Get([]byte("a")) })
	if err != nil || string(v.([]byte)) != "v" {
		t.Fatalf("a = (%q, %v): attempt 1's commit should be durable", v, err)
	}
}

// TestRetryPolicies pins both policies in the tree — the database's
// (Transact) and the Runner's — by what one loop does under each: how many
// attempts, which delays, and which terminal error.
func TestRetryPolicies(t *testing.T) {
	conflict := &Error{Code: CodeNotCommitted, Msg: "conflict"}
	unknown := &Error{Code: CodeCommitUnknownResult, Msg: "unknown"}
	app := errors.New("application error")
	ms := func(ds ...float64) []time.Duration {
		out := make([]time.Duration, len(ds))
		for i, d := range ds {
			out[i] = time.Duration(d * float64(time.Millisecond))
		}
		return out
	}
	// The database policy's 100 delays: 1, 2, ..., 64 ms, then 64 ms.
	transactDelays := ms(1, 2, 4, 8, 16, 32)
	for len(transactDelays) < transactAttempts-1 {
		transactDelays = append(transactDelays, transactMaxBackoff)
	}
	// The Runner's over 10 attempts, Rand pinned to 0.5: 3/4 of each backoff.
	runnerDelays := ms(1.5, 3, 6, 12, 24, 48, 96, 187.5, 187.5)

	cases := []struct {
		name       string
		runner     bool
		idempotent bool
		errs       func(n int) error // attempt n's error
		attempts   int
		delays     []time.Duration
		want       func(error) bool
	}{
		{"transact/conflicts", false, false, func(int) error { return conflict }, 101, transactDelays, isRetryLimit},
		{"runner/conflicts", true, false, func(int) error { return conflict }, 10, runnerDelays, isRetryLimit},
		{"transact/unknown", false, false, func(int) error { return unknown }, 1, nil, isMaybeCommitted},
		{"runner/unknown", true, false, func(int) error { return unknown }, 1, nil, isMaybeCommitted},
		{"transact/idempotent-unknown-then-ok", false, true, func(n int) error { return okAfter(n, 3, unknown) }, 3, ms(1, 2), isNil},
		{"runner/idempotent-unknown-then-ok", true, true, func(n int) error { return okAfter(n, 3, unknown) }, 3, ms(1.5, 3), isNil},
		{"transact/unknown-then-conflicts", false, true, func(n int) error { return firstThen(n, unknown, conflict) }, 101, transactDelays, isMaybeCommitted},
		{"runner/unknown-then-conflicts", true, true, func(n int) error { return firstThen(n, unknown, conflict) }, 10, runnerDelays, isMaybeCommitted},
		{"transact/application", false, false, func(int) error { return app }, 1, nil, func(err error) bool { return err == app }},
		{"runner/unknown-then-application", true, true, func(n int) error { return firstThen(n, unknown, app) }, 2, ms(1.5), isMaybeCommitted},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var delays []time.Duration
			db := Open(&Options{Sleep: func(d time.Duration) { delays = append(delays, d) }})
			attempts := 0
			fn := func(*Transaction) (interface{}, error) {
				attempts++
				return nil, c.errs(attempts)
			}
			var err error
			if c.runner {
				p := RetryPolicy{
					MaxAttempts: 10, Backoff: RunnerBackoff, MaxBackoff: RunnerMaxBackoff,
					Rand: func() float64 { return 0.5 },
					Sleep: func(_ context.Context, d time.Duration) error {
						delays = append(delays, d)
						return nil
					},
					Idempotent: c.idempotent,
				}
				_, err = db.Retry(context.Background(), p, func(int) (interface{}, error) { return fn(nil) })
			} else if c.idempotent {
				//rl:idempotent the test closure writes nothing
				_, err = db.RunIdempotent(context.Background(), func(_ context.Context, tr *Transaction) (interface{}, error) { return fn(tr) })
			} else {
				_, err = db.Transact(fn)
			}
			if attempts != c.attempts {
				t.Errorf("attempts = %d, want %d", attempts, c.attempts)
			}
			if len(delays) != len(c.delays) {
				t.Fatalf("delays = %v, want %v", delays, c.delays)
			}
			for i := range delays {
				if delays[i] != c.delays[i] {
					t.Fatalf("delay[%d] = %v, want %v", i, delays[i], c.delays[i])
				}
			}
			if got := db.Metrics().Retries.Load(); got != int64(len(c.delays)) {
				t.Errorf("Retries = %d, want one per delay (%d)", got, len(c.delays))
			}
			if !c.want(err) {
				t.Errorf("terminal error %v (%T) is not what %s expects", err, err, c.name)
			}
		})
	}
}

// TestRetryHonoursContext: a context cancelled during a backoff stops the loop
// before the next attempt, and after an ambiguous attempt the context's error
// still carries the ambiguity.
func TestRetryHonoursContext(t *testing.T) {
	db := Open(nil)
	ctx, cancel := context.WithCancel(context.Background())
	attempts := 0
	p := RetryPolicy{
		MaxAttempts: 10, Backoff: RunnerBackoff, MaxBackoff: RunnerMaxBackoff, Idempotent: true,
		Sleep: func(context.Context, time.Duration) error { cancel(); return nil },
	}
	_, err := db.Retry(ctx, p, func(int) (interface{}, error) {
		attempts++
		return nil, &Error{Code: CodeCommitUnknownResult, Msg: "unknown"}
	})
	var me *MaybeCommittedError
	if !errors.As(err, &me) || !errors.Is(err, context.Canceled) || me.Attempts != 1 || attempts != 1 {
		t.Fatalf("err = %v after %d attempts, want MaybeCommittedError wrapping context.Canceled after 1", err, attempts)
	}
}

// TestDatabaseDoorBindsContext: a Database entered through its Door methods
// attaches the trace ctx carries to every attempt's transaction, and a ctx
// cancelled during a backoff stops the loop before the next attempt — the
// database's own Sleep cannot be interrupted, so Retry's check is what stops it.
func TestDatabaseDoorBindsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	db, _ := faultyDB(FaultConfig{Seed: 3, PCommitNotCommitted: 1})
	db.opts.Sleep = func(time.Duration) { cancel() }
	trace := obs.NewTrace()
	attempts := 0
	_, err := db.Run(obs.WithTrace(ctx, trace), func(_ context.Context, tr *Transaction) (interface{}, error) {
		attempts++
		if tr.Trace() != trace {
			t.Errorf("attempt %d runs without the context's trace", attempts)
		}
		return nil, tr.Set([]byte("k"), []byte("v"))
	})
	if !errors.Is(err, context.Canceled) || attempts != 1 {
		t.Fatalf("err = %v after %d attempts, want context.Canceled after 1", err, attempts)
	}
	if n := len(trace.Named(obs.SpanCommit)); n != 1 {
		t.Fatalf("commit spans = %d, want 1", n)
	}
}

func okAfter(n, ok int, err error) error {
	if n >= ok {
		return nil
	}
	return err
}

func firstThen(n int, first, rest error) error {
	if n == 1 {
		return first
	}
	return rest
}

func isNil(err error) bool { return err == nil }

func isRetryLimit(err error) bool {
	var rle *RetryLimitError
	return errors.As(err, &rle) && IsConflict(err)
}

func isMaybeCommitted(err error) bool {
	var me *MaybeCommittedError
	return errors.As(err, &me)
}
