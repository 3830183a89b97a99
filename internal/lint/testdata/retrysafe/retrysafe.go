// Fixture for the retrysafe analyzer. Type-checked by linttest under a
// pretend import path; never built into the module.
package fixture

import (
	"context"

	"recordlayer"
	"recordlayer/internal/fdb"
)

// conflictRetryAppend is the bug class from the paper's retry loop (§5): on a
// conflict the closure re-runs and the captured accumulators double-count.
func conflictRetryAppend(ctx context.Context, r *recordlayer.Runner) {
	var loaded [][]byte
	attempts := 0
	total := 0
	seen := map[string]bool{}
	r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		v, err := tr.Get([]byte("k"))
		if err != nil {
			return nil, err
		}
		loaded = append(loaded, v) // want "appends to captured loaded"
		attempts++                 // want "increments captured attempts"
		total += len(v)            // want "accumulates into captured total"
		seen[string(v)] = true     // want "writes into captured map seen"
		return nil, nil
	})
	_, _, _, _ = loaded, attempts, total, seen
}

// transactAppend: the same hazard through the lower-level Database.Transact.
func transactAppend(db *fdb.Database) {
	var keys [][]byte
	db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		keys = append(keys, []byte("x")) // want "appends to captured keys"
		return nil, nil
	})
	_ = keys
}

// doorAppend: the same hazard through the fdb.Door interface, whatever
// stands behind it.
func doorAppend(ctx context.Context, door fdb.Door) {
	var keys [][]byte
	door.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		keys = append(keys, []byte("x")) // want "appends to captured keys"
		return nil, nil
	})
	_ = keys
}

// databaseDoorAppend: and through the Database's own Door method.
func databaseDoorAppend(ctx context.Context, db *fdb.Database) {
	n := 0
	db.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		n++ // want "increments captured n"
		return nil, nil
	})
	_ = n
}

// retryAppend: the same hazard through the loop itself, Database.Retry.
func retryAppend(ctx context.Context, db *fdb.Database, p fdb.RetryPolicy) {
	var seen []int
	db.Retry(ctx, p, func(n int) (interface{}, error) {
		seen = append(seen, n) // want "appends to captured seen"
		return nil, nil
	})
	_ = seen
}

// resetInside: resetting the captured state at the top of the closure makes
// the retry idempotent — no findings.
func resetInside(ctx context.Context, r *recordlayer.Runner) {
	var loaded [][]byte
	n := 0
	seen := map[string]bool{}
	r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		loaded = loaded[:0]
		n = 0
		clear(seen)
		v, err := tr.Get([]byte("k"))
		if err != nil {
			return nil, err
		}
		loaded = append(loaded, v)
		n++
		seen[string(v)] = true
		return nil, nil
	})
	_, _, _ = loaded, n, seen
}

// localAccum: accumulating into closure-local state is the idiomatic shape —
// each attempt starts fresh and the result rides the return value.
func localAccum(ctx context.Context, r *recordlayer.Runner) {
	out, _ := r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		var rows [][]byte
		v, err := tr.Get([]byte("k"))
		if err != nil {
			return nil, err
		}
		rows = append(rows, v)
		return rows, nil
	})
	_ = out
}

// plainOverwrite: x = f(...) recomputes on every attempt; idempotent.
func plainOverwrite(ctx context.Context, r *recordlayer.Runner) {
	var last []byte
	r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		v, err := tr.Get([]byte("k"))
		if err != nil {
			return nil, err
		}
		last = v
		return nil, nil
	})
	_ = last
}

// allowedAccum: a reasoned allow directive suppresses the finding.
func allowedAccum(ctx context.Context, r *recordlayer.Runner) {
	retries := 0
	r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		retries++ //lint:allow retrysafe fixture: counting attempts across retries is the point here
		_, err := tr.Get([]byte("k"))
		return nil, err
	})
	_ = retries
}
