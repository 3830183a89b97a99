// Fixture for the idempotent analyzer. Type-checked by linttest under a
// pretend import path; never built into the module.
package fixture

import (
	"context"

	"recordlayer"
	"recordlayer/internal/fdb"
)

// unjustifiedRun: RunIdempotent with no directive anywhere near it.
func unjustifiedRun(ctx context.Context, r *recordlayer.Runner) {
	r.RunIdempotent(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) { // want "justify it with //rl:idempotent"
		return nil, tr.Set([]byte("k"), []byte("v"))
	})
}

// unjustifiedDoor: the same hazard through the fdb.Door interface, whatever
// stands behind it.
func unjustifiedDoor(ctx context.Context, door fdb.Door) {
	door.RunIdempotent(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) { // want "justify it with //rl:idempotent"
		return nil, tr.Set([]byte("k"), []byte("v"))
	})
}

// unjustifiedDatabase: and through the Database's own Door method.
func unjustifiedDatabase(ctx context.Context, db *fdb.Database) {
	db.RunIdempotent(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) { // want "justify it with //rl:idempotent"
		return nil, tr.Set([]byte("k"), []byte("v"))
	})
}

// unjustifiedRetry: the loop itself may retry maybe-committed commits, so a
// direct Database.Retry call needs the same justification.
func unjustifiedRetry(ctx context.Context, db *fdb.Database, p fdb.RetryPolicy) {
	db.Retry(ctx, p, func(int) (interface{}, error) { // want "justify it with //rl:idempotent"
		return nil, nil
	})
}

// bareDirective: a directive with no reason is not a justification.
func bareDirective(ctx context.Context, r *recordlayer.Runner) {
	//rl:idempotent
	r.RunIdempotent(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) { // want "carries no reason"
		return nil, tr.Set([]byte("k"), []byte("v"))
	})
}

// justifiedAbove: a reasoned directive on the line above passes.
func justifiedAbove(ctx context.Context, r *recordlayer.Runner) {
	//rl:idempotent blind overwrite of a fixed key converges on re-run
	r.RunIdempotent(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		return nil, tr.Set([]byte("k"), []byte("v"))
	})
}

// justifiedTrailing: a reasoned directive on the call line passes.
func justifiedTrailing(ctx context.Context, door fdb.Door) {
	door.RunIdempotent(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) { //rl:idempotent blind overwrite of a fixed key converges on re-run
		return nil, tr.Set([]byte("k"), []byte("v"))
	})
}

// plainRun: the non-idempotent entry points need no directive — the runner
// surfaces maybe-committed to the caller instead of retrying.
func plainRun(ctx context.Context, r *recordlayer.Runner, door fdb.Door, db *fdb.Database) {
	r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		return nil, tr.Set([]byte("k"), []byte("v"))
	})
	door.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		return nil, tr.Set([]byte("k"), []byte("v"))
	})
	db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		return nil, tr.Set([]byte("k"), []byte("v"))
	})
}
