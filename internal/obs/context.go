package obs

import "context"

type traceKey struct{}

// WithTrace binds a trace to the context. Every fdb.Door (the Runner, or a
// Database) picks it up and attaches it to every transaction attempt, so the
// fdb, index, and runner instrumentation sites all record into it; lease
// heartbeats and metering exports record into it too.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext returns the trace bound by WithTrace, or nil — the nil result
// is itself usable (every Trace method is nil-safe), so call sites need no
// second check.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
