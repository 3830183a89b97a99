package lease

import (
	"context"
	"strings"
	"testing"
	"time"

	"recordlayer/internal/fdb"
	"recordlayer/internal/obs"
	"recordlayer/internal/resource"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// TestRefreshRecordsHeartbeatSpan: with a trace on its context, every Refresh
// records one lease.refresh span carrying the lease count; without one, the
// heartbeat stays span-free (the "off must be free" default).
func TestRefreshRecordsHeartbeatSpan(t *testing.T) {
	db := fdb.Open(nil)
	clock := &manualClock{now: time.Unix(1000, 0)}
	store := NewStore(db, subspace.FromTuple(tuple.Tuple{"leases"}))
	limits := resource.NewLimitsStore(db, subspace.FromTuple(tuple.Tuple{"limits"}))
	if err := limits.Set("t", resource.Limits{TxnPerSecond: 30}); err != nil {
		t.Fatal(err)
	}
	gov := resource.NewGovernor(nil, resource.GovernorOptions{Clock: clock.Now})
	trace := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), trace)
	mgr := NewManager(gov, limits, store, Options{Server: "a", TTL: time.Second, Clock: clock.Now})
	defer mgr.Close()

	start := clock.Now().UnixNano()
	clock.Advance(5 * time.Millisecond)
	if _, err := mgr.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	spans := trace.Spans()
	if len(spans) != 1 {
		t.Fatalf("want 1 heartbeat span, got %d: %+v", len(spans), spans)
	}
	s := spans[0]
	if s.Name != obs.SpanLeaseRefresh {
		t.Errorf("span name = %q, want %q", s.Name, obs.SpanLeaseRefresh)
	}
	if s.Start < start || s.End < s.Start {
		t.Errorf("span window [%d,%d] not ordered after %d", s.Start, s.End, start)
	}
	if !strings.Contains(s.Attr, "server=a") || !strings.Contains(s.Attr, "leased=1") {
		t.Errorf("span attr = %q, want server and lease count", s.Attr)
	}

	// A second heartbeat appends a second span.
	clock.Advance(100 * time.Millisecond)
	if _, err := mgr.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if n := len(trace.Spans()); n != 2 {
		t.Errorf("want 2 spans after 2 heartbeats, got %d", n)
	}
}

// TestRefreshWithoutTraceRecordsNothing: the span sink is the heartbeat's
// context, not the manager: of two servers' heartbeats, only the one whose
// context carries the trace records into it, and a manager never keeps it.
func TestRefreshWithoutTraceRecordsNothing(t *testing.T) {
	h := newChurnHarness(t, resource.Limits{TxnPerSecond: 30}, time.Second)
	trace := obs.NewTrace()
	if _, err := h.mgrs[0].Refresh(obs.WithTrace(context.Background(), trace)); err != nil {
		t.Fatal(err)
	}
	for _, m := range h.mgrs {
		if _, err := m.Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	spans := trace.Spans()
	if len(spans) != 1 || !strings.Contains(spans[0].Attr, "server=a") {
		t.Fatalf("spans = %+v, want server a's one traced heartbeat", spans)
	}
}
