package resource

import (
	"context"
	"strings"
	"testing"
	"time"

	"recordlayer/internal/fdb"
	"recordlayer/internal/obs"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// TestExportRecordsSpan: with a trace on its context, an export tick records
// one metering.export span carrying the window count; a tick without one
// records nothing.
func TestExportRecordsSpan(t *testing.T) {
	db := fdb.Open(nil)
	clock := &manualClock{now: time.Unix(1000, 0)}
	acct := NewAccountant()
	store := NewMeteringStore(db, subspace.FromTuple(tuple.Tuple{"metering"}))
	exp := NewUsageExporter(acct, store, "srv-1", clock.Now)
	trace := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), trace)

	acct.Tenant("acme").RecordRead(3, 300)
	clock.Advance(time.Second)
	n, err := exp.Export(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("exported windows = %d, want 1", n)
	}
	spans := trace.Spans()
	if len(spans) != 1 {
		t.Fatalf("want 1 export span, got %d: %+v", len(spans), spans)
	}
	s := spans[0]
	if s.Name != obs.SpanMeterExport {
		t.Errorf("span name = %q, want %q", s.Name, obs.SpanMeterExport)
	}
	if !strings.Contains(s.Attr, "server=srv-1") || !strings.Contains(s.Attr, "windows=1") {
		t.Errorf("span attr = %q, want server and window count", s.Attr)
	}

	// A tick without a trace stays span-free.
	acct.Tenant("acme").RecordRead(1, 10)
	clock.Advance(time.Second)
	if _, err := exp.Export(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := len(trace.Spans()); n != 1 {
		t.Errorf("an untraced tick recorded spans: %d", n)
	}
}
