// Package resource implements per-tenant resource governance for the Record
// Layer: metering (the Accountant, cheap atomic counters of what each tenant
// reads, writes, conflicts on, and how long its transactions take) and
// admission control (the Governor, per-tenant token-bucket rate limits plus
// concurrency ceilings with weighted-fair queuing when the cluster is over
// capacity).
//
// The paper (§1, §5) describes the Record Layer serving millions of CloudKit
// tenant stores on shared clusters; per-request limits alone cannot arbitrate
// *between* tenants — a single hot tenant starves everyone. This package is
// the arbitration layer: the façade binds a tenant identity to the request
// context (WithTenant), and the Runner acquires admission, records latency
// and conflicts, and binds the tenant's Meter to each transaction it runs.
// The transaction bills the Meter for the keys and bytes it reads and writes,
// where it counts them in its own stats (fdb.Transaction.BindMeter), so no
// read or write layer imports this package.
//
// Everything here is safe for concurrent use and nil-tolerant: a nil *Meter
// accepts (and discards) all recordings.
package resource

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Usage is a point-in-time snapshot of one tenant's consumption.
type Usage struct {
	Tenant string
	// ReadRecords and ReadBytes count the keys, and their key+value bytes,
	// that the cluster served the tenant's transactions: the sum of their
	// TxnStats.KeysRead and BytesRead, every attempt included. Reads the
	// transaction's own writes answer are free.
	ReadRecords int64
	ReadBytes   int64
	// WriteRecords and WriteBytes count the mutations the tenant's
	// transactions issued and their bytes: the sum of TxnStats.Mutations and
	// Size, every attempt included. A clear or range clear is one mutation of
	// its begin and end keys.
	WriteRecords int64
	WriteBytes   int64
	// Transactions counts successful Runner executions; TxnTime is their
	// cumulative wall-clock latency (including admission queue wait,
	// retries, and backoff).
	Transactions int64
	TxnTime      time.Duration
	// Conflicts counts transaction attempts aborted by the resolver
	// (not_committed), a direct signal of contention the tenant causes.
	Conflicts int64
	// Admitted and Rejected count Governor admission outcomes; Throttled
	// counts admissions that had to wait for capacity before proceeding.
	Admitted  int64
	Rejected  int64
	Throttled int64
}

// MeanTxnTime returns the average successful-transaction latency.
func (u Usage) MeanTxnTime() time.Duration {
	if u.Transactions == 0 {
		return 0
	}
	return u.TxnTime / time.Duration(u.Transactions)
}

// Meter is one tenant's live counters. All methods are atomic, safe for
// concurrent use, and safe on a nil receiver (no-ops). A transaction bills it
// through RecordRead and RecordWrite, under the transaction's lock, so
// neither may call back into a transaction.
type Meter struct {
	tenant string

	readRecords  atomic.Int64
	readBytes    atomic.Int64
	writeRecords atomic.Int64
	writeBytes   atomic.Int64
	transactions atomic.Int64
	txnNanos     atomic.Int64
	conflicts    atomic.Int64
	admitted     atomic.Int64
	rejected     atomic.Int64
	throttled    atomic.Int64

	// byteSink, when set by a Governor enforcing a byte quota, receives
	// every read/written byte count so the tenant's byte bucket is debited
	// post-hoc, mid-transaction.
	byteSink atomic.Value // of func(int)
}

// setByteSink installs (or, with nil, detaches) the byte-quota callback.
func (m *Meter) setByteSink(fn func(int)) {
	if m == nil {
		return
	}
	m.byteSink.Store(fn)
}

// chargeBytes forwards n to the byte sink, if one is attached.
func (m *Meter) chargeBytes(n int) {
	if fn, _ := m.byteSink.Load().(func(int)); fn != nil {
		fn(n)
	}
}

// Tenant returns the tenant ID the meter accounts for.
func (m *Meter) Tenant() string {
	if m == nil {
		return ""
	}
	return m.tenant
}

// RecordRead accounts rows key-value pairs totalling nbytes read.
func (m *Meter) RecordRead(rows, nbytes int) {
	if m == nil {
		return
	}
	m.readRecords.Add(int64(rows))
	m.readBytes.Add(int64(nbytes))
	m.chargeBytes(nbytes)
}

// RecordWrite accounts rows pairs totalling nbytes written (or cleared).
func (m *Meter) RecordWrite(rows, nbytes int) {
	if m == nil {
		return
	}
	m.writeRecords.Add(int64(rows))
	m.writeBytes.Add(int64(nbytes))
	m.chargeBytes(nbytes)
}

// RecordTxn accounts one successful transactional execution and its
// end-to-end latency.
func (m *Meter) RecordTxn(d time.Duration) {
	if m == nil {
		return
	}
	m.transactions.Add(1)
	m.txnNanos.Add(int64(d))
}

// RecordConflict accounts one attempt aborted by a transaction conflict.
func (m *Meter) RecordConflict() {
	if m == nil {
		return
	}
	m.conflicts.Add(1)
}

func (m *Meter) recordAdmission(waited bool) {
	if m == nil {
		return
	}
	m.admitted.Add(1)
	if waited {
		m.throttled.Add(1)
	}
}

func (m *Meter) recordRejection() {
	if m == nil {
		return
	}
	m.rejected.Add(1)
}

// Snapshot returns a consistent-enough point-in-time copy of the counters
// (each field is read atomically; the set is not fenced, which is fine for
// monitoring).
func (m *Meter) Snapshot() Usage {
	if m == nil {
		return Usage{}
	}
	return Usage{
		Tenant:       m.tenant,
		ReadRecords:  m.readRecords.Load(),
		ReadBytes:    m.readBytes.Load(),
		WriteRecords: m.writeRecords.Load(),
		WriteBytes:   m.writeBytes.Load(),
		Transactions: m.transactions.Load(),
		TxnTime:      time.Duration(m.txnNanos.Load()),
		Conflicts:    m.conflicts.Load(),
		Admitted:     m.admitted.Load(),
		Rejected:     m.rejected.Load(),
		Throttled:    m.throttled.Load(),
	}
}

// activity returns a cheap monotone composite of the meter's counters: it
// advances whenever any traffic is recorded, so EvictIdle can detect quiet
// meters without stamping a timestamp on every hot-path recording.
func (m *Meter) activity() int64 {
	return m.readRecords.Load() + m.readBytes.Load() +
		m.writeRecords.Load() + m.writeBytes.Load() +
		m.transactions.Load() + m.conflicts.Load() +
		m.admitted.Load() + m.rejected.Load()
}

// Accountant is the registry of tenant meters: one Meter per tenant ID,
// created on first use. Safe for concurrent use; lookups after the first are
// a read-locked map hit.
type Accountant struct {
	mu      sync.RWMutex
	tenants map[string]*Meter
	// lastActivity holds each tenant's activity() composite at the previous
	// EvictIdle sweep; a tenant unchanged across two sweeps is evicted.
	lastActivity map[string]int64
	// meterInit, when set by a Governor, supplies the byte-quota sink for
	// every meter at creation — including meters recreated after EvictIdle,
	// so traffic arriving outside the admission path (a provider-level
	// accountant) cannot escape a byte quota. Holds func(string) func(int);
	// the callback must not call back into the accountant.
	meterInit atomic.Value
}

// setMeterInit registers the meter-creation hook (last registration wins).
func (a *Accountant) setMeterInit(fn func(tenant string) func(int)) {
	if a == nil {
		return
	}
	a.meterInit.Store(fn)
}

// NewAccountant creates an empty accountant.
func NewAccountant() *Accountant {
	return &Accountant{tenants: make(map[string]*Meter), lastActivity: make(map[string]int64)}
}

// Tenant returns tenant's meter, creating it on first use. Nil-safe: a nil
// accountant returns a nil (no-op) meter.
func (a *Accountant) Tenant(tenant string) *Meter {
	if a == nil {
		return nil
	}
	a.mu.RLock()
	m, ok := a.tenants[tenant]
	a.mu.RUnlock()
	if ok {
		return m
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if m, ok := a.tenants[tenant]; ok {
		return m
	}
	m = &Meter{tenant: tenant}
	if init, _ := a.meterInit.Load().(func(string) func(int)); init != nil {
		if sink := init(tenant); sink != nil {
			m.setByteSink(sink)
		}
	}
	a.tenants[tenant] = m
	return m
}

// Tenants returns the known tenant IDs in sorted order.
func (a *Accountant) Tenants() []string {
	if a == nil {
		return nil
	}
	a.mu.RLock()
	out := make([]string, 0, len(a.tenants))
	for t := range a.tenants {
		out = append(out, t)
	}
	a.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Snapshot returns every tenant's usage, sorted by tenant ID.
func (a *Accountant) Snapshot() []Usage {
	if a == nil {
		return nil
	}
	ids := a.Tenants()
	out := make([]Usage, 0, len(ids))
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, id := range ids {
		out = append(out, a.tenants[id].Snapshot())
	}
	return out
}

// Len reports how many tenants have live meters.
func (a *Accountant) Len() int {
	if a == nil {
		return 0
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.tenants)
}

// ForEach calls fn with every live meter, stopping early when fn returns
// false. Unlike Snapshot it neither sorts nor copies the counters — the
// lightweight path for a server walking millions of tenants (e.g. a usage
// exporter that snapshots selectively). The iteration order is undefined,
// and fn must not create tenants (it runs under the registry's read lock).
func (a *Accountant) ForEach(fn func(*Meter) bool) {
	if a == nil {
		return
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, m := range a.tenants {
		if !fn(m) {
			return
		}
	}
}

// EvictIdle drops every meter that has recorded nothing since the previous
// EvictIdle call — two consecutive quiet sweeps — and returns how many were
// evicted. Evicted counters are lost: export usage (Snapshot or ForEach)
// before sweeping if the numbers feed billing. A meter is recreated on the
// tenant's next recording, starting from zero.
func (a *Accountant) EvictIdle() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for id, m := range a.tenants {
		act := m.activity()
		if last, seen := a.lastActivity[id]; seen && last == act {
			delete(a.tenants, id)
			delete(a.lastActivity, id)
			n++
			continue
		}
		a.lastActivity[id] = act
	}
	// Forget watermarks for tenants already gone (defensive; Tenant never
	// removes entries outside this sweep).
	for id := range a.lastActivity {
		if _, ok := a.tenants[id]; !ok {
			delete(a.lastActivity, id)
		}
	}
	return n
}
