package resource

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Limits are one tenant's admission quotas. The zero value is unlimited.
type Limits struct {
	// TxnPerSecond is the sustained admission rate enforced by a token
	// bucket; 0 means unlimited. An admission over the rate is rejected
	// immediately with *QuotaExceededError rather than queued, so callers
	// can back off (the error carries RetryAfter).
	TxnPerSecond float64
	// Burst is the token bucket depth — how many admissions above the
	// sustained rate may happen back-to-back. Defaults to
	// max(1, ceil(TxnPerSecond)) when a rate is set.
	Burst int
	// BytesPerSecond is the sustained read+write byte rate enforced by a
	// second token bucket; 0 means unlimited. Bytes are debited post-hoc as
	// the transactions bound to the tenant's Meter bill it, which means a
	// transaction can overdraw the bucket into debt; further admissions are
	// rejected with
	// *QuotaExceededError until refill clears the debt.
	BytesPerSecond float64
	// ByteBurst is the byte bucket depth. Defaults to one second's worth of
	// BytesPerSecond when a byte rate is set.
	ByteBurst int64
	// MaxConcurrent caps the tenant's in-flight admitted transactions;
	// 0 means unlimited. An admission over the ceiling waits (fairly) for
	// one of the tenant's own slots rather than failing.
	MaxConcurrent int
	// Weight is the tenant's share when the governor is over total capacity
	// and must choose which waiting tenant to admit next; 0 means 1. A
	// tenant with weight 2 is allowed twice the in-flight share of a
	// weight-1 tenant before yielding.
	Weight int
}

func (l Limits) burst() float64 {
	if l.Burst > 0 {
		return float64(l.Burst)
	}
	if l.TxnPerSecond <= 0 {
		return math.Inf(1)
	}
	return math.Max(1, math.Ceil(l.TxnPerSecond))
}

func (l Limits) byteBurst() float64 {
	if l.ByteBurst > 0 {
		return float64(l.ByteBurst)
	}
	if l.BytesPerSecond <= 0 {
		return math.Inf(1)
	}
	return math.Max(1, math.Ceil(l.BytesPerSecond))
}

func (l Limits) weight() float64 {
	if l.Weight <= 0 {
		return 1
	}
	return float64(l.Weight)
}

// Quota resources named by QuotaExceededError.
const (
	QuotaTxnRate  = "txn-rate"
	QuotaByteRate = "byte-rate"
)

// QuotaExceededError reports that a tenant's token-bucket quota (transaction
// rate or byte rate) is exhausted. Callers should back off for RetryAfter
// before retrying; the error is typed so façade users can errors.As on it.
type QuotaExceededError struct {
	Tenant string
	// Resource names the drained bucket: QuotaTxnRate or QuotaByteRate.
	Resource string
	// RetryAfter is how long until the bucket holds a whole token again.
	RetryAfter time.Duration
}

func (e *QuotaExceededError) Error() string {
	res := e.Resource
	if res == "" {
		res = QuotaTxnRate
	}
	return fmt.Sprintf("resource: tenant %q over %s quota; retry after %v", e.Tenant, res, e.RetryAfter)
}

// GovernorOptions configures a Governor.
type GovernorOptions struct {
	// DefaultLimits applies to every tenant without explicit SetLimits (or
	// a persisted entry applied by LoadLimits).
	DefaultLimits Limits
	// TotalConcurrent caps in-flight admitted transactions across all
	// tenants — the cluster's capacity; 0 means unlimited. When the cap is
	// reached, admissions queue and are granted weighted-fair: the waiting
	// tenant with the lowest inflight/weight share goes first. Background
	// admissions are granted only when no foreground waiter is eligible.
	TotalConcurrent int
	// IdleTTL evicts a tenant's in-memory admission state once it has been
	// idle — no in-flight work, no queued waiters, full token buckets —
	// for this long. The sweep runs opportunistically during Admit, so a
	// long-lived server tracking millions of tenants stays bounded. 0
	// disables automatic eviction; EvictIdle can still be called directly.
	// Eviction never forgets quota state: a tenant is only dropped when
	// its buckets have refilled completely, so recreating it later (primed
	// full, from the configured limits) is indistinguishable.
	IdleTTL time.Duration
	// Clock supplies time for token-bucket refill (tests inject a manual
	// clock). Defaults to time.Now.
	Clock func() time.Time
}

// Governor arbitrates admission between tenants: per-tenant token-bucket
// rate and byte quotas, per-tenant concurrency ceilings, and a global
// concurrency capacity shared weighted-fair with background work yielding to
// foreground. It meters every decision into its Accountant. Safe for
// concurrent use.
type Governor struct {
	acct *Accountant
	opts GovernorOptions

	mu sync.Mutex
	// configured holds per-tenant limits installed by SetLimits or loaded
	// from a LimitsStore. It is consulted when (re)creating live state, so
	// evicting an idle tenant never loses its quota configuration.
	configured map[string]Limits
	// leased overlays configured with lease-derived limits installed by a
	// lease.Manager: while a tenant's row is here, its token buckets refill
	// from this server's held slice of the global budget rather than the raw
	// (cluster-wide) limit. Lease wins over configured wins over defaults.
	leased  map[string]Limits
	tenants map[string]*tenantState
	// waiting tracks only the tenants with at least one queued waiter, so
	// dispatch never scans every tenant ever seen.
	waiting   map[string]*tenantState
	inflight  int   // total admitted, in-flight
	grantSeq  int64 // monotonically increasing; breaks fair-share ties round-robin
	lastSweep time.Time

	// byteLimited mirrors which tenants have a configured byte rate, read
	// lock-free by the accountant's meter-creation hook (which must not
	// take g.mu — the governor calls into the accountant while holding it).
	byteLimited        sync.Map // tenant -> struct{}
	defaultByteLimited bool
	// pendingBytes accumulates each byte-limited tenant's post-hoc charges
	// outside g.mu; sinks flush a counter into ChargeBytes only when it
	// crosses byteSinkFlush, and Admit settles the remainder exactly, so
	// the hot read/write paths do not take the global lock per record.
	// Idle eviction removes entries along with the tenant's state, keeping
	// the map bounded even under a default byte quota.
	pendingBytes sync.Map // tenant -> *atomic.Int64
}

// byteSinkFlush is how many pending bytes a sink accumulates before taking
// the governor lock to charge them. Debt observation lags by at most this
// much; Admit settles the remainder exactly before checking the bucket.
const byteSinkFlush = 16 << 10

type tenantState struct {
	limits     Limits
	tokens     float64 // txn-rate bucket balance
	byteTokens float64 // byte-rate bucket balance; negative is post-hoc debt
	lastFill   time.Time
	lastActive time.Time // last admit/charge/release; eviction candidate age
	inflight   int
	lastGrant  int64
	fg, bg     []*waiter // FIFO within the tenant, per priority class
	// sink is the byte-quota sink installed on the tenant's Meter while a
	// byte quota is in force (nil otherwise). A meter recreated after
	// Accountant eviction gets its sink from the accountant's
	// meter-creation hook instead.
	sink func(int)
}

type waiter struct {
	ready   chan struct{} // closed when granted or rejected
	granted bool
	err     error // rejection (set before ready is closed); queue removal and token refund already done
	pri     Priority
}

// NewGovernor creates a governor metering into acct (a nil acct gets a fresh
// private Accountant so metering is always on).
func NewGovernor(acct *Accountant, opts GovernorOptions) *Governor {
	if acct == nil {
		acct = NewAccountant()
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	g := &Governor{
		acct:               acct,
		opts:               opts,
		configured:         make(map[string]Limits),
		leased:             make(map[string]Limits),
		tenants:            make(map[string]*tenantState),
		waiting:            make(map[string]*tenantState),
		lastSweep:          opts.Clock(),
		defaultByteLimited: opts.DefaultLimits.BytesPerSecond > 0,
	}
	// Every meter the accountant creates — including one recreated after
	// EvictIdle while its tenant's governor state is cold — gets the byte
	// sink if a byte quota is (or defaults to being) in force, so traffic
	// arriving outside the admission path still debits the bucket.
	acct.setMeterInit(g.sinkFor)
	return g
}

// pendingFor returns tenant's lock-free pending-bytes counter.
func (g *Governor) pendingFor(tenant string) *atomic.Int64 {
	if p, ok := g.pendingBytes.Load(tenant); ok {
		return p.(*atomic.Int64)
	}
	p, _ := g.pendingBytes.LoadOrStore(tenant, new(atomic.Int64))
	return p.(*atomic.Int64)
}

// sinkFor returns the byte-quota sink installed on tenant's Meter, or nil
// when no byte quota can apply. The sink runs on every billed read and write,
// under the billing transaction's lock, so it only accumulates into an
// atomic, taking the governor lock (never a transaction's) once per
// byteSinkFlush bytes. Reads only lock-free state — it is called from the
// accountant's meter-creation hook, which must not take g.mu.
func (g *Governor) sinkFor(tenant string) func(int) {
	if !g.defaultByteLimited {
		if _, ok := g.byteLimited.Load(tenant); !ok {
			return nil
		}
	}
	return func(n int) {
		// Look the counter up per call rather than capturing it, so idle
		// eviction can delete pendingBytes entries; the next recording
		// simply recreates one.
		p := g.pendingFor(tenant)
		if v := p.Add(int64(n)); v >= byteSinkFlush {
			if p.CompareAndSwap(v, 0) {
				g.ChargeBytes(tenant, int(v))
			}
		}
	}
}

// settleBytesLocked debits any pending sink bytes so quota decisions see an
// exact bucket. Caller holds g.mu.
func (g *Governor) settleBytesLocked(tenant string, ts *tenantState) {
	if ts.limits.BytesPerSecond <= 0 {
		return
	}
	if p, ok := g.pendingBytes.Load(tenant); ok {
		if n := p.(*atomic.Int64).Swap(0); n > 0 {
			ts.byteTokens -= float64(n)
		}
	}
}

// Accountant returns the accountant the governor meters into.
func (g *Governor) Accountant() *Accountant { return g.acct }

// SetLimits installs tenant-specific quotas, replacing the defaults for that
// tenant. The configuration persists across idle-state eviction; live state
// is updated in place: a first rate limit primes a full bucket, re-applied
// limits keep the current token balance (clamped to the new burst) so a
// config loop re-asserting unchanged limits cannot refresh a drained quota.
// Raised ceilings take effect immediately for queued waiters.
func (g *Governor) SetLimits(tenant string, l Limits) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.configured[tenant] = l
	eff := g.effectiveLocked(tenant) // a held lease keeps overriding the raw limit
	g.noteByteLimited(tenant, eff)
	if ts, ok := g.tenants[tenant]; ok {
		g.applyLimitsLocked(tenant, ts, eff) // includes syncByteSink
		g.dispatch()
	} else {
		// No live admission state, but the tenant's meter may already exist
		// (provider-path traffic): the byte sink must follow the new
		// configuration or bypass bytes would escape the quota.
		g.acct.Tenant(tenant).setByteSink(g.sinkFor(tenant))
	}
}

// effectiveLocked resolves the limits that should govern tenant right now:
// a lease slice overrides the configured (global) limit, which overrides the
// defaults. Caller holds g.mu.
func (g *Governor) effectiveLocked(tenant string) Limits {
	if l, ok := g.leased[tenant]; ok {
		return l
	}
	if l, ok := g.configured[tenant]; ok {
		return l
	}
	return g.opts.DefaultLimits
}

// SetLease installs lease-derived limits for tenant: until ClearLease, the
// tenant's buckets refill from l — this server's time-bounded slice of the
// tenant's global budget — instead of the configured limit. Repeated renewals
// with an unchanged slice preserve drained-bucket balances (applyLimitsLocked
// keeps the balance, clamped to the new burst), so a heartbeat cannot be used
// to refresh an exhausted quota.
func (g *Governor) SetLease(tenant string, l Limits) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.leased[tenant] = l
	g.noteByteLimited(tenant, l)
	if ts, ok := g.tenants[tenant]; ok {
		g.applyLimitsLocked(tenant, ts, l)
		g.dispatch()
	} else {
		g.acct.Tenant(tenant).setByteSink(g.sinkFor(tenant))
	}
}

// ClearLease drops tenant's lease-derived limits, reverting to the configured
// (or default) ones — the path taken when a lease expires unrenewed or the
// tenant leaves the persisted limits table.
func (g *Governor) ClearLease(tenant string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.leased[tenant]; !ok {
		return
	}
	delete(g.leased, tenant)
	eff := g.effectiveLocked(tenant)
	g.noteByteLimited(tenant, eff)
	if ts, ok := g.tenants[tenant]; ok {
		g.applyLimitsLocked(tenant, ts, eff)
		g.dispatch()
	} else {
		g.acct.Tenant(tenant).setByteSink(g.sinkFor(tenant))
	}
}

// noteByteLimited keeps the lock-free byte-quota registry in sync with the
// configured table.
func (g *Governor) noteByteLimited(tenant string, l Limits) {
	if l.BytesPerSecond > 0 {
		g.byteLimited.Store(tenant, struct{}{})
	} else {
		g.byteLimited.Delete(tenant)
	}
}

// applyLimitsLocked installs l on live state ts, preserving drained-bucket
// balances across re-application. Caller holds g.mu.
func (g *Governor) applyLimitsLocked(tenant string, ts *tenantState, l Limits) {
	now := g.opts.Clock()
	hadRate := ts.limits.TxnPerSecond > 0
	hadByteRate := ts.limits.BytesPerSecond > 0
	ts.refill(now) // settle the buckets under the old rates first
	ts.limits = l
	switch {
	case l.TxnPerSecond <= 0:
		ts.tokens = 0 // unlimited rate never consults the bucket
	case !hadRate:
		ts.tokens = l.burst()
	default:
		ts.tokens = math.Min(ts.tokens, l.burst())
	}
	switch {
	case l.BytesPerSecond <= 0:
		ts.byteTokens = 0
	case !hadByteRate:
		ts.byteTokens = l.byteBurst()
	default:
		ts.byteTokens = math.Min(ts.byteTokens, l.byteBurst())
	}
	ts.lastFill = now
	g.syncByteSink(tenant, ts)
}

// syncByteSink points the tenant's meter at the byte-quota sink when a byte
// quota is in force (and detaches it otherwise), so every transaction billing
// the meter debits the byte bucket. Caller holds g.mu;
// noteByteLimited must have run for this tenant first so sinkFor agrees.
func (g *Governor) syncByteSink(tenant string, ts *tenantState) {
	ts.sink = g.sinkFor(tenant)
	g.acct.Tenant(tenant).setByteSink(ts.sink)
}

// LimitsFor reports the limits in force for tenant. It never materializes
// tenant state: live state wins, then a held lease, then the configured
// table, then defaults.
func (g *Governor) LimitsFor(tenant string) Limits {
	g.mu.Lock()
	defer g.mu.Unlock()
	if ts, ok := g.tenants[tenant]; ok {
		return ts.limits
	}
	return g.effectiveLocked(tenant)
}

// Leases returns a copy of the lease-derived limit overlays currently
// installed (SetLease), keyed by tenant — the metrics registry exports these
// as per-tenant gauges so operators can see each server's held slice of the
// global budget.
func (g *Governor) Leases() map[string]Limits {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]Limits, len(g.leased))
	for t, l := range g.leased {
		out[t] = l
	}
	return out
}

// LoadLimits replaces the governor's configured per-tenant limits with the
// store's contents and applies them to live tenant state, so a fleet of
// stateless servers sharing one LimitsStore enforces identical quotas with
// no in-process SetLimits calls. Tenants absent from the store revert to
// DefaultLimits. Returns the number of tenants configured.
func (g *Governor) LoadLimits(store *LimitsStore) (int, error) {
	all, err := store.All()
	if err != nil {
		return 0, err
	}
	return g.ApplyLimits(all), nil
}

// ApplyLimits is LoadLimits with the store read factored out: it installs all
// as the new configured table and re-resolves every tenant's effective limits
// (a held lease keeps overriding its tenant's new global limit). A
// lease.Manager uses it directly so one store read per refresh serves both
// the limits reload and the lease claims. Returns the number of tenants
// configured.
func (g *Governor) ApplyLimits(all map[string]Limits) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	old := g.configured
	g.configured = all
	// Rebuild the lock-free registry add-first: the accountant's
	// meter-creation hook reads it without g.mu, and a still-byte-limited
	// tenant must never be observed missing mid-rebuild (a stale extra
	// entry is harmless — ChargeBytes checks the real limits).
	for tenant := range all {
		g.noteByteLimited(tenant, g.effectiveLocked(tenant))
	}
	for tenant := range g.leased {
		g.noteByteLimited(tenant, g.effectiveLocked(tenant))
	}
	g.byteLimited.Range(func(k, _ interface{}) bool {
		if g.effectiveLocked(k.(string)).BytesPerSecond <= 0 {
			g.byteLimited.Delete(k)
		}
		return true
	})
	// Re-point every configured (and newly unconfigured) tenant's meter at
	// the right sink, even when the tenant has no live admission state —
	// provider-path meters created before a byte quota existed must pick
	// it up on the next refresh.
	for tenant := range all {
		g.acct.Tenant(tenant).setByteSink(g.sinkFor(tenant))
	}
	for tenant := range old {
		if _, ok := all[tenant]; !ok {
			g.acct.Tenant(tenant).setByteSink(g.sinkFor(tenant))
		}
	}
	for tenant, ts := range g.tenants {
		g.applyLimitsLocked(tenant, ts, g.effectiveLocked(tenant))
	}
	g.dispatch()
	return len(all)
}

// tenant returns (creating) the state for a tenant. New state takes its
// limits from the configured table, falling back to the defaults, and is
// primed with full buckets. Caller holds g.mu.
func (g *Governor) tenant(tenant string) *tenantState {
	ts, ok := g.tenants[tenant]
	if !ok {
		limits := g.effectiveLocked(tenant)
		now := g.opts.Clock()
		ts = &tenantState{
			limits:     limits,
			tokens:     limits.burst(),
			byteTokens: limits.byteBurst(),
			lastFill:   now,
			lastActive: now,
		}
		if math.IsInf(ts.tokens, 1) {
			ts.tokens = 0 // unlimited rate never consults the bucket
		}
		if math.IsInf(ts.byteTokens, 1) {
			ts.byteTokens = 0
		}
		g.tenants[tenant] = ts
		g.syncByteSink(tenant, ts)
	}
	return ts
}

// refill tops up both buckets for elapsed time. Caller holds g.mu.
func (ts *tenantState) refill(now time.Time) {
	dt := now.Sub(ts.lastFill).Seconds()
	if dt > 0 {
		if ts.limits.TxnPerSecond > 0 {
			ts.tokens = math.Min(ts.limits.burst(), ts.tokens+dt*ts.limits.TxnPerSecond)
		}
		if ts.limits.BytesPerSecond > 0 {
			ts.byteTokens = math.Min(ts.limits.byteBurst(), ts.byteTokens+dt*ts.limits.BytesPerSecond)
		}
	}
	ts.lastFill = now
}

// Admit asks to run one transaction on behalf of tenant. It consumes one
// rate token and checks the byte bucket is not in debt (failing fast with
// *QuotaExceededError otherwise), then waits — honoring ctx cancellation —
// for a concurrency slot if the tenant or the cluster is at capacity,
// granting queued tenants weighted-fairly. The admission's priority class is
// read from the context (WithPriority): background admissions are granted
// only when no foreground waiter is eligible, so deprioritized work such as
// online index builds yields to interactive traffic. On success it returns a
// release function that MUST be called exactly when the transaction finishes
// (it is idempotent).
func (g *Governor) Admit(ctx context.Context, tenant string) (release func(), err error) {
	meter := g.acct.Tenant(tenant)
	pri := PriorityFrom(ctx)

	g.mu.Lock()
	now := g.opts.Clock()
	g.maybeSweepLocked(now)
	ts := g.tenant(tenant)
	ts.lastActive = now
	ts.refill(now)
	g.settleBytesLocked(tenant, ts)

	// Byte quota: a bucket drained into debt by post-hoc charges rejects new
	// admissions until refill clears it.
	if ts.limits.BytesPerSecond > 0 && ts.byteTokens <= 0 {
		retry := time.Duration((1 - ts.byteTokens) / ts.limits.BytesPerSecond * float64(time.Second))
		g.mu.Unlock()
		meter.recordRejection()
		return nil, &QuotaExceededError{Tenant: tenant, Resource: QuotaByteRate, RetryAfter: retry}
	}

	// Rate quota: reject immediately so the caller backs off out-of-band
	// instead of occupying a queue slot.
	if ts.limits.TxnPerSecond > 0 {
		if ts.tokens < 1 {
			retry := time.Duration((1 - ts.tokens) / ts.limits.TxnPerSecond * float64(time.Second))
			g.mu.Unlock()
			meter.recordRejection()
			return nil, &QuotaExceededError{Tenant: tenant, Resource: QuotaTxnRate, RetryAfter: retry}
		}
		ts.tokens--
	}

	// Concurrency: admit immediately when there is room and nobody anywhere
	// is queued (FIFO within a tenant; waiters anywhere defer to dispatch so
	// priority and fairness decide). Otherwise queue and let dispatch pick.
	if len(g.waiting) == 0 && g.hasRoom(ts) {
		g.grant(ts)
		g.mu.Unlock()
		meter.recordAdmission(false)
		return g.releaseFunc(tenant), nil
	}
	w := &waiter{ready: make(chan struct{}), pri: pri}
	if pri == PriorityBackground {
		ts.bg = append(ts.bg, w)
	} else {
		ts.fg = append(ts.fg, w)
	}
	g.waiting[tenant] = ts
	// The new waiter may itself be grantable (e.g. room exists but another
	// tenant's waiters are blocked on their own ceiling).
	g.dispatch()
	g.mu.Unlock()

	select {
	case <-w.ready:
		if w.err != nil {
			// Rejected at grant time: the tenant's byte bucket went into
			// debt while we were queued.
			meter.recordRejection()
			return nil, w.err
		}
		meter.recordAdmission(true)
		return g.releaseFunc(tenant), nil
	case <-ctx.Done():
		g.mu.Lock()
		if w.granted {
			// Lost the race: the slot was granted while we were cancelling.
			// Hand it back so it is re-dispatched fairly.
			g.refundToken(ts)
			g.releaseLocked(tenant)
			g.mu.Unlock()
			return nil, ctx.Err()
		}
		if w.err != nil {
			// Rejected while we were cancelling: queue removal and token
			// refund already happened.
			g.mu.Unlock()
			return nil, ctx.Err()
		}
		g.removeWaiterLocked(tenant, ts, w)
		// The work never ran: refund the rate token, and count neither an
		// admission nor a rejection — cancellation is not a quota event.
		g.refundToken(ts)
		g.mu.Unlock()
		return nil, ctx.Err()
	}
}

// removeWaiterLocked drops a cancelled waiter from its queue and updates the
// waiting set. Caller holds g.mu.
func (g *Governor) removeWaiterLocked(tenant string, ts *tenantState, w *waiter) {
	q := &ts.fg
	if w.pri == PriorityBackground {
		q = &ts.bg
	}
	for i, x := range *q {
		if x == w {
			*q = append((*q)[:i], (*q)[i+1:]...)
			break
		}
	}
	if len(ts.fg)+len(ts.bg) == 0 {
		delete(g.waiting, tenant)
	}
}

// ChargeBytes debits n bytes from tenant's byte bucket — the post-hoc
// accounting the read/write hot paths feed through the tenant's Meter. The
// bucket may go negative (the work already happened); admissions are
// rejected until refill pays the debt back. A tenant without a byte quota is
// untouched.
func (g *Governor) ChargeBytes(tenant string, n int) {
	if n <= 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	ts, ok := g.tenants[tenant]
	if !ok {
		// Evicted (or traffic outside the admission path): recreate state
		// only when a byte quota is actually in force (lease slice included),
		// so charges cannot slip through a quota while the state is cold.
		if g.effectiveLocked(tenant).BytesPerSecond <= 0 {
			return
		}
		ts = g.tenant(tenant)
	}
	if ts.limits.BytesPerSecond <= 0 {
		return
	}
	now := g.opts.Clock()
	ts.lastActive = now
	ts.refill(now)
	ts.byteTokens -= float64(n)
	if ts.byteTokens <= 0 && len(ts.fg)+len(ts.bg) > 0 {
		// The charge drained the bucket with waiters queued: reject them now
		// rather than granting work the budget no longer covers.
		g.rejectDebtorsLocked()
	}
}

// refundToken returns the rate token consumed by an admission that was
// cancelled before its work ran. Caller holds g.mu.
func (g *Governor) refundToken(ts *tenantState) {
	if ts.limits.TxnPerSecond <= 0 {
		return
	}
	ts.refill(g.opts.Clock())
	ts.tokens = math.Min(ts.limits.burst(), ts.tokens+1)
}

// hasRoom reports whether one more admission fits the tenant's ceiling and
// the global capacity. Caller holds g.mu.
func (g *Governor) hasRoom(ts *tenantState) bool {
	if ts.limits.MaxConcurrent > 0 && ts.inflight >= ts.limits.MaxConcurrent {
		return false
	}
	if g.opts.TotalConcurrent > 0 && g.inflight >= g.opts.TotalConcurrent {
		return false
	}
	return true
}

// grant admits one transaction for ts. Caller holds g.mu.
func (g *Governor) grant(ts *tenantState) {
	ts.inflight++
	g.inflight++
	g.grantSeq++
	ts.lastGrant = g.grantSeq
}

func (g *Governor) releaseFunc(tenant string) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			g.releaseLocked(tenant)
			g.mu.Unlock()
		})
	}
}

// releaseLocked returns one slot and dispatches waiters. It looks the tenant
// up without creating: a release for unknown (e.g. already-evicted) state
// must not materialize a freshly primed bucket, which would be a quota-reset
// hole. Caller holds g.mu.
func (g *Governor) releaseLocked(tenant string) {
	ts, ok := g.tenants[tenant]
	if !ok {
		return
	}
	ts.inflight--
	g.inflight--
	ts.lastActive = g.opts.Clock()
	g.dispatch()
}

// rejectDebtorsLocked fails every queued waiter of tenants whose byte
// bucket is in debt: the entry check passed when the bucket was still
// positive, but post-hoc charges have since drained it, so granting now
// would hand out work the budget no longer covers. Each waiter gets the
// typed quota error (with RetryAfter) and its rate token back. Caller holds
// g.mu.
func (g *Governor) rejectDebtorsLocked() {
	if len(g.waiting) == 0 {
		return
	}
	now := g.opts.Clock()
	for name, ts := range g.waiting {
		if ts.limits.BytesPerSecond <= 0 {
			continue
		}
		ts.refill(now)
		g.settleBytesLocked(name, ts)
		if ts.byteTokens > 0 {
			continue
		}
		retry := time.Duration((1 - ts.byteTokens) / ts.limits.BytesPerSecond * float64(time.Second))
		reject := func(w *waiter) {
			w.err = &QuotaExceededError{Tenant: name, Resource: QuotaByteRate, RetryAfter: retry}
			g.refundToken(ts)
			close(w.ready)
		}
		for _, w := range ts.fg {
			reject(w)
		}
		for _, w := range ts.bg {
			reject(w)
		}
		ts.fg, ts.bg = nil, nil
		delete(g.waiting, name)
	}
}

// dispatch grants as many queued waiters as capacity allows. Foreground
// waiters are granted first, weighted-fair across tenants (lowest
// inflight/weight share, ties broken least-recently-granted); a background
// waiter is granted only when no foreground waiter anywhere is eligible.
// Caller holds g.mu.
func (g *Governor) dispatch() {
	g.rejectDebtorsLocked()
	for {
		if g.grantNext(false) {
			continue
		}
		if g.grantNext(true) {
			continue
		}
		return
	}
}

// grantNext grants one waiter of the given class to the fairest eligible
// tenant, reporting whether a grant happened. Only tenants in the waiting
// set are scanned. Caller holds g.mu.
func (g *Governor) grantNext(background bool) bool {
	var best *tenantState
	var bestName string
	for name, ts := range g.waiting {
		q := ts.fg
		if background {
			q = ts.bg
		}
		if len(q) == 0 || !g.hasRoom(ts) {
			continue
		}
		if best == nil || fairBefore(ts, best) {
			best, bestName = ts, name
		}
	}
	if best == nil {
		return false
	}
	var w *waiter
	if background {
		w = best.bg[0]
		best.bg = best.bg[1:]
	} else {
		w = best.fg[0]
		best.fg = best.fg[1:]
	}
	if len(best.fg)+len(best.bg) == 0 {
		delete(g.waiting, bestName)
	}
	g.grant(best)
	w.granted = true
	close(w.ready)
	return true
}

// fairBefore reports whether a should be granted before b: lower weighted
// in-flight share first, then least recently granted.
func fairBefore(a, b *tenantState) bool {
	sa := float64(a.inflight) / a.limits.weight()
	sb := float64(b.inflight) / b.limits.weight()
	if sa != sb {
		return sa < sb
	}
	return a.lastGrant < b.lastGrant
}

// maybeSweepLocked runs the idle-eviction sweep at most every IdleTTL/4.
// Caller holds g.mu.
func (g *Governor) maybeSweepLocked(now time.Time) {
	ttl := g.opts.IdleTTL
	if ttl <= 0 {
		return
	}
	interval := ttl / 4
	if interval <= 0 {
		interval = ttl
	}
	if now.Sub(g.lastSweep) < interval {
		return
	}
	g.lastSweep = now
	g.evictIdleLocked(now, ttl)
}

// EvictIdle drops the in-memory state of every tenant that has been idle for
// at least ttl (ttl <= 0 uses GovernorOptions.IdleTTL): no in-flight work,
// no queued waiters, and fully refilled token buckets — so the eviction is
// invisible: recreating the state later primes the same full buckets from
// the configured limits. Returns the number of tenants evicted.
func (g *Governor) EvictIdle(ttl time.Duration) int {
	if ttl <= 0 {
		ttl = g.opts.IdleTTL
	}
	if ttl <= 0 {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.evictIdleLocked(g.opts.Clock(), ttl)
}

// evictIdleLocked is EvictIdle's body. Caller holds g.mu.
func (g *Governor) evictIdleLocked(now time.Time, ttl time.Duration) int {
	n := 0
	for name, ts := range g.tenants {
		if ts.inflight > 0 || len(ts.fg)+len(ts.bg) > 0 {
			continue
		}
		if now.Sub(ts.lastActive) < ttl {
			continue
		}
		ts.refill(now)
		g.settleBytesLocked(name, ts)
		if ts.limits.TxnPerSecond > 0 && ts.tokens < ts.limits.burst() {
			continue // a drained bucket is quota state we must not forget
		}
		if ts.limits.BytesPerSecond > 0 && ts.byteTokens < ts.limits.byteBurst() {
			continue
		}
		delete(g.tenants, name)
		// Drop the settled pending-bytes counter too, so the map stays
		// bounded under a default byte quota. A recording racing this
		// delete can at worst leave one sub-flush add uncounted — the
		// tenant is long-idle and its bucket full, so nothing is owed.
		g.pendingBytes.Delete(name)
		n++
	}
	return n
}

// TenantCount reports how many tenants have live in-memory state (for
// monitoring and eviction tests).
func (g *Governor) TenantCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.tenants)
}

// Inflight reports the governor's current total in-flight admissions and
// queued waiters (for monitoring and tests).
func (g *Governor) Inflight() (admitted, waiting int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, ts := range g.waiting {
		waiting += len(ts.fg) + len(ts.bg)
	}
	return g.inflight, waiting
}
