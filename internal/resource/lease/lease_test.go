package lease

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"recordlayer/internal/fdb"
	"recordlayer/internal/resource"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// manualClock is a settable time source (mirrors the resource test helper).
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func testStore() *Store {
	db := fdb.Open(nil)
	return NewStore(db, subspace.FromTuple(tuple.Tuple{"lease-test"}))
}

func sumLive(t *testing.T, s *Store, tenant string, now time.Time) (txn, bytes float64, rows int) {
	t.Helper()
	live, err := s.Live(tenant, now)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range live {
		txn += r.Slice.Txn
		bytes += r.Slice.Bytes
	}
	return txn, bytes, len(live)
}

const sumEps = 1e-9

// TestClaimEqualSplitConverges: with no demand reported, three servers
// converge to an equal split of the global rate in two claim rounds, and the
// slice sum never exceeds the global limit at any point.
func TestClaimEqualSplitConverges(t *testing.T) {
	s := testStore()
	base := time.Unix(1000, 0)
	const global = 90.0
	servers := []string{"a", "b", "c"}
	for round := 0; round < 2; round++ {
		for _, srv := range servers {
			if _, err := s.Claim("t", srv, global, 0, Demand{}, base, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			if sum, _, _ := sumLive(t, s, "t", base); sum > global+sumEps {
				t.Fatalf("round %d after %s: slice sum %v exceeds global %v", round, srv, sum, global)
			}
		}
	}
	live, err := s.Live("t", base)
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 3 {
		t.Fatalf("live rows = %d, want 3", len(live))
	}
	for _, r := range live {
		if math.Abs(r.Slice.Txn-global/3) > sumEps {
			t.Errorf("server %s slice = %v, want equal split %v", r.Server, r.Slice.Txn, global/3)
		}
	}
}

// TestClaimDemandProportional: once servers publish uneven demand, renewal
// rounds shift the split toward it — the hot server grows, the idle server
// decays to the MinFraction floor — while the sum stays capped at the global
// limit throughout.
func TestClaimDemandProportional(t *testing.T) {
	s := testStore()
	base := time.Unix(1000, 0)
	const global = 90.0
	demands := map[string]Demand{
		"a": {Txn: 60},
		"b": {Txn: 20},
		"c": {},
	}
	// Two warm-up rounds to the equal split, then rounds with demand.
	for round := 0; round < 6; round++ {
		for _, srv := range []string{"a", "b", "c"} {
			d := Demand{}
			if round >= 2 {
				d = demands[srv]
			}
			if _, err := s.Claim("t", srv, global, 0, d, base, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			if sum, _, _ := sumLive(t, s, "t", base); sum > global+sumEps {
				t.Fatalf("round %d after %s: slice sum %v exceeds global %v", round, srv, sum, global)
			}
		}
	}
	live, err := s.Live("t", base)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, r := range live {
		got[r.Server] = r.Slice.Txn
	}
	floor := global * MinFraction
	if got["a"] < 60 {
		t.Errorf("hot server a slice = %v, want >= 60 (demand-dominant share)", got["a"])
	}
	if got["b"] <= floor || got["b"] >= got["a"] {
		t.Errorf("warm server b slice = %v, want between floor %v and a's %v", got["b"], floor, got["a"])
	}
	if math.Abs(got["c"]-floor) > sumEps {
		t.Errorf("idle server c slice = %v, want the floor %v", got["c"], floor)
	}
}

// TestExpiredLeaseReclaimed: a server that stops renewing (crash) has its row
// cleared by the next peer claim after expiry, and the survivors' renewal
// rounds grow into the freed budget.
func TestExpiredLeaseReclaimed(t *testing.T) {
	s := testStore()
	now := time.Unix(1000, 0)
	const global = 90.0
	const ttl = 2 * time.Second
	for round := 0; round < 2; round++ {
		for _, srv := range []string{"a", "b", "c"} {
			if _, err := s.Claim("t", srv, global, 0, Demand{}, now, ttl); err != nil {
				t.Fatal(err)
			}
		}
	}
	// "c" crashes: only a and b renew, in 1s heartbeats. After the first
	// post-expiry round c's row is gone; within two more rounds a and b
	// converge on half the budget each. The sum invariant holds throughout.
	for round := 0; round < 4; round++ {
		now = now.Add(time.Second)
		for _, srv := range []string{"a", "b"} {
			if _, err := s.Claim("t", srv, global, 0, Demand{}, now, ttl); err != nil {
				t.Fatal(err)
			}
			if sum, _, _ := sumLive(t, s, "t", now); sum > global+sumEps {
				t.Fatalf("round %d after %s: slice sum %v exceeds global %v", round, srv, sum, global)
			}
		}
	}
	live, err := s.Live("t", now)
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 2 {
		t.Fatalf("live rows after crash = %d, want 2 (c's lease reclaimed)", len(live))
	}
	for _, r := range live {
		if math.Abs(r.Slice.Txn-global/2) > sumEps {
			t.Errorf("survivor %s slice = %v, want %v", r.Server, r.Slice.Txn, global/2)
		}
	}
}

// TestLeasedLimitsNeverUnlimited: a zero granted slice must map to a tiny
// positive rate — a rate of 0 means unlimited in Limits, which would hand
// the tenant the very budget the lease denied.
func TestLeasedLimitsNeverUnlimited(t *testing.T) {
	global := resource.Limits{TxnPerSecond: 100, Burst: 10, BytesPerSecond: 1 << 20, ByteBurst: 1 << 16}
	l := leasedLimits(global, Slice{Txn: 0, Bytes: 0})
	if l.TxnPerSecond <= 0 || l.BytesPerSecond <= 0 {
		t.Fatalf("zero slice mapped to unlimited: %+v", l)
	}
	if l.TxnPerSecond > 1 || l.BytesPerSecond > 1 {
		t.Fatalf("zero slice mapped to a real rate: %+v", l)
	}
	if l.Burst < 1 || l.ByteBurst < 1 {
		t.Fatalf("zero slice must keep a bucket of at least 1: %+v", l)
	}
	// A real slice scales the bursts proportionally and keeps the
	// per-server fields.
	global.MaxConcurrent, global.Weight = 7, 3
	l = leasedLimits(global, Slice{Txn: 25, Bytes: 1 << 18})
	if l.TxnPerSecond != 25 || l.Burst != 3 {
		t.Errorf("quarter slice: got rate %v burst %d, want 25 and 3", l.TxnPerSecond, l.Burst)
	}
	if l.BytesPerSecond != 1<<18 || l.ByteBurst != 1<<14 {
		t.Errorf("quarter byte slice: got rate %v burst %d, want %d and %d",
			l.BytesPerSecond, l.ByteBurst, 1<<18, 1<<14)
	}
	if l.MaxConcurrent != 7 || l.Weight != 3 {
		t.Errorf("per-server fields must pass through: %+v", l)
	}
}

// churnHarness is three lease-coordinated governors over one database.
type churnHarness struct {
	clock  *manualClock
	store  *Store
	limits *resource.LimitsStore
	govs   [3]*resource.Governor
	mgrs   [3]*Manager
}

func newChurnHarness(t *testing.T, global resource.Limits, ttl time.Duration) *churnHarness {
	t.Helper()
	db := fdb.Open(nil)
	h := &churnHarness{
		clock:  &manualClock{now: time.Unix(1000, 0)},
		store:  NewStore(db, subspace.FromTuple(tuple.Tuple{"leases"})),
		limits: resource.NewLimitsStore(db, subspace.FromTuple(tuple.Tuple{"limits"})),
	}
	if err := h.limits.Set("t", global); err != nil {
		t.Fatal(err)
	}
	for i := range h.govs {
		h.govs[i] = resource.NewGovernor(nil, resource.GovernorOptions{Clock: h.clock.Now})
		h.mgrs[i] = NewManager(h.govs[i], h.limits, h.store, Options{
			Server: string(rune('a' + i)),
			TTL:    ttl,
			Clock:  h.clock.Now,
		})
	}
	return h
}

// refresh runs one heartbeat on the given managers, asserting the slice-sum
// invariant after each.
func (h *churnHarness) refresh(t *testing.T, global float64, idx ...int) {
	t.Helper()
	for _, i := range idx {
		if _, err := h.mgrs[i].Refresh(context.Background()); err != nil {
			t.Fatalf("manager %d refresh: %v", i, err)
		}
		live, err := h.store.Live("t", h.clock.Now())
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, r := range live {
			sum += r.Slice.Txn
		}
		if sum > global+sumEps {
			t.Fatalf("after manager %d: slice sum %v exceeds global %v", i, sum, global)
		}
	}
}

// drive attempts n admissions for tenant t on governor i, releasing the
// granted ones — the traffic the manager's demand estimator observes.
func (h *churnHarness) drive(i, n int) {
	ctx := context.Background()
	for j := 0; j < n; j++ {
		if release, err := h.govs[i].Admit(ctx, "t"); err == nil {
			release()
		}
	}
}

// TestManagerChurnConvergence is the satellite scenario: three governors
// churn — demand shifts to one server, one crashes mid-lease, one goes idle
// — and at every step the slice sums stay within the global limit while
// reclaim and rebalance converge toward the demand.
func TestManagerChurnConvergence(t *testing.T) {
	const globalRate = 90.0
	h := newChurnHarness(t, resource.Limits{TxnPerSecond: globalRate, Burst: 9}, 3*time.Second)

	// Cold start: two rounds converge to the equal split, installed as each
	// governor's effective limit.
	h.refresh(t, globalRate, 0, 1, 2)
	h.refresh(t, globalRate, 0, 1, 2)
	for i, gov := range h.govs {
		if got := gov.LimitsFor("t").TxnPerSecond; math.Abs(got-globalRate/3) > sumEps {
			t.Fatalf("governor %d effective rate = %v, want equal split %v", i, got, globalRate/3)
		}
	}

	// Demand shift: all traffic lands on server 0. Its rejections publish a
	// demand spike; within a few heartbeats its slice grows toward the whole
	// budget while the idle peers decay to the floor.
	for round := 0; round < 4; round++ {
		h.clock.Advance(time.Second)
		h.drive(0, 50)
		h.refresh(t, globalRate, 0, 1, 2)
	}
	floor := globalRate * MinFraction
	hot, _ := h.mgrs[0].Held("t")
	if hot.Txn < globalRate-2*floor-sumEps {
		t.Fatalf("hot server slice = %v, want ~%v (global minus two floors)", hot.Txn, globalRate-2*floor)
	}
	for i := 1; i <= 2; i++ {
		if idle, _ := h.mgrs[i].Held("t"); math.Abs(idle.Txn-floor) > sumEps {
			t.Fatalf("idle server %d slice = %v, want floor %v", i, idle.Txn, floor)
		}
	}
	if got := h.govs[0].LimitsFor("t").TxnPerSecond; math.Abs(got-hot.Txn) > sumEps {
		t.Fatalf("governor 0 effective rate %v does not match held slice %v", got, hot.Txn)
	}

	// Crash: server 0 stops renewing mid-lease while holding most of the
	// budget. After its TTL lapses, the survivors reclaim the row and split
	// the freed budget (demand has gone quiet, so they fall back to an
	// equal two-way split).
	for round := 0; round < 3; round++ {
		h.clock.Advance(2 * time.Second)
		h.refresh(t, globalRate, 1, 2)
	}
	live, err := h.store.Live("t", h.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 2 {
		t.Fatalf("live rows after crash = %d, want 2 (crashed server reclaimed)", len(live))
	}
	for _, r := range live {
		if math.Abs(r.Slice.Txn-globalRate/2) > sumEps {
			t.Fatalf("survivor %s slice = %v, want %v", r.Server, r.Slice.Txn, globalRate/2)
		}
	}

	// Tenant leaves the table: leases are released and the governors revert
	// to defaults (unlimited here).
	if err := h.limits.Delete("t"); err != nil {
		t.Fatal(err)
	}
	h.refresh(t, globalRate, 1, 2)
	if _, held := h.mgrs[1].Held("t"); held {
		t.Fatal("manager 1 still holds a lease for a deleted tenant")
	}
	if got := h.govs[1].LimitsFor("t").TxnPerSecond; got != 0 {
		t.Fatalf("governor 1 rate after delete = %v, want 0 (unlimited default)", got)
	}
	live, err = h.store.Live("t", h.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 0 {
		t.Fatalf("live rows after delete = %d, want 0 (released)", len(live))
	}
}
