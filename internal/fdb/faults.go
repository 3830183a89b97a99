package fdb

import (
	"math/rand"
	"sync"
	"time"

	"recordlayer/internal/fdb/internal/cluster"
)

// FaultConfig sets the per-operation probabilities of a FaultInjector. All
// probabilities are in [0, 1] and independent rolls; a zero value injects
// nothing. Faults draw from one seeded stream, so a fixed Seed plus a fixed
// operation order replays the exact same fault schedule — the property
// FoundationDB's own simulation testing is built on.
type FaultConfig struct {
	// Seed fixes the pseudo-random fault schedule. The same seed against the
	// same operation sequence injects the same faults.
	Seed int64

	// PCommitNotCommitted is the probability a commit that passed conflict
	// validation fails cleanly with not_committed (1020). Nothing is applied;
	// the error is retryable.
	PCommitNotCommitted float64
	// PCommitUnknown is the probability a commit that passed validation
	// returns commit_unknown_result (1021). The simulator then genuinely may
	// or may not have applied the mutations (see PUnknownApplied) — exactly
	// the ambiguity a real client faces when the network drops the commit
	// response.
	PCommitUnknown float64
	// PUnknownApplied is, given an unknown-result commit, the probability the
	// mutations actually applied. Zero means "use the default" (0.5); set
	// UnknownNeverApplies for a genuinely-zero rate.
	PUnknownApplied float64
	// UnknownNeverApplies forces unknown-result commits to never apply
	// (PUnknownApplied is ignored), for tests that want pure clean loss
	// reported ambiguously.
	UnknownNeverApplies bool

	// PReadTooOld is the probability any read fails with transaction_too_old
	// (1007) — the mid-scan staleness failure long scans hit on a real
	// cluster once they outlive the 5 s MVCC window.
	PReadTooOld float64
	// PReadFuture is the probability any read fails with future_version
	// (1009) — the cluster has not caught up to the read version, e.g. after
	// read-version caching handed out a version a lagging storage server has
	// not seen. Retryable.
	PReadFuture float64

	// PLatencySpike is the probability an issued read's latency is extended
	// by SpikeLatency. Spikes only take effect when Options.Latency is
	// enabled — with instant reads there is no latency clock to delay.
	PLatencySpike float64
	// SpikeLatency is the extra simulated delay added to a spiked read.
	SpikeLatency time.Duration
}

// FaultCounts reports how many faults of each kind an injector has dealt.
type FaultCounts struct {
	CommitsNotCommitted int64 // injected clean not_committed failures
	CommitsUnknown      int64 // injected commit_unknown_result errors
	UnknownApplied      int64 // of CommitsUnknown, how many genuinely applied
	ReadsTooOld         int64 // injected transaction_too_old read failures
	ReadsFuture         int64 // injected future_version read failures
	LatencySpikes       int64 // injected read-latency spikes
}

// Total returns the number of injected faults of all kinds (spikes included;
// UnknownApplied is a sub-count of CommitsUnknown, not an extra fault).
func (c FaultCounts) Total() int64 {
	return c.CommitsNotCommitted + c.CommitsUnknown + c.ReadsTooOld + c.ReadsFuture + c.LatencySpikes
}

// FaultInjector deals deterministic, seeded faults into a Database. Wire one
// through Options.Faults; a nil injector (the default) costs a single pointer
// check per operation, keeping the injector-off hot path free. Disable/Enable
// pause and resume injection mid-run, so a harness can read back what an
// ambiguous or failed op left over a quiet cluster, as the model test does
// after each one, and then let the faults resume.
//
// The injector serializes its own random stream with a mutex, so one injector
// may back a database shared by concurrent transactions; determinism then
// requires the workload itself to be deterministic (single-goroutine, fixed
// operation order), which is how the model test and the chaos run drive it.
type FaultInjector struct {
	mu     sync.Mutex
	cfg    FaultConfig
	rng    *rand.Rand
	off    bool
	counts FaultCounts
}

// NewFaultInjector builds an injector from cfg, seeding its stream from
// cfg.Seed.
func NewFaultInjector(cfg FaultConfig) *FaultInjector {
	if cfg.PUnknownApplied == 0 && !cfg.UnknownNeverApplies {
		cfg.PUnknownApplied = 0.5
	}
	if cfg.UnknownNeverApplies {
		cfg.PUnknownApplied = 0
	}
	return &FaultInjector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Disable pauses injection: every subsequent roll deals no fault (and draws
// nothing from the random stream).
func (f *FaultInjector) Disable() {
	f.mu.Lock()
	f.off = true
	f.mu.Unlock()
}

// Enable resumes injection after Disable.
func (f *FaultInjector) Enable() {
	f.mu.Lock()
	f.off = false
	f.mu.Unlock()
}

// Counts returns a snapshot of the faults dealt so far.
func (f *FaultInjector) Counts() FaultCounts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts
}

// commitFault rolls the fault decision for a commit that already passed
// conflict validation: the cluster's commit fault roll.
func (f *FaultInjector) commitFault() cluster.Outcome {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.off {
		return cluster.Committed
	}
	p := f.rng.Float64()
	if p < f.cfg.PCommitNotCommitted {
		f.counts.CommitsNotCommitted++
		return cluster.InjectedNotCommitted
	}
	if p < f.cfg.PCommitNotCommitted+f.cfg.PCommitUnknown {
		f.counts.CommitsUnknown++
		if f.rng.Float64() < f.cfg.PUnknownApplied {
			f.counts.UnknownApplied++
			return cluster.InjectedUnknownApplied
		}
		return cluster.InjectedUnknownDropped
	}
	return cluster.Committed
}

// readFault rolls the fault decision for one read, returning the injected
// error or nil.
func (f *FaultInjector) readFault() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.off || (f.cfg.PReadTooOld <= 0 && f.cfg.PReadFuture <= 0) {
		return nil
	}
	p := f.rng.Float64()
	if p < f.cfg.PReadTooOld {
		f.counts.ReadsTooOld++
		return injected(CodeTransactionTooOld, "transaction too old (injected)")
	}
	if p < f.cfg.PReadTooOld+f.cfg.PReadFuture {
		f.counts.ReadsFuture++
		return injected(CodeFutureVersion, "future version (injected)")
	}
	return nil
}

// latencySpike rolls the extra latency (nanos) for one issued read, zero when
// no spike is dealt. Only consulted when a latency model is enabled.
func (f *FaultInjector) latencySpike() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.off || f.cfg.PLatencySpike <= 0 {
		return 0
	}
	if f.rng.Float64() < f.cfg.PLatencySpike {
		f.counts.LatencySpikes++
		return int64(f.cfg.SpikeLatency)
	}
	return 0
}
