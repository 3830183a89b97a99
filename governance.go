package recordlayer

import (
	"context"
	"errors"

	"recordlayer/internal/fdb"
	"recordlayer/internal/keyspace"
	"recordlayer/internal/resource"
	"recordlayer/internal/resource/lease"
	"recordlayer/internal/subspace"
)

// Resource governance (§1, §5: one cluster, millions of tenant stores).
//
// The Accountant meters what every tenant reads, writes, conflicts on, and
// how long its transactions take; the Governor enforces per-tenant
// token-bucket transaction-rate and byte-rate quotas plus concurrency
// ceilings, sharing capacity weighted-fairly when the cluster is saturated
// and granting background work only capacity foreground traffic leaves
// idle. Bind a tenant with WithTenant and hand the Runner a Governor (or
// just an Accountant): the Runner binds the tenant's meter to every
// transaction it runs, which bills it for everything the transaction reads
// and writes:
//
//	acct := recordlayer.NewAccountant()
//	gov := recordlayer.NewGovernor(acct, recordlayer.GovernorOptions{
//		TotalConcurrent: 64,
//	})
//	gov.SetLimits("hot-tenant", recordlayer.TenantLimits{TxnPerSecond: 100, MaxConcurrent: 4})
//	runner := recordlayer.NewRunner(db, recordlayer.RunnerOptions{Governor: gov})
//
//	ctx = recordlayer.WithTenant(ctx, "hot-tenant")
//	_, err := runner.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) { ... })
//	var qe *recordlayer.QuotaExceededError
//	if errors.As(err, &qe) {
//		time.Sleep(qe.RetryAfter) // recommended backoff
//	}
//
// For a fleet of stateless servers, persist the quotas in the database
// instead of calling SetLimits in-process: operators write them once through
// a LimitsStore, every server loads the same table, and a QuotaLeaseManager's
// heartbeat reloads it:
//
//	limits := recordlayer.NewLimitsStore(db)
//	_ = limits.Set("hot-tenant", recordlayer.TenantLimits{TxnPerSecond: 100, BytesPerSecond: 1 << 20})
//	_, _ = gov.LoadLimits(limits) // at startup

// Accountant is the per-tenant usage registry; see internal/resource.
type Accountant = resource.Accountant

// Governor arbitrates admission between tenants; see internal/resource.
type Governor = resource.Governor

// GovernorOptions configures a Governor.
type GovernorOptions = resource.GovernorOptions

// TenantLimits are one tenant's admission quotas.
type TenantLimits = resource.Limits

// TenantUsage is a snapshot of one tenant's consumption.
type TenantUsage = resource.Usage

// QuotaExceededError reports an exhausted tenant rate or byte quota; it
// carries the recommended RetryAfter backoff and the drained Resource.
type QuotaExceededError = resource.QuotaExceededError

// Priority is an admission's class; see WithPriority.
type Priority = resource.Priority

// Admission priority classes. Background admissions are granted only when no
// foreground waiter is eligible, so deprioritized work (index builds,
// backfills) yields to interactive traffic; and a background admission over
// its tenant's quota waits out RetryAfter instead of failing (Runner).
const (
	PriorityForeground = resource.PriorityForeground
	PriorityBackground = resource.PriorityBackground
)

// LimitsStore persists per-tenant limits in the database so every stateless
// server enforces the same quotas; see Governor.LoadLimits.
type LimitsStore = resource.LimitsStore

// NewAccountant creates an empty usage registry.
func NewAccountant() *Accountant { return resource.NewAccountant() }

// NewGovernor creates a governor metering into acct (nil acct: a private
// accountant is created; retrieve it with Governor.Accountant).
func NewGovernor(acct *Accountant, opts GovernorOptions) *Governor {
	return resource.NewGovernor(acct, opts)
}

// WithTenant binds a tenant identity to the context. Runner.Run/ReadRun use
// it to acquire admission from their Governor and to bind the tenant's meter
// to each transaction they run.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return resource.WithTenant(ctx, tenant)
}

// IsQuotaExceeded reports whether err is (or wraps) a tenant rate- or
// byte-quota rejection. Callers should back off for the error's RetryAfter.
func IsQuotaExceeded(err error) bool {
	var qe *QuotaExceededError
	return errors.As(err, &qe)
}

// WithPriority binds an admission priority class to the context; the
// Runner's Governor reads it during admission. Unbound contexts are
// foreground.
func WithPriority(ctx context.Context, p Priority) context.Context {
	return resource.WithPriority(ctx, p)
}

// limitsDirName is the reserved system directory persisted tenant limits
// live under. The double-underscore prefix keeps it visually distinct from
// application keyspaces; applications must not place data beneath it.
const limitsDirName = "__system__"

// systemSubspace compiles the reserved system directory "/__system__/<child>"
// (constant keyspace directories, so it needs no transaction).
func systemSubspace(child string) subspace.Subspace {
	ks, err := keyspace.New(nil,
		keyspace.NewConstant(limitsDirName, limitsDirName).Add(
			keyspace.NewConstant(child, child)))
	if err != nil {
		panic(err) // static constant tree; cannot fail
	}
	space, err := ks.MustPath(limitsDirName).MustAdd(child).ToSubspaceStatic()
	if err != nil {
		panic(err)
	}
	return space
}

// NewLimitsStore opens the cluster's reserved tenant-limits directory
// ("/__system__/limits", constant keyspace directories, so it compiles
// without a transaction). Every server sharing db sees the same table:
// write quotas with LimitsStore.Set (e.g. from `rl tenants set-limits`) and
// apply them with Governor.LoadLimits or a QuotaLeaseManager's heartbeat.
func NewLimitsStore(db *fdb.Database) *LimitsStore {
	return resource.NewLimitsStore(db, systemSubspace("limits"))
}

// QuotaLeaseStore reads and writes distributed quota-lease rows; see
// internal/resource/lease.
type QuotaLeaseStore = lease.Store

// QuotaLeaseManager runs one server's side of the distributed quota
// protocol; see internal/resource/lease.
type QuotaLeaseManager = lease.Manager

// QuotaLeaseOptions configures a QuotaLeaseManager.
type QuotaLeaseOptions = lease.Options

// NewQuotaLeaseStore opens the cluster's reserved quota-lease rows, nested
// under the limits directory ("/__system__/limits/leases") so LimitsStore
// scans tolerate them as siblings.
func NewQuotaLeaseStore(db *fdb.Database) *QuotaLeaseStore {
	return lease.NewStore(db, systemSubspace("limits").Sub("leases"))
}

// NewQuotaLeaseManager wires distributed quota leases into gov: each
// Refresh (or Run heartbeat) reloads the persisted limits table and claims a
// demand-sized, time-bounded slice of every rate-limited tenant's global
// budget, so N servers sharing one database grant each tenant its quota once
// cluster-wide instead of N times. Use it when more than one server governs
// the same tenants:
//
//	mgr := recordlayer.NewQuotaLeaseManager(gov, db, recordlayer.QuotaLeaseOptions{Server: hostID})
//	go mgr.Run(ctx, 2*time.Second)
func NewQuotaLeaseManager(gov *Governor, db *fdb.Database, opts QuotaLeaseOptions) *QuotaLeaseManager {
	return lease.NewManager(gov, NewLimitsStore(db), NewQuotaLeaseStore(db), opts)
}

// MeteringStore persists per-tenant usage windows for billing-grade export;
// see internal/resource.
type MeteringStore = resource.MeteringStore

// UsageExporter periodically appends an Accountant's per-tenant consumption
// deltas to a MeteringStore; see internal/resource.
type UsageExporter = resource.UsageExporter

// NewMeteringStore opens the cluster's reserved usage-metering directory
// ("/__system__/metering"). Every server's UsageExporter appends its windows
// here; MeteringStore.Report aggregates them per tenant and cross-tenant
// (the `rl usage` command prints it).
func NewMeteringStore(db *fdb.Database) *MeteringStore {
	return resource.NewMeteringStore(db, systemSubspace("metering"))
}

// NewUsageExporter creates an exporter publishing acct's per-tenant deltas
// into db's metering directory under the given server identity:
//
//	exp := recordlayer.NewUsageExporter(acct, db, hostID)
//	go exp.Run(ctx, 30*time.Second)
func NewUsageExporter(acct *Accountant, db *fdb.Database, server string) *UsageExporter {
	return resource.NewUsageExporter(acct, NewMeteringStore(db), server, nil)
}
