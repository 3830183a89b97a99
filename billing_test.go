package recordlayer

import (
	"context"
	"slices"
	"sort"
	"testing"

	"recordlayer/internal/fdb"
	"recordlayer/internal/history"
	"recordlayer/internal/resource"
)

// billed is what a tenant's usage and the transactions' stats are compared on.
type billed struct{ readRows, readBytes, writeRows, writeBytes int64 }

func (b billed) minus(o billed) billed {
	return billed{b.readRows - o.readRows, b.readBytes - o.readBytes, b.writeRows - o.writeRows, b.writeBytes - o.writeBytes}
}

func usageBilled(u TenantUsage) billed {
	return billed{u.ReadRecords, u.ReadBytes, u.WriteRecords, u.WriteBytes}
}

func billedByTenant(acct *Accountant) map[string]billed {
	out := map[string]billed{}
	for _, u := range acct.Snapshot() {
		out[u.Tenant] = usageBilled(u)
	}
	return out
}

// TestMeterEqualsTransactionStats: a tenant is billed exactly what the
// simulator counted for the transactions run on its behalf. Seeded histories
// of façade operations run through a Runner, with and without injected
// conflicts, in lockstep with history.Model: every op must answer as the
// model does, so an op that fails where it should not fails the test. After
// every op the acting tenant's usage must have grown by the KeysRead,
// BytesRead, Mutations and Size of every attempt the op made, and every other
// tenant's not at all. Every fourth history bills through
// ProviderOptions.Accountant instead, with no tenant on the context: then a
// transaction is billed from the provider's Open or Delete on, so a race's
// raw transactions are billed too, and an interleave's, each to its sub-op's
// tenant. An online build opens through no provider, so it runs under its
// tenant and is billed by the Runner in either mode.
//
// Every fourth history, offset by one, bills both ways: the Runner under a
// tenant named apart from the path, and ProviderOptions.Accountant too. A
// transaction the Runner metered is then billed to the Runner's tenant
// alone, while a race's raw transactions are billed from the provider on.
//
// What is billed must also be the tenant's own: after every op, in every
// mode, every key a billed attempt or raw transaction read, wrote or
// cleared must lie in a store the op's transactions opened, in its resolved
// directory path, or in history.SharedRanges() (the harness's confinement
// check). And after every history the Accountant must list exactly the
// tenants the ops ran as: a meter no op ran under is a tenant billed for
// nothing.
func TestMeterEqualsTransactionStats(t *testing.T) {
	var kinds kindCounts
	for seed := int64(0); seed < 200; seed++ {
		var inj *fdb.FaultInjector
		var opts *fdb.Options
		if seed%2 == 1 {
			inj = fdb.NewFaultInjector(fdb.FaultConfig{Seed: seed, PCommitNotCommitted: 0.3})
			opts = &fdb.Options{Faults: inj}
		}
		db := fdb.Open(opts)
		internContainers(t, db)
		acct := NewAccountant()
		fallback, both := seed%4 == 3, seed%4 == 1
		var popts ProviderOptions
		if fallback || both {
			popts.Accountant = acct
		}
		prefer := seed%2 == 1
		servers := []*server{newServer(t, prefer, false, popts), newServer(t, prefer, false, popts)}
		h := newHarness(db, NewRunner(db, RunnerOptions{Accountant: acct, Sleep: noBackoff}), func(error) string { return "error" })
		h.confine(t)
		model := history.NewModel(prefer)
		var attempts, raws []*fdb.Transaction
		h.onTxn = func(tr *fdb.Transaction, isRaw bool) {
			if isRaw {
				raws = append(raws, tr)
			} else {
				attempts = append(attempts, tr)
			}
		}
		ranAs := map[string]bool{}
		for step, op := range history.Generate(seed, 12) {
			kinds[op.Kind]++
			tenant := resource.TenantKey(op.Tenant.Container, op.Tenant.User) // the name the fallback derives from the path
			ctx, runAs := context.Background(), tenant
			raw := op.Kind == history.Race || op.Kind == history.Interleave
			switch {
			case both:
				ctx = WithTenant(ctx, "run:"+tenant)
				if !raw {
					runAs = "run:" + tenant
				}
			case !fallback || op.Kind == history.Build || op.Kind == history.Scrub:
				ctx = WithTenant(ctx, tenant)
				if raw && !fallback {
					runAs = "" // raw transactions bill no one
				}
			}
			if runAs != "" {
				ranAs[runAs] = true
			}
			// Raw commits are not retried, so a fault would decide their
			// result; the model follows the store there only without faults,
			// as in TestStoreAgreesWithModel.
			if inj != nil && raw {
				inj.Disable()
			} else if inj != nil {
				inj.Enable()
			}
			before := billedByTenant(acct)
			attempts, raws = nil, nil
			out, err := h.run(ctx, op, servers[op.Server], servers[1-op.Server])
			got := out
			if err != nil {
				got = "error"
			}
			if want := h.answer(model, op); got != want {
				t.Fatalf("seed %d step %d (%v): %v\n store: %s\n model: %s", seed, step, op, err, got, want)
			}
			if cerr := h.conf.Check(h.decode); cerr != nil {
				t.Fatalf("seed %d step %d (%v), fallback billing %v: tenant confinement: %v", seed, step, op, fallback, cerr)
			}
			// An interleave's raw transaction bills the tenant of its sub-op,
			// which it opens first.
			expect := map[string]billed{}
			bill := func(name string, tr *fdb.Transaction) {
				st, e := tr.Stats(), expect[name]
				e.readRows += int64(st.KeysRead)
				e.readBytes += int64(st.BytesRead)
				e.writeRows += int64(st.Mutations)
				e.writeBytes += int64(st.Size)
				expect[name] = e
			}
			for _, tr := range attempts {
				bill(runAs, tr)
			}
			for j, tr := range raws {
				if popts.Accountant == nil {
					break
				}
				name := runAs
				if op.Kind == history.Interleave {
					name = resource.TenantKey(op.Ops[j].Tenant.Container, op.Ops[j].Tenant.User)
					ranAs[name] = true
				}
				bill(name, tr)
			}
			for name, u := range billedByTenant(acct) {
				if got := u.minus(before[name]); got != expect[name] {
					t.Fatalf("seed %d step %d (%v, %d attempts, %d raw; result %q, %v): tenant %s billed %+v, transactions counted %+v",
						seed, step, op, len(attempts), len(raws), out, err, name, got, expect[name])
				}
			}
		}
		var want []string
		for name := range ranAs {
			want = append(want, name)
		}
		sort.Strings(want)
		if got := acct.Tenants(); !slices.Equal(got, want) {
			t.Fatalf("seed %d (fallback %v, both %v): accountant lists tenants %q, ops ran as %q", seed, fallback, both, got, want)
		}
	}
	kinds.check(t)
}
