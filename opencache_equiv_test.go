package recordlayer

import (
	"bytes"
	"context"
	"testing"

	"recordlayer/internal/fdb"
	"recordlayer/internal/history"
)

// The open-cache equivalence test: two servers with warm caches on one
// database and a server that caches nothing on a second database run the same
// seeded history, with the same commit faults dealt to both. The caches may
// change what is read, never what is seen or written: every step's result is
// equal and the two keyspaces are byte-identical after every step.

func dumpKeyspace(t *testing.T, db *fdb.Database) []fdb.KeyValue {
	t.Helper()
	v, err := db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		kvs, _, err := tr.GetRange([]byte{}, []byte{0xFF}, fdb.RangeOptions{})
		return kvs, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return v.([]fdb.KeyValue)
}

func TestOpenCachesChangeNothingObservable(t *testing.T) {
	const steps = 250
	var hits, invalidations, dirHits int64
	var faults fdb.FaultCounts
	var kinds kindCounts
	errText := func(err error) string { return "error: " + err.Error() }
	for seed := int64(1); seed <= 40; seed++ {
		// Each database deals commit faults from one seeded stream: injected
		// conflicts, which the runner retries, and commit_unknown_result,
		// applied or not. The caches change no commit, so both streams deal
		// the same fault to the same commit.
		var injectors []*fdb.FaultInjector
		faulty := func() *fdb.Database {
			inj := fdb.NewFaultInjector(fdb.FaultConfig{Seed: seed, PCommitNotCommitted: 0.05, PCommitUnknown: 0.1})
			inj.Disable() // until the setup below is done
			injectors = append(injectors, inj)
			db := fdb.Open(&fdb.Options{Faults: inj})
			internContainers(t, db)
			return db
		}
		cachedDB, plainDB := faulty(), faulty()
		prefer := seed%2 == 1
		servers := []*server{newServer(t, prefer, false, ProviderOptions{}), newServer(t, prefer, false, ProviderOptions{})}
		// The twin is a brand-new server every step: no state cache, and a
		// directory cache that has seen nothing.
		plain := func() *server { return newServer(t, prefer, true, ProviderOptions{}) }
		runner := func(db *fdb.Database) *harness {
			h := newHarness(db, NewRunner(db, RunnerOptions{Sleep: noBackoff}), errText)
			h.full = true // versions are commit versions, equal on both databases
			return h
		}
		cached, uncached := runner(cachedDB), runner(plainDB)
		for _, inj := range injectors {
			inj.Enable()
		}

		ctx := context.Background()
		for i, op := range history.Generate(seed, steps) {
			kinds[op.Kind]++
			got, err := cached.run(ctx, op, servers[op.Server], servers[1-op.Server])
			if err != nil {
				got = errText(err)
			}
			want, err := uncached.run(ctx, op, plain(), plain())
			if err != nil {
				want = errText(err)
			}
			if got != want {
				t.Fatalf("seed %d step %d (%v):\n cached:   %s\n uncached: %s", seed, i, op, got, want)
			}
			if cv, pv := cachedDB.ReadVersion(), plainDB.ReadVersion(); cv != pv {
				t.Fatalf("seed %d step %d (%v): commit histories diverged: version %d vs %d", seed, i, op.Kind, cv, pv)
			}
			// After every step, not only at the end: a later write can hide
			// an earlier difference, such as a header a cache wrongly said
			// was there.
			a, b := dumpKeyspace(t, cachedDB), dumpKeyspace(t, plainDB)
			if len(a) != len(b) {
				t.Fatalf("seed %d step %d (%v): %d keys with caches, %d without", seed, i, op.Kind, len(a), len(b))
			}
			for j := range a {
				if !bytes.Equal(a[j].Key, b[j].Key) || !bytes.Equal(a[j].Value, b[j].Value) {
					t.Fatalf("seed %d step %d (%v): keyspaces differ at pair %d:\n cached:   %x = %x\n uncached: %x = %x",
						seed, i, op.Kind, j, a[j].Key, a[j].Value, b[j].Key, b[j].Value)
				}
			}
		}

		for _, srv := range servers {
			for _, p := range srv.providers {
				s := p.states.Stats()
				hits += s.Hits
				invalidations += s.Invalidations
			}
			h, _ := srv.providers[1].ks.DirectoryCacheStats()
			dirHits += h
		}
		if a, b := injectors[0].Counts(), injectors[1].Counts(); a != b {
			t.Fatalf("seed %d: fault schedules diverged: %+v vs %+v", seed, a, b)
		}
		c := injectors[0].Counts()
		faults.CommitsNotCommitted += c.CommitsNotCommitted
		faults.CommitsUnknown += c.CommitsUnknown
		faults.UnknownApplied += c.UnknownApplied
	}
	// A green comparison proves nothing unless the caches and faults were in
	// play.
	if hits == 0 || invalidations == 0 || dirHits == 0 {
		t.Fatalf("caches under-exercised: %d state hits, %d invalidations, %d directory hits", hits, invalidations, dirHits)
	}
	if faults.CommitsNotCommitted == 0 || faults.UnknownApplied == 0 || faults.UnknownApplied == faults.CommitsUnknown {
		t.Fatalf("faults under-exercised: %+v", faults)
	}
	t.Logf("%d state-cache hits, %d invalidations, %d directory-cache hits; faults %+v", hits, invalidations, dirHits, faults)
	kinds.check(t)
}
