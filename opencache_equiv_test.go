package recordlayer

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"recordlayer/internal/core"
	"recordlayer/internal/directory"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/keyspace"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/query"
	"recordlayer/internal/tuple"
)

// The open-cache equivalence test: two servers with warm caches on one
// database and a server that caches nothing on a second database run the same
// seeded history, with the same commit faults dealt to both. The caches may
// change what is read, never what is seen or written: every step's result is
// equal and the two keyspaces are byte-identical after every step.

func equivSchemas() (doc *message.Descriptor, byVersion map[int]*metadata.MetaData) {
	doc = message.MustDescriptor("Doc",
		message.Field("id", 1, message.TypeInt64),
		message.Field("tag", 2, message.TypeString),
		message.Field("n", 3, message.TypeInt64),
	)
	base := func(version int) *metadata.Builder {
		return metadata.NewBuilder(version).
			SetStoreRecordVersions(true). // commit versions land in the keyspace: histories must align exactly
			AddRecordType(doc, keyexpr.Field("id")).
			AddIndex(&metadata.Index{Name: "by_tag", Type: metadata.IndexValue,
				Expression: keyexpr.Then(keyexpr.Field("tag"), keyexpr.Field("id"))}, "Doc")
	}
	return doc, map[int]*metadata.MetaData{
		1: base(1).MustBuild(),
		2: base(2).AddIndex(&metadata.Index{Name: "by_n", Type: metadata.IndexValue,
			Expression: keyexpr.Field("n"), AddedVersion: 2}, "Doc").MustBuild(),
	}
}

// equivServer is one server process: a directory layer (with its name cache)
// and one provider (with its state cache) per schema version it may run.
type equivServer struct {
	providers map[int]*StoreProvider
}

func newEquivServer(t *testing.T, mds map[int]*metadata.MetaData, cacheless bool) *equivServer {
	t.Helper()
	ks, err := keyspace.New(directory.NewLayer(),
		keyspace.NewConstant("app", "equiv").Add(
			keyspace.NewInterned("container").Add(
				keyspace.NewDirectory("user", keyspace.TypeInt64))))
	if err != nil {
		t.Fatal(err)
	}
	s := &equivServer{providers: map[int]*StoreProvider{}}
	for v, md := range mds {
		// A low inline-build limit makes the upgrade leave by_n disabled on
		// the fuller stores and build it inline on the rest.
		p, err := NewStoreProvider(md, ks, []string{"app", "container", "user"},
			ProviderOptions{Config: core.Config{InlineBuildLimit: 4}})
		if err != nil {
			t.Fatal(err)
		}
		if cacheless {
			p.states = nil // a nil state cache always misses
		}
		s.providers[v] = p
	}
	return s
}

// equivStep is one operation of the history, generated once and applied to
// both databases.
type equivStep struct {
	name      string
	version   int // schema version of the provider that runs it
	container string
	user      int64
	write     bool  // Run (commits) rather than ReadRun
	pinBack   int64 // > 0: SetReadVersion to this many versions before the newest
	body      func(ctx context.Context, tr *fdb.Transaction, p *StoreProvider) (string, error)
	// race, when set, replaces body: it runs its own transactions, through
	// two servers' providers at once.
	race func(db *fdb.Database, a, b *StoreProvider) string
}

func (st equivStep) run(t *testing.T, db *fdb.Database, r *Runner, p *StoreProvider) string {
	t.Helper()
	fn := func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		if st.pinBack > 0 {
			tr.SetReadVersion(max(db.ReadVersion()-st.pinBack, 0))
		}
		return st.body(ctx, tr, p)
	}
	run := r.ReadRun
	if st.write {
		run = r.Run
	}
	out, err := run(context.Background(), fn)
	if err != nil {
		return "error: " + err.Error()
	}
	return out.(string)
}

// describe renders everything a client can see of an open store.
func describeStore(ctx context.Context, s *Store) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v", s.Header())
	for _, ix := range s.MetaData().Indexes() {
		fmt.Fprintf(&b, " %s=%v", ix.Name, s.IndexState(ix.Name))
	}
	cur, err := s.ExecuteQuery(ctx, Query{RecordTypes: []string{"Doc"}}, ExecuteProperties{})
	if err != nil {
		return "", err
	}
	err = cur.ForEach(func(r *Record) error {
		id, _ := r.Message.Get("id")
		tag, _ := r.Message.Get("tag")
		n, _ := r.Message.Get("n")
		fmt.Fprintf(&b, " (%v %v %v @%x)", id, tag, n, r.Version.Bytes())
		return nil
	})
	return b.String(), err
}

func genEquivStep(rng *rand.Rand, doc *message.Descriptor, upgraded bool) equivStep {
	containers := []string{"c0", "c1"}
	tags := []string{"red", "green", "blue"}
	newDoc := func() *message.Message {
		return message.New(doc).MustSet("id", int64(rng.Intn(8))).
			MustSet("tag", tags[rng.Intn(3)]).MustSet("n", int64(rng.Intn(50)))
	}
	st := equivStep{version: 1, container: containers[rng.Intn(2)], user: int64(rng.Intn(4))}
	if upgraded && rng.Intn(5) > 0 {
		st.version = 2 // one in five requests still comes from a server on the old schema
	}
	withStore := func(f func(ctx context.Context, s *Store) (string, error)) {
		c, u := st.container, st.user
		st.body = func(ctx context.Context, tr *fdb.Transaction, p *StoreProvider) (string, error) {
			s, err := p.Open(ctx, tr, c, u)
			if err != nil {
				return "", err
			}
			return f(ctx, s)
		}
	}
	indexes := []string{"by_tag"}
	if st.version == 2 {
		indexes = append(indexes, "by_n")
	}
	ixName := indexes[rng.Intn(len(indexes))]
	switch k := rng.Intn(120); {
	case k < 14:
		// Twice in one read-only transaction: if the store is missing, the
		// first open buffers a header that never commits and the second reads
		// it back — a state that must not reach any cache.
		st.name = "open twice"
		c, u := st.container, st.user
		st.body = func(ctx context.Context, tr *fdb.Transaction, p *StoreProvider) (string, error) {
			if _, err := p.Open(ctx, tr, c, u); err != nil {
				return "", err
			}
			s, err := p.Open(ctx, tr, c, u)
			if err != nil {
				return "", err
			}
			return describeStore(ctx, s)
		}
	case k < 44:
		st.name, st.write = "save", true
		var recs []*message.Message
		for i := rng.Intn(3) + 1; i > 0; i-- {
			recs = append(recs, newDoc())
		}
		withStore(func(_ context.Context, s *Store) (string, error) {
			saved, err := s.SaveRecords(recs)
			return fmt.Sprint(len(saved)), err
		})
	case k < 52:
		st.name, st.write = "delete record", true
		pk := tuple.Tuple{int64(rng.Intn(8))}
		withStore(func(_ context.Context, s *Store) (string, error) {
			ok, err := s.DeleteRecord(pk)
			return fmt.Sprint(ok), err
		})
	case k < 74:
		st.name = "query"
		q := Query{RecordTypes: []string{"Doc"}, Filter: query.Field("tag").Equals(tags[rng.Intn(3)])}
		if st.version == 2 && rng.Intn(2) == 0 {
			q.Filter = query.Field("n").LessThan(int64(rng.Intn(50)))
		}
		withStore(func(ctx context.Context, s *Store) (string, error) {
			cur, err := s.ExecuteQuery(ctx, q, ExecuteProperties{})
			if err != nil {
				return "", err
			}
			var ids []string
			err = cur.ForEach(func(r *Record) error {
				id, _ := r.Message.Get("id")
				ids = append(ids, fmt.Sprint(id))
				return nil
			})
			return strings.Join(ids, ","), err
		})
	case k < 82:
		mark := rng.Intn(3)
		st.name, st.write = fmt.Sprintf("mark %s %d", ixName, mark), true
		withStore(func(_ context.Context, s *Store) (string, error) {
			switch mark {
			case 0:
				return "", s.MarkIndexWriteOnly(ixName)
			case 1:
				return "", s.MarkIndexReadable(ixName)
			}
			return "", s.MarkIndexDisabled(ixName)
		})
	case k < 85:
		st.name, st.write = "set user version", true
		v := rng.Intn(9)
		withStore(func(_ context.Context, s *Store) (string, error) { return "", s.SetUserVersion(v) })
	case k < 87:
		st.name, st.write = "delete all records", true
		withStore(func(_ context.Context, s *Store) (string, error) { return "", s.DeleteAllRecords() })
	case k < 92:
		st.name, st.write = "delete store", true
		c, u := st.container, st.user
		if rng.Intn(4) == 0 {
			c = "never-interned"
		}
		reopen := rng.Intn(2) == 0
		st.body = func(ctx context.Context, tr *fdb.Transaction, p *StoreProvider) (string, error) {
			if err := p.Delete(ctx, tr, c, u); err != nil || !reopen || c == "never-interned" {
				return "", err
			}
			s, err := p.Open(ctx, tr, c, u) // recreate in the deleting transaction
			if err != nil {
				return "", err
			}
			return describeStore(ctx, s)
		}
	case k < 100:
		st.name, st.pinBack = "read at an older version", int64(rng.Intn(6)+1)
		withStore(describeStore)
	case k < 106:
		// One transaction opens, and may create, several tenants; every open
		// after the first follows a buffered write.
		st.name, st.write = "open several", true
		type target struct {
			container string
			user      int64
			rec       *message.Message
		}
		var targets []target
		for i := rng.Intn(2) + 2; i > 0; i-- {
			targets = append(targets, target{containers[rng.Intn(2)], int64(rng.Intn(4)), newDoc()})
		}
		st.body = func(ctx context.Context, tr *fdb.Transaction, p *StoreProvider) (string, error) {
			var out []string
			for _, x := range targets {
				s, err := p.Open(ctx, tr, x.container, x.user)
				if err != nil {
					return "", err
				}
				d, err := describeStore(ctx, s)
				if err != nil {
					return "", err
				}
				out = append(out, d)
				if _, err := s.SaveRecord(x.rec); err != nil {
					return "", err
				}
			}
			return strings.Join(out, " | "), nil
		}
	case k < 114:
		// Open (creating the store if it is missing) and change its state in
		// the same transaction, then open it again there.
		change := rng.Intn(4)
		st.name, st.write = fmt.Sprintf("open and change %d", change), true
		c, u, v := st.container, st.user, rng.Intn(9)
		st.body = func(ctx context.Context, tr *fdb.Transaction, p *StoreProvider) (string, error) {
			s, err := p.Open(ctx, tr, c, u)
			if err != nil {
				return "", err
			}
			switch change {
			case 0:
				err = s.SetUserVersion(v)
			case 1:
				err = s.MarkIndexWriteOnly(ixName)
			case 2:
				err = s.MarkIndexDisabled(ixName)
			default:
				err = p.Delete(ctx, tr, c, u)
			}
			if err != nil {
				return "", err
			}
			if s, err = p.Open(ctx, tr, c, u); err != nil {
				return "", err
			}
			return describeStore(ctx, s)
		}
	default:
		// Two servers create one new tenant at once: the second to commit
		// conflicts. Then each saves to it again, the winner through what its
		// creating commit cached.
		st.name, st.write = "two servers create one tenant", true
		c, u := st.container, 100+rng.Int63n(1<<20)
		recs := []*message.Message{newDoc(), newDoc(), newDoc(), newDoc()}
		st.race = func(db *fdb.Database, a, b *StoreProvider) string {
			ctx := context.Background()
			var out []string
			note := func(s string, err error) {
				if err != nil {
					s = "error: " + err.Error()
				}
				out = append(out, s)
			}
			// save opens the tenant through p in tr, describes it and saves rec.
			save := func(p *StoreProvider, tr *fdb.Transaction, rec *message.Message) {
				s, err := p.Open(ctx, tr, c, u)
				d := ""
				if err == nil {
					d, err = describeStore(ctx, s)
				}
				if err == nil {
					_, err = s.SaveRecord(rec)
				}
				if err != nil {
					tr.Cancel()
				}
				note(d, err)
			}
			servers := []*StoreProvider{a, b}
			trs := []*fdb.Transaction{db.CreateTransaction(), db.CreateTransaction()}
			for i, p := range servers {
				save(p, trs[i], recs[i])
			}
			for _, tr := range trs {
				note("committed", tr.Commit())
			}
			for i, p := range servers {
				tr := db.CreateTransaction()
				save(p, tr, recs[2+i])
				note("committed", tr.Commit())
			}
			return strings.Join(out, "; ")
		}
	}
	return st
}

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
	for seed := int64(1); seed <= 40; seed++ {
		doc, mds := equivSchemas()
		rng := rand.New(rand.NewSource(seed))
		// Each database deals commit faults from one seeded stream: injected
		// conflicts, which the runner retries, and commit_unknown_result,
		// applied or not. The caches change no commit, so both streams deal
		// the same fault to the same commit.
		var injectors []*fdb.FaultInjector
		faulty := func() *fdb.Database {
			inj := fdb.NewFaultInjector(fdb.FaultConfig{Seed: seed, PCommitNotCommitted: 0.05, PCommitUnknown: 0.1})
			inj.Disable() // until the setup below is done
			injectors = append(injectors, inj)
			return fdb.Open(&fdb.Options{Faults: inj})
		}
		cachedDB, plainDB := faulty(), faulty()
		servers := []*equivServer{newEquivServer(t, mds, false), newEquivServer(t, mds, false)}
		noBackoff := RunnerOptions{Sleep: func(ctx context.Context, _ time.Duration) error { return ctx.Err() }}
		cachedRunner, plainRunner := NewRunner(cachedDB, noBackoff), NewRunner(plainDB, noBackoff)

		// Container names are interned up front by one fresh directory layer
		// per database, so both allocate the same ids: which id a name gets
		// depends on the allocating layer's candidate stream, and the history
		// below must not depend on which server happened to go first.
		for _, db := range []*fdb.Database{cachedDB, plainDB} {
			layer := directory.NewLayer()
			_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
				for _, c := range []string{"c0", "c1"} {
					if _, err := layer.Intern(tr, c); err != nil {
						return nil, err
					}
				}
				return nil, nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, inj := range injectors {
			inj.Enable()
		}

		upgraded := false
		for i := 0; i < steps; i++ {
			if !upgraded && i > steps/4 && rng.Intn(20) == 0 {
				upgraded = true // the fleet starts deploying schema version 2
			}
			st := genEquivStep(rng, doc, upgraded)
			srv := servers[rng.Intn(len(servers))]
			// The twin is a brand-new server every step: no state cache, and
			// a directory cache that has seen nothing.
			plain := func() *StoreProvider { return newEquivServer(t, mds, true).providers[st.version] }
			var got, want string
			if st.race != nil {
				got = st.race(cachedDB, servers[0].providers[st.version], servers[1].providers[st.version])
				want = st.race(plainDB, plain(), plain())
			} else {
				got = st.run(t, cachedDB, cachedRunner, srv.providers[st.version])
				want = st.run(t, plainDB, plainRunner, plain())
			}
			if got != want {
				t.Fatalf("seed %d step %d (%s, schema v%d, %s/%d):\n cached:   %s\n uncached: %s",
					seed, i, st.name, st.version, st.container, st.user, got, want)
			}
			if cv, pv := cachedDB.ReadVersion(), plainDB.ReadVersion(); cv != pv {
				t.Fatalf("seed %d step %d (%s): commit histories diverged: version %d vs %d", seed, i, st.name, cv, pv)
			}
			// After every step, not only at the end: a later write can hide
			// an earlier difference, such as a header a cache wrongly said
			// was there.
			a, b := dumpKeyspace(t, cachedDB), dumpKeyspace(t, plainDB)
			if len(a) != len(b) {
				t.Fatalf("seed %d step %d (%s): %d keys with caches, %d without", seed, i, st.name, len(a), len(b))
			}
			for j := range a {
				if !bytes.Equal(a[j].Key, b[j].Key) || !bytes.Equal(a[j].Value, b[j].Value) {
					t.Fatalf("seed %d step %d (%s): keyspaces differ at pair %d:\n cached:   %x = %x\n uncached: %x = %x",
						seed, i, st.name, j, a[j].Key, a[j].Value, b[j].Key, b[j].Value)
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
}
