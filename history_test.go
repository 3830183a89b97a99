package recordlayer

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"recordlayer/internal/core"
	"recordlayer/internal/cursor"
	"recordlayer/internal/directory"
	"recordlayer/internal/fdb"
	"recordlayer/internal/history"
	"recordlayer/internal/index"
	"recordlayer/internal/keyspace"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/plan"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// The store interpreter of internal/history's ops, and the model test on it.
// An op runs against real providers through a harness that holds what a
// client keeps between ops: the read version after each op, and each
// tenant's paged query in progress.

// server is one server process: a directory layer (with its name cache) and
// one provider (with its state cache) per schema version.
type server struct {
	providers map[int]*StoreProvider
}

// newServer builds a server whose providers plan with PreferIndexIntersection
// set to prefer; a cacheless one keeps no store state across transactions.
func newServer(t testing.TB, prefer, cacheless bool, opts ProviderOptions) *server {
	t.Helper()
	ks := historyKeySpace()
	opts.Config.InlineBuildLimit = history.InlineBuildLimit
	opts.Planner = plan.Config{PreferIndexIntersection: prefer}
	s := &server{providers: map[int]*StoreProvider{}}
	for _, v := range []int{1, 2} {
		p, err := NewStoreProvider(history.Schema(v), ks, tenantPath, opts)
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

// historyKeySpace is a server's keyspace: a tenant's store lives at
// /app:history/container:<interned name>/user:<id> (tenantPath).
func historyKeySpace() *keyspace.KeySpace {
	ks, err := keyspace.New(directory.NewLayer(),
		keyspace.NewConstant("app", "history").Add(
			keyspace.NewInterned("container").Add(
				keyspace.NewDirectory("user", keyspace.TypeInt64))))
	if err != nil {
		panic(err) // a static tree
	}
	return ks
}

var tenantPath = []string{"app", "container", "user"}

// internContainers interns the histories' containers with a fresh directory
// layer, so two databases set up this way allocate the same ids: which id a
// name gets depends on the allocating layer's candidate stream, and a history
// must not depend on which server happened to go first.
func internContainers(t testing.TB, db *fdb.Database) {
	t.Helper()
	layer := directory.NewLayer()
	_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		for _, c := range history.Containers {
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

var noBackoff = func(ctx context.Context, _ time.Duration) error { return ctx.Err() }

type paging struct {
	spec history.QuerySpec
	cont []byte
	seen map[string]bool // rows returned since the query started or its tenant was written
}

// harness runs ops against one database through one door.
type harness struct {
	db       *fdb.Database
	door     fdb.Door
	versions []int64 // the read version after setup, then after each op
	pages    map[history.Tenant]*paging
	next     *paging // the page state the attempt in flight leaves
	// onTxn, when set, sees every transaction an op makes; raw is set for
	// those made outside the door.
	onTxn func(tr *fdb.Transaction, raw bool)
	// errText renders an error inside a multi-transaction result.
	errText func(error) string
	// full renders each store's whole header and its records' versions,
	// which two runs of one history agree on but the model does not predict.
	full bool
	// conf, when set, is told the stores each transaction opens and the
	// directory path each op resolves.
	conf *history.Confinement
	ids  map[string]int64 // the interned containers' ids
}

func newHarness(db *fdb.Database, door fdb.Door, errText func(error) string) *harness {
	h := &harness{db: db, pages: map[history.Tenant]*paging{}, errText: errText}
	h.door = notingDoor{door, h}
	h.versions = []int64{db.ReadVersion()}
	return h
}

// notingDoor shows the harness every attempt's transaction.
type notingDoor struct {
	fdb.Door
	h *harness
}

func (d notingDoor) wrap(fn fdb.TransactFunc) fdb.TransactFunc {
	return func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		if d.h.onTxn != nil {
			d.h.onTxn(tr, false)
		}
		return fn(ctx, tr)
	}
}

func (d notingDoor) Run(ctx context.Context, fn fdb.TransactFunc) (interface{}, error) {
	return d.Door.Run(ctx, d.wrap(fn))
}

func (d notingDoor) RunIdempotent(ctx context.Context, fn fdb.TransactFunc) (interface{}, error) {
	//rl:idempotent passes the caller's own promise through
	return d.Door.RunIdempotent(ctx, d.wrap(fn))
}

func (d notingDoor) ReadRun(ctx context.Context, fn fdb.TransactFunc) (interface{}, error) {
	return d.Door.ReadRun(ctx, d.wrap(fn))
}

// run runs op through srv's providers (other is the second server of a race)
// and returns its rendered result.
func (h *harness) run(ctx context.Context, op history.Op, srv, other *server) (string, error) {
	defer func() { h.versions = append(h.versions, h.db.ReadVersion()) }()
	h.next = nil
	if op.Kind.Writes() {
		for _, t := range op.Tenants() {
			if pg := h.pages[t]; pg != nil {
				pg.seen = map[string]bool{} // rows may move: a repeat is no longer a fault
			}
		}
	}
	switch op.Kind {
	case history.Race:
		return h.race(op, srv.providers[op.Version], other.providers[op.Version]), nil
	case history.Build:
		return h.build(ctx, op, srv.providers[2])
	}
	p := srv.providers[op.Version]
	run := h.door.ReadRun
	if op.Kind.Writes() {
		run = h.door.Run
	}
	out, err := run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		if op.Kind == history.PinnedRead {
			tr.SetReadVersion(h.versions[max(len(h.versions)-1-op.PinBack, 0)])
		}
		return h.runOp(ctx, tr, p, op)
	})
	if op.Kind == history.QueryPage {
		delete(h.pages, op.Tenant)
		if err == nil && h.next != nil {
			h.pages[op.Tenant] = h.next
		}
	}
	if err != nil {
		return "", err
	}
	return out.(string), nil
}

// runOp runs a one-transaction op in tr.
func (h *harness) runOp(ctx context.Context, tr *fdb.Transaction, p *StoreProvider, op history.Op) (string, error) {
	t := op.Tenant
	switch op.Kind {
	case history.DeleteStore:
		if err := h.delete(ctx, tr, p, t); err != nil || !op.Reopen || t.Container == history.NeverInterned {
			return "", err
		}
	case history.OpenSeveral:
		var out []string
		for i, x := range op.Targets {
			s, err := h.open(ctx, tr, p, x)
			if err != nil {
				return "", err
			}
			d, err := h.describe(ctx, s)
			if err != nil {
				return "", err
			}
			out = append(out, d)
			if _, err := s.SaveRecord(op.Docs[i].Message()); err != nil {
				return "", err
			}
		}
		return strings.Join(out, " | "), nil
	}
	s, err := h.open(ctx, tr, p, t)
	if err != nil {
		return "", err
	}
	switch op.Kind {
	case history.OpenTwice:
		// If the store is missing, the first open buffers a header that
		// never commits and the second reads it back: a state that must not
		// reach any cache.
		if s, err = h.open(ctx, tr, p, t); err != nil {
			return "", err
		}
		return h.describe(ctx, s)
	case history.DeleteStore, history.PinnedRead, history.Upgrade:
		return h.describe(ctx, s)
	case history.Save, history.Insert:
		if op.Kind == history.Insert {
			_, err = s.InsertRecord(op.Docs[0].Message())
		} else {
			_, err = s.SaveRecord(op.Docs[0].Message())
		}
		return "1", err
	case history.SaveBatch:
		msgs := make([]*message.Message, len(op.Docs))
		for i, d := range op.Docs {
			msgs[i] = d.Message()
		}
		saved, err := s.SaveRecords(msgs)
		return fmt.Sprint(len(saved)), err
	case history.DeleteRecord:
		ok, err := s.DeleteRecord(tuple.Tuple{op.PK})
		return fmt.Sprint(ok), err
	case history.DeleteAll:
		return "", s.DeleteAllRecords()
	case history.MarkIndex:
		return "", markIndex(s, op.Index, op.Mark)
	case history.SetUserVersion:
		return "", s.SetUserVersion(op.Value)
	case history.OpenAndChange:
		// Open (creating the store if it is missing) and change its state in
		// the same transaction, then open it again there.
		switch op.Mark {
		case 0:
			err = s.SetUserVersion(op.Value)
		case 3:
			err = h.delete(ctx, tr, p, t)
		default:
			err = markIndex(s, op.Index, op.Mark*2-2)
		}
		if err != nil {
			return "", err
		}
		if s, err = h.open(ctx, tr, p, t); err != nil {
			return "", err
		}
		return h.describe(ctx, s)
	case history.QueryPage:
		return h.queryPage(ctx, s, op)
	case history.RankReads:
		return rankReads(s, op)
	case history.TextReads:
		return textReads(s, op)
	case history.Aggregate:
		sum, err := s.AggregateInt64(history.ScoreSum, tuple.Tuple{})
		if err != nil {
			return "", err
		}
		count, err := s.AggregateInt64(history.TagCount, tuple.Tuple{op.Group})
		return fmt.Sprintf("sum=%d count=%d", sum, count), err
	case history.ScanVersions:
		entries, err := entriesOf(s.ScanIndex(history.ByVersion, index.TupleRange{}, index.ScanOptions{}))
		var pks []tuple.Tuple
		for _, e := range entries {
			pks = append(pks, e.PrimaryKey())
		}
		return fmt.Sprint(pks), err
	}
	return "", fmt.Errorf("no one-transaction op %v", op.Kind)
}

// open opens t's store through p in tr.
func (h *harness) open(ctx context.Context, tr *fdb.Transaction, p *StoreProvider, t history.Tenant) (*Store, error) {
	h.opened(tr, t)
	return p.Open(ctx, tr, t.Container, t.User)
}

// delete deletes t's store through p in tr.
func (h *harness) delete(ctx context.Context, tr *fdb.Transaction, p *StoreProvider, t history.Tenant) error {
	h.opened(tr, t)
	return p.Delete(ctx, tr, t.Container, t.User)
}

// dirNodes is where newServer's directory layer keeps its nodes.
var dirNodes = subspace.FromBytes([]byte{0xFE})

// confine installs a confinement check on the harness's database. A store's
// subspace comes from its container's id, interned before the check starts,
// and its user, not from what the providers resolve: a provider that opens
// or clears a neighbour's prefix fails the check.
func (h *harness) confine(t testing.TB) {
	layer := directory.NewLayer()
	h.ids = map[string]int64{}
	for _, c := range history.Containers {
		v, err := h.db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
			id, _, err := layer.LookupInterned(tr, c)
			return id, err
		})
		if err != nil {
			t.Fatal(err)
		}
		h.ids[c] = v.(int64)
	}
	h.conf = history.Confine(h.db, history.SharedRanges()...)
}

// opened tells the confinement check that tr (nil: every transaction of the
// op) opens t's store, and that the op resolves t's directory path.
func (h *harness) opened(tr *fdb.Transaction, t history.Tenant) {
	if h.conf == nil {
		return
	}
	id, ok := h.ids[t.Container]
	if !ok {
		h.conf.Allow(nil, history.ResolvedPath(dirNodes, t.Container, -1)...)
		return
	}
	h.conf.Allow(tr, history.StoreRange(subspace.FromTuple(tuple.Tuple{"history", id, t.User})))
	h.conf.Allow(nil, history.ResolvedPath(dirNodes, t.Container, id)...)
}

// decode renders a key for a confinement failure: a store's key as its
// tenant's keyspace path and the rest of the key.
func (h *harness) decode(key []byte) string {
	n := 0
	for i := 0; i < 3; i++ { // ("history", container id, user)
		l, err := tuple.ElementLen(key[n:])
		if err != nil {
			return history.DecodeKey(key)
		}
		n += l
	}
	if t, err := tuple.Unpack(key[:n]); err == nil && t[0] == "history" {
		for name, id := range h.ids {
			if t[1] != id {
				continue
			}
			if path, err := historyKeySpace().PathFor(tenantPath, name, t[2]); err == nil {
				return path.String() + " " + history.DecodeKey(key[n:])
			}
		}
	}
	return history.DecodeKey(key)
}

// markIndex applies a MarkIndex op's mark: 0 write-only, 1 readable, 2 disabled.
func markIndex(s *Store, name string, mark int) error {
	switch mark {
	case 0:
		return s.MarkIndexWriteOnly(name)
	case 1:
		return s.MarkIndexReadable(name)
	}
	return s.MarkIndexDisabled(name)
}

// describe renders everything a client can see of an open store: its
// header's versions, index states and records, and with h.full the whole
// header and each record's version too.
func (h *harness) describe(ctx context.Context, s *Store) (string, error) {
	var states []metadata.IndexState
	for _, ix := range s.MetaData().Indexes() {
		states = append(states, s.IndexState(ix.Name))
	}
	cur, err := s.ExecuteQuery(ctx, Query{RecordTypes: []string{"Doc"}}, ExecuteProperties{})
	if err != nil {
		return "", err
	}
	var rows []string
	err = cur.ForEach(func(r *Record) error {
		row := history.Row(r.PrimaryKey, r.Message, nil)
		if h.full {
			row += fmt.Sprintf(" @%x", r.Version.Bytes())
		}
		rows = append(rows, row)
		return nil
	})
	d := history.Describe(s.Header().MetaDataVersion, s.Header().UserVersion, states, rows)
	if h.full {
		d = fmt.Sprintf("%+v %s", s.Header(), d)
	}
	return d, err
}

// queryPage reads one page of the tenant's paged query, resuming it when the
// last page was of the same spec and left a continuation. No page may hold
// more than its row limit, nor a row an earlier page of the query returned
// while its tenant was not written (but an unordered union's continuation
// forgets what it returned, so it may).
func (h *harness) queryPage(ctx context.Context, s *Store, op history.Op) (string, error) {
	q := op.Query
	pg := h.pages[op.Tenant]
	if pg == nil || pg.spec != q {
		pg = &paging{spec: q, seen: map[string]bool{}}
	}
	props := ExecuteProperties{RowLimit: q.RowLimit, Snapshot: q.Snapshot, Continuation: pg.cont}
	cur, err := s.ExecuteQuery(ctx, q.Query(), props)
	if err != nil {
		return "", err
	}
	recs, err := cur.ToList()
	if err != nil {
		return "", err
	}
	if len(recs) > q.RowLimit {
		return "", fmt.Errorf("page of %d rows over its limit %d", len(recs), q.RowLimit)
	}
	next := &paging{spec: q, cont: cur.Continuation(), seen: map[string]bool{}}
	for k := range pg.seen {
		next.seen[k] = true
	}
	rows := make([]string, len(recs))
	for i, r := range recs {
		rows[i] = history.Row(r.PrimaryKey, r.Message, q.Fields())
		k := string(r.PrimaryKey.Pack())
		if next.seen[k] && q.Shape != 7 {
			return "", fmt.Errorf("row %v repeated across pages", r.PrimaryKey)
		}
		next.seen[k] = true
	}
	end := " | more"
	if h.next = next; cur.Exhausted() {
		end, h.next = " | done", nil
	}
	return strings.Join(rows, "; ") + end, nil
}

func entriesOf(c cursor.Cursor[index.Entry], err error) ([]index.Entry, error) {
	if err != nil {
		return nil, err
	}
	var out []index.Entry
	for {
		r, err := c.Next()
		if err != nil || !r.OK {
			return out, err
		}
		out = append(out, r.Value)
	}
}

func rankReads(s *Store, op history.Op) (string, error) {
	rank, err := s.RankOfValue(history.ByScore, tuple.Tuple{op.Score})
	if err != nil {
		return "", err
	}
	by := "none"
	e, ok, err := s.ByRank(history.ByScore, op.Rank)
	if err != nil {
		return "", err
	}
	if ok {
		by = history.Entry(e.Key(), e.PrimaryKey())
	}
	entries, err := entriesOf(s.ScanByRank(history.ByScore, op.Rank, index.ScanOptions{}))
	var scan []string
	for _, e := range entries {
		scan = append(scan, history.Entry(e.Key(), e.PrimaryKey()))
	}
	return fmt.Sprintf("rank=%d by=%s scan=%v", rank, by, scan), err
}

func textReads(s *Store, op history.Op) (string, error) {
	a, b := op.Words[0], op.Words[1]
	render := func(ps []index.Posting, err error) ([]string, error) {
		var out []string
		for _, p := range ps {
			out = append(out, history.Posting(p.Token, p.PrimaryKey, p.Offsets))
		}
		return out, err
	}
	token, err := render(s.TextSearchToken(history.BodyText, a))
	if err != nil {
		return "", err
	}
	prefix, err := render(s.TextSearchPrefix(history.BodyText, a[:2]))
	if err != nil {
		return "", err
	}
	all, err := s.TextSearchAll(history.BodyText, []string{a, b}, 3)
	if err != nil {
		return "", err
	}
	phrase, err := s.TextSearchPhrase(history.BodyText, a+" "+b)
	return fmt.Sprintf("token=%v prefix=%v all=%v phrase=%v", token, prefix, all, phrase), err
}

// race runs two servers creating one new tenant at once: the second to
// commit conflicts. Then each saves to it again, the winner through what its
// creating commit cached.
func (h *harness) race(op history.Op, a, b *StoreProvider) string {
	ctx := context.Background()
	var out []string
	note := func(s string, err error) {
		if err != nil {
			s = h.errText(err)
		}
		out = append(out, s)
	}
	begin := func() *fdb.Transaction {
		tr := h.db.CreateTransaction()
		if h.onTxn != nil {
			h.onTxn(tr, true)
		}
		return tr
	}
	// save opens the tenant through p in tr, describes it and saves d.
	save := func(p *StoreProvider, tr *fdb.Transaction, d history.Doc) {
		s, err := h.open(ctx, tr, p, op.Tenant)
		desc := ""
		if err == nil {
			desc, err = h.describe(ctx, s)
		}
		if err == nil {
			_, err = s.SaveRecord(d.Message())
		}
		if err != nil {
			tr.Cancel()
		}
		note(desc, err)
	}
	servers := []*StoreProvider{a, b}
	trs := []*fdb.Transaction{begin(), begin()}
	for i, p := range servers {
		save(p, trs[i], op.Docs[i])
	}
	for _, tr := range trs {
		note("committed", tr.Commit())
	}
	for i, p := range servers {
		tr := begin()
		save(p, tr, op.Docs[2+i])
		note("committed", tr.Commit())
	}
	return strings.Join(out, "; ")
}

// build runs an online build of by_n on the tenant's store through the door.
func (h *harness) build(ctx context.Context, op history.Op, p *StoreProvider) (string, error) {
	path, err := p.ks.PathFor(p.template, op.Tenant.Container, op.Tenant.User)
	if err != nil {
		return "", err
	}
	space, err := h.door.ReadRun(ctx, func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		sp, _, err := path.LookupSubspace(tr) // the containers are interned
		return sp, err
	})
	if err != nil {
		return "", err
	}
	h.opened(nil, op.Tenant) // every build transaction opens it
	ixr := &core.OnlineIndexer{DB: h.door, MetaData: p.md, Space: space.(subspace.Subspace), IndexName: history.ByN,
		BatchSize: 3, Config: p.opts.Config}
	n, err := ixr.Build(ctx)
	return fmt.Sprintf("built %d", n), err
}

// readBack renders each of op's tenants as a read-only transaction that
// opens and describes it sees them, errors as "error" (Model.ReadBack).
func (h *harness) readBack(ctx context.Context, op history.Op, p *StoreProvider) string {
	var out []string
	for _, t := range op.Tenants() {
		if t.Container == history.NeverInterned {
			continue
		}
		d, err := h.door.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			s, err := h.open(ctx, tr, p, t)
			if err != nil {
				return nil, err
			}
			return h.describe(ctx, s)
		})
		if err != nil {
			d = "error"
		}
		out = append(out, d.(string))
	}
	return strings.Join(out, " | ")
}

// kindCounts counts the op kinds a test ran; check fails it if a kind never
// ran, since a green comparison proves nothing about an op it never made.
type kindCounts [history.NumKinds]int

func (k *kindCounts) check(t *testing.T) {
	t.Helper()
	var parts []string
	missing := false
	for kind, n := range k {
		parts = append(parts, fmt.Sprintf("%v %d", history.Kind(kind), n))
		missing = missing || n == 0
	}
	t.Logf("op kinds: %s", strings.Join(parts, ", "))
	if missing {
		t.Fatalf("an op kind never ran: %s", strings.Join(parts, ", "))
	}
}

// TestStoreAgreesWithModel runs seeded histories against a real store and
// against history.Model, an independent map of records, and compares every
// op's rendered result. Odd seeds deal commit faults and plan with
// PreferIndexIntersection. A commit whose fate is unknown forks the model
// into the side that applied it and the side that did not; a read-back of
// the op's tenants, with faults off, keeps the sides that match.
func TestStoreAgreesWithModel(t *testing.T) {
	const seeds, steps = 300, 200
	var kinds kindCounts
	for seed := int64(1); seed <= seeds; seed++ {
		ops := history.Generate(seed, steps)
		i, msg := agreeWithModel(t, seed, ops, &kinds)
		if i < 0 {
			continue
		}
		// The shortest failing prefix: histories are prefix-stable, so the
		// seed re-run truncated fails first at the shortest one.
		k := i + 1
		for n := 1; n <= i; n++ {
			if j, _ := agreeWithModel(t, seed, ops[:n], nil); j >= 0 {
				k = n
				break
			}
		}
		var b strings.Builder
		for j, op := range ops[:k] {
			fmt.Fprintf(&b, "\n %3d %v", j, op)
		}
		t.Fatalf("seed %d op %d (%v): %s\nshortest failing prefix, %d ops:%s", seed, i, ops[i].Kind, msg, k, b.String())
	}
	kinds.check(t)
}

// keep adds m to the models still in agreement unless one of them is the same.
func keep(models []*history.Model, m *history.Model) []*history.Model {
	for _, k := range models {
		if k.Same(m) {
			return models
		}
	}
	return append(models, m)
}

// agreeWithModel runs ops on a new database and a new model. It returns the
// index of the first op they disagree on and how, or -1.
func agreeWithModel(t *testing.T, seed int64, ops []history.Op, kinds *kindCounts) (int, string) {
	prefer := seed%2 == 1
	var inj *fdb.FaultInjector
	opts := &fdb.Options{}
	if seed%2 == 1 {
		inj = fdb.NewFaultInjector(fdb.FaultConfig{Seed: seed, PCommitNotCommitted: 0.05, PCommitUnknown: 0.1})
		opts.Faults = inj
	}
	setFaults := func(on bool) {
		if inj != nil && on {
			inj.Enable()
		} else if inj != nil {
			inj.Disable()
		}
	}
	setFaults(false)
	db := fdb.Open(opts)
	internContainers(t, db)
	servers := []*server{newServer(t, prefer, false, ProviderOptions{}), newServer(t, prefer, false, ProviderOptions{})}
	h := newHarness(db, NewRunner(db, RunnerOptions{Sleep: noBackoff}), func(error) string { return "error" })
	h.confine(t)
	models := []*history.Model{history.NewModel(prefer)}
	ctx := context.Background()
	for i, op := range ops {
		if kinds != nil {
			kinds[op.Kind]++
		}
		// A race's raw commits are not retried, so a fault would decide its
		// result; the model follows the store there only without faults.
		setFaults(op.Kind != history.Race)
		srv := servers[op.Server]
		out, err := h.run(ctx, op, srv, servers[1-op.Server])
		if cerr := h.conf.Check(h.decode); cerr != nil {
			return i, "tenant confinement: " + cerr.Error()
		}
		if IsMaybeCommitted(err) {
			setFaults(false)
			back := h.readBack(ctx, op, srv.providers[op.Version])
			if cerr := h.conf.Check(h.decode); cerr != nil {
				return i, "tenant confinement, reading back: " + cerr.Error()
			}
			var kept []*history.Model
			var sides []string
			for _, m := range models {
				applied, skipped := m.Clone(), m
				applied.Run(op)
				skipped.Skip(op)
				for _, c := range []*history.Model{applied, skipped} {
					if b := c.ReadBack(op); b == back {
						kept = keep(kept, c)
					} else {
						sides = append(sides, b)
					}
				}
			}
			if len(kept) == 0 {
				return i, fmt.Sprintf("unknown commit: the store reads back\n %s\nand neither side of the model does:\n %s",
					back, strings.Join(sides, "\n "))
			}
			if len(kept) > 64 {
				return i, fmt.Sprintf("unknown commits left %d sides of the model that no read has told apart", len(kept))
			}
			models = kept
			continue
		}
		got := out
		if err != nil {
			got = "error"
		}
		var kept []*history.Model
		var want string
		for _, m := range models {
			if w := m.Run(op); w == got {
				kept = keep(kept, m)
			} else if want == "" {
				want = w
			}
		}
		if len(kept) == 0 {
			detail := ""
			if err != nil {
				detail = " (" + err.Error() + ")"
			}
			return i, fmt.Sprintf("\n store: %s%s\n model: %s", got, detail, want)
		}
		models = kept
	}
	return -1, ""
}
