package recordlayer

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
	db   *fdb.Database
	door fdb.Door
	// strict, when set, runs every third one-transaction write op in a
	// single attempt, so injected failures reach the caller; writes counts
	// those ops.
	strict fdb.Door
	writes int
	// misdeclare plants a bug: Increment goes through RunIdempotent, so one
	// whose commit applied but reported an unknown result is re-run and adds
	// one again.
	misdeclare bool
	versions   []int64 // the read version after setup, then after each op
	pages      map[history.Tenant]*paging
	next       *paging // the page state the attempt in flight leaves
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
	// deleted says every DeleteRecord call of the last attempt returned, so
	// an error after them came from their parked index maintenance at
	// commit.
	deleted bool
	// committed holds the last Interleave's verdicts (Model.RunInterleave),
	// and aborts says which keys each of its conflicts was on. crossed is set
	// when a conflict aborted a sub-op that shares no tenant with the writers
	// committed before it, on a key inside a store.
	committed []bool
	aborts    []string
	crossed   string
	interleaveCounts
}

// interleaveCounts is what a harness's Interleave ops did: how many ran, in
// how many two writers to one tenant both committed, and how many sub-ops
// opened from their server's state cache, then aborted on another server's
// committed header or index-state write (nested flips).
type interleaveCounts struct{ interleaves, sharedCommits, nestedFlips int }

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
	case history.Interleave:
		var servers [2]*server
		servers[op.Server], servers[1-op.Server] = srv, other
		return h.interleave(ctx, op, servers)
	case history.Build:
		return h.build(ctx, op, srv.providers[2])
	case history.Scrub:
		return h.scrub(ctx, op, srv.providers[op.Version])
	}
	p := srv.providers[op.Version]
	run := h.door.ReadRun
	switch {
	case op.Kind == history.Increment && h.misdeclare:
		//rl:idempotent deliberately false: a re-run after an applied commit increments twice
		run = h.door.RunIdempotent
	case op.Kind.Writes() && h.strict != nil && h.writes%3 == 2:
		run = h.strict.Run
	case op.Kind.Writes():
		run = h.door.Run
	}
	if op.Kind.Writes() {
		h.writes++
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
		// Each delete's index maintenance is parked until the next call or
		// the commit, so a transaction of several runs parked work across
		// calls.
		h.deleted = false
		out := make([]string, len(op.PKs))
		for i, pk := range op.PKs {
			ok, err := s.DeleteRecord(tuple.Tuple{pk})
			if err != nil {
				return "", err
			}
			out[i] = fmt.Sprint(ok)
		}
		h.deleted = true
		return strings.Join(out, " "), nil
	case history.Increment:
		r, err := s.LoadRecordByKey(tuple.Tuple{op.PK})
		if err != nil || r == nil {
			return "none", err
		}
		n, _ := r.Message.Get("n")
		_, err = s.SaveRecord(r.Message.MustSet("n", n.(int64)+1))
		return fmt.Sprint(n.(int64) + 1), err
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

// interleave runs op's sub-ops at once, each in a raw transaction of its own
// server at the first one's read version: every body in op order, then every
// commit in op.Order. A read-only kind runs in a read transaction, which
// never commits. Each sub-op renders as Model.RunInterleave renders it, a
// real conflict as "aborted".
func (h *harness) interleave(ctx context.Context, op history.Op, servers [2]*server) (string, error) {
	n := len(op.Ops)
	trs, outs, errs, cached := make([]*fdb.Transaction, n), make([]string, n), make([]error, n), make([]bool, n)
	h.committed, h.aborts, h.crossed = make([]bool, n), nil, ""
	h.interleaves++
	var rv int64
	for i, sub := range op.Ops {
		trs[i] = h.db.CreateTransaction()
		if !sub.Kind.Writes() {
			trs[i] = h.db.CreateReadTransaction()
		}
		if h.onTxn != nil {
			h.onTxn(trs[i], true)
		}
		if i > 0 {
			trs[i].SetReadVersion(rv)
		} else if v, err := trs[i].GetReadVersion(); err != nil {
			return "", err
		} else {
			rv = v
		}
	}
	provider := func(sub history.Op) *StoreProvider { return servers[sub.Server].providers[sub.Version] }
	for i, sub := range op.Ops {
		hits := cacheHits(provider(sub))
		if outs[i], errs[i] = h.runOp(ctx, trs[i], provider(sub), sub); errs[i] != nil {
			trs[i].Cancel()
		}
		cached[i] = cacheHits(provider(sub)) > hits
	}
	var wrote []history.Op // the writers committed so far
	for _, i := range op.Order {
		sub := op.Ops[i]
		if errs[i] != nil || !sub.Kind.Writes() {
			h.committed[i] = errs[i] == nil
			continue
		}
		err := trs[i].Commit()
		var fe *fdb.Error
		switch {
		case err == nil:
			h.committed[i] = true
			if v, _ := trs[i].CommittedVersion(); v > rv {
				if slices.ContainsFunc(wrote, func(w history.Op) bool { return sharesTenant(w, sub) }) {
					h.sharedCommits++
				}
				wrote = append(wrote, sub)
			}
		case errors.As(err, &fe) && fe.Conflict != nil && !fe.Injected:
			p := provider(sub)
			read, write := p.DescribeKey(fe.Conflict.Read.Begin), p.DescribeKey(fe.Conflict.Write.Begin)
			h.aborts = append(h.aborts, fmt.Sprintf("sub-op %d aborted: it read %v, a commit wrote %v", i, read, write))
			if write.Tenant != "" && !slices.ContainsFunc(wrote, func(w history.Op) bool { return sharesTenant(w, sub) }) {
				h.crossed = h.aborts[len(h.aborts)-1]
			}
			other := slices.ContainsFunc(wrote, func(w history.Op) bool { return w.Server != sub.Server })
			if cached[i] && other && (write.Subspace == "header" || strings.HasPrefix(write.Subspace, "index state ")) {
				h.nestedFlips++
			}
		default:
			errs[i] = err
		}
	}
	for i := range outs {
		switch {
		case errs[i] != nil:
			outs[i] = h.errText(errs[i])
		case h.committed[i]:
			outs[i] += " (committed)"
		default:
			outs[i] = "aborted"
		}
	}
	return strings.Join(outs, "; "), nil
}

// cacheHits is how many opens p's state cache has answered.
func cacheHits(p *StoreProvider) int64 {
	if p.states == nil {
		return 0
	}
	return p.StateCacheStats().Hits
}

func sharesTenant(a, b history.Op) bool {
	return slices.ContainsFunc(a.Tenants(), func(t history.Tenant) bool { return slices.Contains(b.Tenants(), t) })
}

// answer is m's answer to op, given the verdicts the store's run of it left.
func (h *harness) answer(m *history.Model, op history.Op) string {
	if op.Kind == history.Interleave {
		return m.RunInterleave(op, h.committed)
	}
	return m.Run(op)
}

// build runs an online build of by_n on the tenant's store through the door;
// one that draws StopAfter is cancelled by stoppingDoor.
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
	door := h.door
	if op.StopAfter > 0 {
		var stop context.CancelFunc
		ctx, stop = context.WithCancel(ctx)
		defer stop()
		door = &stoppingDoor{Door: h.door, left: 1 + op.StopAfter, stop: stop}
	}
	ixr := &core.OnlineIndexer{DB: door, MetaData: p.md, Space: space.(subspace.Subspace), IndexName: history.ByN,
		BatchSize: history.BuildBatch, Config: p.opts.Config}
	n, err := ixr.Build(ctx)
	return fmt.Sprintf("built %d", n), err
}

// stoppingDoor cancels a build's context once its first transaction and
// left−1 batches have committed; the door checks the context before every
// attempt, so the build stops before its next transaction.
type stoppingDoor struct {
	fdb.Door
	left int
	stop context.CancelFunc
}

func (d *stoppingDoor) RunIdempotent(ctx context.Context, fn fdb.TransactFunc) (interface{}, error) {
	//rl:idempotent passes the caller's own promise through
	v, err := d.Door.RunIdempotent(ctx, fn)
	if err == nil {
		if d.left--; d.left == 0 {
			d.stop()
		}
	}
	return v, err
}

// scrub scrubs every index of the tenant's store that is readable, through the
// door, and renders the issue counts by index and kind; an op that draws
// Repair then repairs them all, and scrubs again.
func (h *harness) scrub(ctx context.Context, op history.Op, p *StoreProvider) (string, error) {
	path, err := p.ks.PathFor(p.template, op.Tenant.Container, op.Tenant.User)
	if err != nil {
		return "", err
	}
	v, err := h.door.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := h.open(ctx, tr, p, op.Tenant)
		if err != nil {
			return nil, err
		}
		var names []string
		for _, ix := range s.MetaData().Indexes() {
			if s.IndexState(ix.Name) == metadata.StateReadable {
				names = append(names, ix.Name)
			}
		}
		sp, _, err := path.LookupSubspace(tr)
		return [2]interface{}{names, sp}, err
	})
	if err != nil {
		return "", err
	}
	names, space := v.([2]interface{})[0].([]string), v.([2]interface{})[1].(subspace.Subspace)
	h.opened(nil, op.Tenant) // every scrub transaction opens it
	scrubAll := func(repair bool) (string, error) {
		var parts []string
		for _, name := range names {
			scr := &core.Scrubber{DB: h.door, MetaData: p.md, Space: space, IndexName: name, BatchSize: 4,
				Repair: repair, Config: p.opts.Config}
			rep, err := scr.Scrub(ctx)
			if err != nil {
				return "", err
			}
			var counts []string
			for _, kind := range []string{ScrubDangling, ScrubMissing, ScrubMismatch} {
				if n := rep.Count(kind); n > 0 {
					counts = append(counts, fmt.Sprintf("%s=%d", kind, n))
				}
			}
			if counts != nil {
				parts = append(parts, name+" "+strings.Join(counts, " "))
			}
		}
		if parts == nil {
			return "clean", nil
		}
		return strings.Join(parts, "; "), nil
	}
	out, err := scrubAll(false)
	if err != nil || !op.Repair {
		return out, err
	}
	if _, err := scrubAll(true); err != nil {
		return "", err
	}
	again, err := scrubAll(false)
	if again == "clean" {
		again = "repaired, then clean"
	}
	return out + " | " + again, err
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

// aggregateReads fails if a transaction that committed a write was checked
// against a read that starts in a SUM, COUNT or MAX_EVER index: the paper's §6
// keeps them by atomic mutations so that their writers never conflict.
func (h *harness) aggregateReads(p *StoreProvider) error {
	return h.conf.CommittedReads(func(a fdb.Access) error {
		switch d := p.DescribeKey(a.Begin); d.Subspace {
		case "index " + history.ScoreSum, "index " + history.TagCount, "index " + history.ScoreMax:
			return fmt.Errorf("a committed writer holds a serializable %v of %v, an aggregate kept by atomic mutations (§6)", a.Kind, d)
		}
		return nil
	})
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

// modelTally is what agreeWithModel saw over the histories it ran.
type modelTally struct {
	kinds kindCounts
	// skipped counts write ops that failed cleanly on an injected fault, were
	// skipped and read back; forked, unknown commits; increments, the unknown
	// commits of Increment ops; parked, the DeleteRecord ops whose calls all
	// returned and whose commit failed on a read fault of their parked index
	// maintenance.
	skipped, forked, increments, parked int
	// stops counts builds stopped after StopAfter batches, resumes those
	// that went on from a stopped build's progress (the model's count).
	stops, resumes int
	interleaveCounts
	answers []string        // when non-nil, every op's answer, an error as its text
	faults  fdb.FaultCounts // what the last history's injector dealt
}

// check fails t unless every op kind ran and the faults reached every path
// the comparison guards.
func (tl *modelTally) check(t *testing.T) {
	t.Helper()
	tl.kinds.check(t)
	t.Logf("%d clean write failures skipped (%d of parked deletes at commit), %d unknown commits forked (%d increments)",
		tl.skipped, tl.parked, tl.forked, tl.increments)
	if tl.skipped == 0 || tl.forked == 0 || tl.increments == 0 || tl.parked == 0 {
		t.Fatal("faults under-exercised: a clean write failure, a parked delete's failure at commit, an unknown commit and an unknown increment must each happen")
	}
	t.Logf("%d builds stopped, %d resumed", tl.stops, tl.resumes)
	if tl.stops == 0 || tl.resumes == 0 {
		t.Fatal("builds under-exercised: a build must stop, and a later one resume it")
	}
	t.Logf("%d interleaves, %d with two writers to one tenant committed, %d nested flips",
		tl.interleaves, tl.sharedCommits, tl.nestedFlips)
	if tl.interleaves == 0 || tl.sharedCommits == 0 || tl.nestedFlips == 0 {
		t.Fatal("interleaves under-exercised: two writers to one tenant must both commit, and an open served from a state cache must abort on another server's state change")
	}
}

// planted is a bug agreeWithModel plants in the store's side, which the
// comparison must catch.
type planted struct {
	misdeclare bool                                   // harness.misdeclare
	door       func(fdb.Door, *fdb.Database) fdb.Door // wraps each door
}

// TestStoreAgreesWithModel runs seeded histories against a real store and
// against history.Model, an independent map of records, and compares every
// op's rendered result. Odd seeds deal commit and read faults and plan with
// PreferIndexIntersection. A commit whose fate is unknown forks the model
// into the side that applied it and the side that did not; an op that
// failed cleanly on an injected fault is skipped by every side. After either
// kind of write, a read-back of the op's tenants, with faults off, keeps the
// sides that match: none matching is a lost write or a ghost. An Interleave
// commits its sub-ops' transactions, read at one version, in its drawn order,
// and every committed writer must answer as the model does at its place in
// that order. After every op no committed writer may have read an aggregate
// index kept by atomic mutations, and no abort between sub-ops that share no
// tenant may lie inside a store.
func TestStoreAgreesWithModel(t *testing.T) {
	const seeds, steps = 300, 200
	var tl modelTally
	for seed := int64(1); seed <= seeds; seed++ {
		ops := history.Generate(seed, steps)
		i, msg := agreeWithModel(t, seed, ops, &tl, planted{})
		if i < 0 {
			continue
		}
		// The shortest failing prefix: histories are prefix-stable, so the
		// seed re-run truncated fails first at the shortest one.
		k := i + 1
		for n := 1; n <= i; n++ {
			if j, _ := agreeWithModel(t, seed, ops[:n], nil, planted{}); j >= 0 {
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
	tl.check(t)
}

// FuzzHistory runs a history the fuzzer's bytes draw through
// TestStoreAgreesWithModel's comparison. The first byte deals the odd-seed
// fault mix (bit 0) and sizes the history at 1–64 ops (bits 1–6); the rest
// take the draws (history.BytesSource), and seed 1 or 2 the draws past them.
// testdata/fuzz/FuzzHistory holds one history per op kind, ending in it.
func FuzzHistory(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		seed := int64(2 - data[0]&1)
		ops := history.GenerateFrom(history.BytesSource(data[1:], seed), int(data[0]>>1&63)+1)
		if i, msg := agreeWithModel(t, seed, ops, nil, planted{}); i >= 0 {
			var b strings.Builder
			for j, op := range ops[:i+1] {
				fmt.Fprintf(&b, "\n %3d %v", j, op)
			}
			t.Fatalf("seed %d op %d (%v): %s\nhistory:%s", seed, i, ops[i].Kind, msg, b.String())
		}
	})
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

// agreeWithModel runs ops on a new database and a new model, with bug
// planted. It returns the index of the first op they disagree on and how,
// or -1. Odd seeds deal the fault mix of a chaos storm, and every third
// one-transaction write op gets a single attempt, so injected failures reach
// the comparison.
func agreeWithModel(t *testing.T, seed int64, ops []history.Op, tl *modelTally, bug planted) (int, string) {
	prefer := seed%2 == 1
	var inj *fdb.FaultInjector
	opts := &fdb.Options{}
	if seed%2 == 1 {
		inj = fdb.NewFaultInjector(fdb.FaultConfig{Seed: seed, PCommitNotCommitted: 0.05, PCommitUnknown: 0.1,
			PReadTooOld: 0.03, PReadFuture: 0.02})
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
	door := func(o RunnerOptions) fdb.Door {
		o.Sleep = noBackoff
		if bug.door != nil {
			return bug.door(NewRunner(db, o), db)
		}
		return NewRunner(db, o)
	}
	h := newHarness(db, door(RunnerOptions{}), func(error) string { return "error" })
	h.strict, h.misdeclare = notingDoor{door(RunnerOptions{MaxAttempts: 1}), h}, bug.misdeclare
	h.confine(t)
	models := []*history.Model{history.NewModel(prefer)}
	ctx := context.Background()
	defer func() {
		if tl != nil && inj != nil {
			tl.faults = inj.Counts()
		}
		if tl != nil && len(models) > 0 {
			tl.resumes += models[0].Resumes()
		}
		if tl != nil {
			tl.interleaves += h.interleaves
			tl.sharedCommits += h.sharedCommits
			tl.nestedFlips += h.nestedFlips
		}
	}()
	for i, op := range ops {
		// The raw commits of a race or an interleave are not retried, so a
		// fault would decide their result; the model follows the store there
		// only without faults. A stopped build runs without them too: a batch
		// whose unknown commit applied is re-run by the door as the next
		// batch, unseen, so how many batches a stop leaves committed would
		// depend on the fault.
		setFaults(op.Kind != history.Race && op.Kind != history.Interleave && op.StopAfter == 0)
		srv := servers[op.Server]
		out, err := h.run(ctx, op, srv, servers[1-op.Server])
		if tl != nil {
			tl.kinds[op.Kind]++
			if op.StopAfter > 0 && errors.Is(err, context.Canceled) {
				tl.stops++
			}
		}
		if tl != nil && tl.answers != nil {
			a := out
			if err != nil {
				a = err.Error()
			}
			tl.answers = append(tl.answers, a)
		}
		if err := h.aggregateReads(servers[0].providers[1]); err != nil {
			return i, err.Error()
		}
		if cerr := h.conf.Check(h.decode); cerr != nil {
			return i, "tenant confinement: " + cerr.Error()
		}
		if op.Kind == history.Interleave && h.crossed != "" {
			return i, "one tenant's commit aborted another's: " + h.crossed
		}
		var fe *fdb.Error
		maybe := IsMaybeCommitted(err)
		if maybe || errors.As(err, &fe) && fe.Injected {
			var sides []*history.Model
			for _, m := range models {
				if maybe {
					applied := m.Clone()
					applied.Run(op)
					sides = append(sides, applied)
				}
				m.Skip(op)
				sides = append(sides, m)
			}
			models = sides
			if !op.Kind.Writes() {
				continue
			}
			setFaults(false)
			back := h.readBack(ctx, op, srv.providers[op.Version])
			if cerr := h.conf.Check(h.decode); cerr != nil {
				return i, "tenant confinement, reading back: " + cerr.Error()
			}
			models = nil
			var wrong []string
			for _, c := range sides {
				if b := c.ReadBack(op); b == back {
					models = keep(models, c)
				} else {
					wrong = append(wrong, b)
				}
			}
			if len(models) == 0 {
				what := "ghost write: the op failed cleanly (" + err.Error() + ")"
				if maybe {
					what = "unknown commit"
				}
				return i, fmt.Sprintf("%s, but the store reads back\n %s\nand no side of the model does:\n %s",
					what, back, strings.Join(wrong, "\n "))
			}
			if len(models) > 64 {
				return i, fmt.Sprintf("unknown commits left %d sides of the model that no read has told apart", len(models))
			}
			if tl != nil && maybe {
				tl.forked++
				if op.Kind == history.Increment {
					tl.increments++
				}
			} else if tl != nil {
				tl.skipped++
				if op.Kind == history.DeleteRecord && h.deleted && fe.Code != fdb.CodeNotCommitted {
					tl.parked++
				}
			}
			continue
		}
		got := out
		if err != nil {
			got = "error"
		}
		var kept []*history.Model
		var want string
		for _, m := range models {
			if w := h.answer(m, op); w == got {
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
			if op.Kind == history.Interleave && h.aborts != nil {
				detail += "\n " + strings.Join(h.aborts, "\n ")
			}
			return i, fmt.Sprintf("\n store: %s%s\n model: %s", got, detail, want)
		}
		models = kept
	}
	return -1, ""
}

// TestFaultedHistoryIsAFunctionOfTheSeed: two runs of one faulted seed deal
// the same faults and give every op the same answer, which is what makes a
// failing seed reproducible.
func TestFaultedHistoryIsAFunctionOfTheSeed(t *testing.T) {
	const seed = 7
	ops := history.Generate(seed, 200)
	a, b := modelTally{answers: []string{}}, modelTally{answers: []string{}}
	for _, tl := range []*modelTally{&a, &b} {
		if i, msg := agreeWithModel(t, seed, ops, tl, planted{}); i >= 0 {
			t.Fatalf("seed %d op %d (%v): %s", seed, i, ops[i].Kind, msg)
		}
	}
	if a.faults != b.faults || a.faults.Total() == 0 {
		t.Errorf("fault schedules diverged or dealt nothing: %+v vs %+v", a.faults, b.faults)
	}
	for i := range ops {
		if a.answers[i] != b.answers[i] {
			t.Fatalf("op %d (%v) answered twice differently:\n %s\n %s", i, ops[i].Kind, a.answers[i], b.answers[i])
		}
	}
}

// TestModelCatchesMisdeclaredIdempotency: sent through RunIdempotent, an
// Increment whose commit applied but reported an unknown result is re-run
// and adds one again. The comparison must fail on it, and only because of it.
func TestModelCatchesMisdeclaredIdempotency(t *testing.T) {
	// Seed 183 deals an applied unknown commit to an Increment of a present
	// record on the retrying door.
	const seed = 183
	ops := history.Generate(seed, 200)
	i, msg := agreeWithModel(t, seed, ops, nil, planted{misdeclare: true})
	if i < 0 || ops[i].Kind != history.Increment {
		t.Fatalf("misdeclared idempotency went undetected or failed elsewhere: op %d: %s", i, msg)
	}
	t.Logf("seed %d op %d (%v): %s", seed, i, ops[i].Kind, msg)
	var got, want int64
	if _, err := fmt.Sscanf(msg, "\n store: %d\n model: %d", &got, &want); err != nil || got != want+1 {
		t.Fatalf("want the store one past the model: %s", msg)
	}
	if i, msg := agreeWithModel(t, seed, ops, nil, planted{}); i >= 0 {
		t.Fatalf("seed %d op %d (%v) fails without the planted bug: %s", seed, i, ops[i].Kind, msg)
	}
}

// lostWrites is a door that runs each write on a transaction it cancels and
// reports success: it loses every acknowledged write.
type lostWrites struct {
	fdb.Door
	db *fdb.Database
}

func (d lostWrites) Run(ctx context.Context, fn fdb.TransactFunc) (interface{}, error) {
	tr := d.db.CreateTransaction()
	defer tr.Cancel()
	return fn(ctx, tr)
}

// ghostWrites is a door that commits each write, then reports an injected
// not_committed: every write it fails cleanly is a ghost.
type ghostWrites struct{ fdb.Door }

func (d ghostWrites) Run(ctx context.Context, fn fdb.TransactFunc) (interface{}, error) {
	v, err := d.Door.Run(ctx, fn)
	if err == nil {
		err = &fdb.Error{Code: fdb.CodeNotCommitted, Msg: "not committed (planted)", Injected: true}
	}
	return v, err
}

// TestModelCatchesLostAndGhostWrites: a door that loses acknowledged writes,
// and one that applies writes it reports cleanly failed, each fail the
// comparison.
func TestModelCatchesLostAndGhostWrites(t *testing.T) {
	const seed = 2
	ops := history.Generate(seed, 200)
	for _, c := range []struct {
		name string
		door func(fdb.Door, *fdb.Database) fdb.Door
	}{
		{"lost write", func(d fdb.Door, db *fdb.Database) fdb.Door { return lostWrites{d, db} }},
		{"ghost write", func(d fdb.Door, _ *fdb.Database) fdb.Door { return ghostWrites{d} }},
	} {
		i, msg := agreeWithModel(t, seed, ops, nil, planted{door: c.door})
		if i < 0 {
			t.Fatalf("a planted %s passed the comparison", c.name)
		}
		t.Logf("planted %s: seed %d op %d (%v): %s", c.name, seed, i, ops[i].Kind, msg)
		if c.name == "ghost write" && !strings.Contains(msg, "ghost write") {
			t.Errorf("the planted ghost write failed as something else: %s", msg)
		}
	}
}

// TestScrubOfStaleIndexesAgreesWithModel: for an index of every type left
// stale — disabled while records change, then marked readable without a
// build — the Scrub op's issue counts, its repair and its clean re-scrub agree
// with history.Model, with and without commit faults. The model must see
// issues, or the comparison proves nothing.
func TestScrubOfStaleIndexesAgreesWithModel(t *testing.T) {
	tenant := history.Tenant{Container: history.Containers[0], User: 1}
	doc := func(id int64, tag, body string, score int64) history.Doc {
		return history.Doc{ID: id, Tag: tag, Kind: "x", Level: id % 3, Labels: []string{"go"}, Slug: fmt.Sprintf("s%d", id),
			Score: score, Body: body, N: id}
	}
	for _, ix := range history.Schema(1).Indexes() {
		ops := []history.Op{
			{Kind: history.SaveBatch, Docs: []history.Doc{doc(1, "red", "ahab boat", 5), doc(2, "blue", "call dick", 7),
				doc(3, "red", "east fish east", 9), doc(4, "green", "boat", 11)}},
			{Kind: history.MarkIndex, Index: ix.Name, Mark: 2},
			{Kind: history.Save, Docs: []history.Doc{doc(2, "green", "fish call", 3)}},
			{Kind: history.Insert, Docs: []history.Doc{doc(5, "blue", "ahab", 13)}},
			{Kind: history.DeleteRecord, PKs: []int64{1}},
			{Kind: history.MarkIndex, Index: ix.Name, Mark: 1},
			{Kind: history.Scrub},
			{Kind: history.Scrub, Repair: true},
			{Kind: history.Scrub},
		}
		for i := range ops {
			ops[i].Version, ops[i].Tenant = 1, tenant
		}
		m := history.NewModel(false)
		var outs []string
		for _, op := range ops {
			outs = append(outs, m.Run(op))
		}
		if !strings.HasPrefix(outs[6], ix.Name+" ") || outs[7] != outs[6]+" | repaired, then clean" || outs[8] != "clean" {
			t.Fatalf("%s: the model scrubs a stale index as %q", ix.Name, outs[6:])
		}
		for _, seed := range []int64{2, 3} {
			if i, msg := agreeWithModel(t, seed, ops, nil, planted{}); i >= 0 {
				t.Fatalf("%s, seed %d, op %d (%v): %s", ix.Name, seed, i, ops[i], msg)
			}
		}
	}
}
