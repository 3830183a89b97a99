package history

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"strings"

	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/query"
	"recordlayer/internal/text"
	"recordlayer/internal/tuple"
)

// Model is an independent record store: per tenant, a map of records plus
// each index's contents, kept by the rules the paper gives each index type
// and nothing else. It answers every op with the string the store
// interpreter renders for it, errors as "error".
//
// An index's contents are kept, not recomputed on every read, because a
// disabled index is not maintained: marked readable again, it serves what it
// held. Versions are the model's own commit order: (commit sequence, user
// version of the save within its transaction).
type Model struct {
	prefer  bool // the planner's PreferIndexIntersection
	tenants map[Tenant]*store
	seq     int64               // commits so far
	history []map[Tenant]*store // committed state after each op, for pinned reads
	pages   map[Tenant]page     // each tenant's paged query in progress
	resumes int                 // builds that went on from a stopped one's progress
}

// NewModel returns an empty model of stores whose provider plans with
// PreferIndexIntersection set to prefer.
func NewModel(prefer bool) *Model {
	m := &Model{prefer: prefer, tenants: map[Tenant]*store{}, pages: map[Tenant]page{}}
	m.history = []map[Tenant]*store{m.tenants}
	return m
}

// Clone returns an independent copy; committed stores are immutable and shared.
func (m *Model) Clone() *Model {
	c := *m
	c.history = append([]map[Tenant]*store(nil), m.history...)
	c.pages = maps.Clone(m.pages)
	return &c
}

// Run applies op, committing what it writes if it succeeds, and renders its
// result.
func (m *Model) Run(op Op) string {
	out, err := m.run(op)
	m.history = append(m.history, m.tenants)
	if err != nil {
		return "error"
	}
	return out
}

// Skip records op as having changed nothing: the not-applied side of a
// commit whose fate is unknown, or an op that failed cleanly. Its commit
// sequence number is spent all the same, so the two sides of an unknown
// commit number later commits alike and can meet again. A skipped page ends
// its query, as a failed one does.
func (m *Model) Skip(op Op) {
	m.seq++
	m.history = append(m.history, m.tenants)
	if op.Kind == QueryPage {
		delete(m.pages, op.Tenant)
	}
}

// Resumes counts the builds that went on from a stopped build's progress.
func (m *Model) Resumes() int { return m.resumes }

// Same reports whether o answers every future op as m does: the same stores,
// paged queries, commit count, and the states a pinned read can reach. Two
// sides of an unknown commit that are the same need not both be kept.
func (m *Model) Same(o *Model) bool {
	recent := func(h []map[Tenant]*store) []map[Tenant]*store { return h[max(len(h)-1-MaxPinBack, 0):] }
	return m.prefer == o.prefer && m.seq == o.seq && reflect.DeepEqual(m.tenants, o.tenants) &&
		reflect.DeepEqual(m.pages, o.pages) && reflect.DeepEqual(recent(m.history), recent(o.history))
}

// ReadBack renders what a read-only transaction that opens and describes
// each of op's tenants at op's schema version sees, the way the store
// interpreter's read-back does: it decides which side of an unknown commit
// the store took.
func (m *Model) ReadBack(op Op) string {
	var out []string
	for _, t := range op.Tenants() {
		if t.Container == NeverInterned {
			continue
		}
		tx := m.begin(m.tenants)
		h, err := tx.open(t, op.Version)
		if err != nil {
			out = append(out, "error")
			continue
		}
		out = append(out, h.describe())
	}
	return strings.Join(out, " | ")
}

var errModel = errors.New("error")

func (m *Model) run(op Op) (string, error) {
	switch op.Kind {
	case Interleave:
		panic("history: an Interleave is answered with the store's verdicts, by RunInterleave")
	case Race:
		return m.race(op), nil
	case Build:
		return m.build(op)
	case Scrub:
		return m.scrub(op)
	case PinnedRead:
		base := m.history[max(len(m.history)-1-op.PinBack, 0)]
		h, err := m.begin(base).open(op.Tenant, op.Version)
		if err != nil {
			return "", err
		}
		return h.describe(), nil
	}
	tx := m.begin(m.tenants)
	out, err := tx.apply(op)
	if err == nil && op.Kind.Writes() {
		tx.commit()
	}
	if err != nil && op.Kind == QueryPage {
		delete(m.pages, op.Tenant) // a failed page ends its query
	}
	return out, err
}

// page is a paged query in progress: its spec and where the next page resumes.
type page struct {
	spec QuerySpec
	cont any
}

// ---------------------------------------------------------------- stores

type rec struct {
	doc Doc
	ver tuple.Tuple // (commit sequence, user version)
}

type store struct {
	meta, user int
	records    map[int64]rec
	states     map[string]metadata.IndexState    // every state but readable
	entries    map[string]map[string]tuple.Tuple // VALUE, RANK, VERSION: packed (key, pk) → (key, pk)
	postings   map[string]map[int64][]int64      // TEXT: token → pk → offsets
	aggregates map[string]int64                  // SUM, COUNT, MAX_EVER: index name and group → value
	progress   map[string]int64                  // a stopped online build: index name → the last primary key indexed
}

func newStore(version int) *store {
	return &store{meta: version, records: map[int64]rec{}, states: map[string]metadata.IndexState{},
		entries: map[string]map[string]tuple.Tuple{}, postings: map[string]map[int64][]int64{},
		aggregates: map[string]int64{}, progress: map[string]int64{}}
}

func (s *store) clone() *store {
	c := *s
	c.records = maps.Clone(s.records)
	c.states = maps.Clone(s.states)
	c.entries = make(map[string]map[string]tuple.Tuple, len(s.entries))
	for k, v := range s.entries {
		c.entries[k] = maps.Clone(v)
	}
	c.postings = make(map[string]map[int64][]int64, len(s.postings))
	for k, v := range s.postings {
		c.postings[k] = maps.Clone(v)
	}
	c.aggregates = maps.Clone(s.aggregates)
	c.progress = maps.Clone(s.progress)
	return &c
}

func (s *store) state(ix string) metadata.IndexState {
	if st, ok := s.states[ix]; ok {
		return st
	}
	return metadata.StateReadable
}

// sorted returns an index's entries in key order.
func (s *store) sorted(ix string) []tuple.Tuple {
	keys := make([]string, 0, len(s.entries[ix]))
	for k := range s.entries[ix] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]tuple.Tuple, len(keys))
	for i, k := range keys {
		out[i] = s.entries[ix][k]
	}
	return out
}

// keys returns the index keys (without primary key) a record contributes.
func keys(ix string, r *rec) []tuple.Tuple {
	if r == nil {
		return nil
	}
	d := r.doc
	switch ix {
	case ByTag:
		return []tuple.Tuple{{d.Tag}}
	case ByKindLevel:
		return []tuple.Tuple{{d.Kind, d.Level}}
	case ByLabel:
		out := make([]tuple.Tuple, len(d.Labels))
		for i, l := range d.Labels {
			out[i] = tuple.Tuple{l}
		}
		return out
	case BySlug:
		return []tuple.Tuple{{d.Slug}}
	case ByScore:
		return []tuple.Tuple{{d.Score}}
	case ByVersion:
		return []tuple.Tuple{r.ver}
	case ByN:
		return []tuple.Tuple{{d.N}}
	}
	return nil
}

func entrySet(ix string, r *rec) map[string]tuple.Tuple {
	out := map[string]tuple.Tuple{}
	for _, k := range keys(ix, r) {
		e := append(append(tuple.Tuple{}, k...), r.doc.ID)
		out[string(e.Pack())] = e
	}
	return out
}

var tokenizer, _ = text.Lookup("whitespace")

// positions groups a body's tokens into their offsets.
func positions(r *rec) map[string][]int64 {
	out := map[string][]int64{}
	if r != nil {
		for _, t := range tokenizer.Tokenize(r.doc.Body) {
			out[t.Text] = append(out[t.Text], t.Offset)
		}
	}
	return out
}

// maintain updates every index the schema version maintains for a record
// changing from old to new (either may be nil): an index gives up the
// entries only old has and gains those only new has; a disabled index is
// left alone.
func (s *store) maintain(version int, old, new *rec) {
	for _, ix := range Schema(version).Indexes() {
		if s.state(ix.Name) == metadata.StateDisabled {
			continue
		}
		switch ix.Type {
		case metadata.IndexText:
			oldPos, newPos := positions(old), positions(new)
			for tok := range oldPos {
				if _, ok := newPos[tok]; !ok {
					delete(s.postings[tok], old.doc.ID)
				}
			}
			for tok, offs := range newPos {
				if slices.Equal(oldPos[tok], offs) {
					continue // §6: an unchanged entry is left alone
				}
				if s.postings[tok] == nil {
					s.postings[tok] = map[int64][]int64{}
				}
				s.postings[tok][new.doc.ID] = offs
			}
		case metadata.IndexSum:
			if old != nil {
				s.aggregates[ScoreSum] -= old.doc.Score
			}
			if new != nil {
				s.aggregates[ScoreSum] += new.doc.Score
			}
		case metadata.IndexCount:
			if old != nil {
				s.aggregates[TagCount+"/"+old.doc.Tag]--
			}
			if new != nil {
				s.aggregates[TagCount+"/"+new.doc.Tag]++
			}
		case metadata.IndexMaxEver:
			// The greatest score ever saved: a delete leaves it.
			if top, ok := s.aggregates[ScoreMax]; new != nil && (!ok || new.doc.Score > top) {
				s.aggregates[ScoreMax] = new.doc.Score
			}
		default:
			oldE, newE := map[string]tuple.Tuple{}, map[string]tuple.Tuple{}
			if old != nil {
				oldE = entrySet(ix.Name, old)
			}
			if new != nil {
				newE = entrySet(ix.Name, new)
			}
			if s.entries[ix.Name] == nil {
				s.entries[ix.Name] = map[string]tuple.Tuple{}
			}
			for k := range oldE {
				if _, ok := newE[k]; !ok {
					delete(s.entries[ix.Name], k)
				}
			}
			for k, e := range newE {
				if _, ok := oldE[k]; !ok {
					s.entries[ix.Name][k] = e
				}
			}
		}
	}
}

// rebuild replaces a VALUE index's contents with every record's entries and
// makes it readable, as an inline build leaves it.
func (s *store) rebuild(ix string) {
	s.entries[ix] = map[string]tuple.Tuple{}
	delete(s.states, ix)
	delete(s.progress, ix)
	for _, r := range s.records {
		maps.Copy(s.entries[ix], entrySet(ix, &r))
	}
}

// ---------------------------------------------------------------- transactions

// txn is one transaction: it reads base and buffers the stores it writes.
// Every store it opens draws user versions from its one counter, uv.
type txn struct {
	m      *Model
	base   map[Tenant]*store
	writes map[Tenant]*store // nil: deleted
	uv     int64
}

func (m *Model) begin(base map[Tenant]*store) *txn {
	return &txn{m: m, base: base, writes: map[Tenant]*store{}}
}

func (tx *txn) get(t Tenant) *store {
	if s, ok := tx.writes[t]; ok {
		return s
	}
	return tx.base[t]
}

// writable returns the transaction's own copy of a tenant's store.
func (tx *txn) writable(t Tenant) *store {
	if s, ok := tx.writes[t]; ok {
		return s
	}
	s := tx.base[t].clone()
	tx.writes[t] = s
	return s
}

// commit installs the transaction's writes as the next commit.
func (tx *txn) commit() {
	m := tx.m
	m.seq++
	next := maps.Clone(m.tenants)
	for t, s := range tx.writes {
		if s == nil {
			delete(next, t)
		} else {
			next[t] = s
		}
	}
	m.tenants = next
}

// handle is an open store.
type handle struct {
	tx      *txn
	t       Tenant
	version int
}

// open opens, creating if missing, a tenant's store at a schema version,
// applying the upgrade a newer version brings (core.Open's rules).
func (tx *txn) open(t Tenant, version int) (*handle, error) {
	s := tx.get(t)
	switch {
	case s == nil:
		tx.writes[t] = newStore(version)
	case s.meta > version:
		return nil, errModel // stale metadata
	case s.meta < version:
		w := tx.writable(t)
		// by_n is new: readable on an empty store, built inline on a small
		// one, disabled on a fuller one.
		if n := len(w.records); n > 0 && n <= InlineBuildLimit {
			w.rebuild(ByN)
		} else if n > InlineBuildLimit {
			w.states[ByN] = metadata.StateDisabled
		}
		w.meta = version
	}
	return &handle{tx: tx, t: t, version: version}, nil
}

func (h *handle) store() *store { return h.tx.get(h.t) }
func (h *handle) w() *store     { return h.tx.writable(h.t) }

func (h *handle) save(d Doc, insert bool) error {
	s := h.w()
	old, had := s.records[d.ID]
	if had && insert {
		return errModel
	}
	if s.state(BySlug) != metadata.StateDisabled && (!had || old.doc.Slug != d.Slug) {
		for _, e := range s.entries[BySlug] {
			if e[0] == d.Slug && e[1] != d.ID {
				return errModel // uniqueness violation
			}
		}
	}
	r := rec{doc: d, ver: tuple.Tuple{h.tx.m.seq + 1, h.tx.uv}}
	h.tx.uv++
	var oldp *rec
	if had {
		oldp = &old
	}
	s.maintain(h.version, oldp, &r)
	s.records[d.ID] = r
	return nil
}

func (h *handle) deleteRecord(id int64) bool {
	s := h.store()
	old, ok := s.records[id]
	if !ok {
		return false
	}
	s = h.w()
	s.maintain(h.version, &old, nil)
	delete(s.records, id)
	return true
}

func (h *handle) deleteAll() {
	s := h.w()
	meta, user := s.meta, s.user
	*s = *newStore(meta)
	s.user = user
}

func (h *handle) mark(ix string, mark int) {
	s := h.w()
	switch mark {
	case 0:
		s.states[ix] = metadata.StateWriteOnly
	case 1:
		delete(s.states, ix)
	default:
		s.states[ix] = metadata.StateDisabled
	}
}

func (h *handle) readable(ix string) error {
	if h.store().state(ix) != metadata.StateReadable {
		return errModel
	}
	return nil
}

func (h *handle) rows() []string {
	s := h.store()
	ids := sortedRecordIDs(s)
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = Row(tuple.Tuple{id}, s.records[id].doc.Message(), nil)
	}
	return out
}

func (h *handle) describe() string {
	s := h.store()
	var states []metadata.IndexState
	for _, ix := range Schema(h.version).Indexes() {
		states = append(states, s.state(ix.Name))
	}
	return Describe(s.meta, s.user, states, h.rows())
}

// apply runs a one-transaction op.
func (tx *txn) apply(op Op) (string, error) {
	if op.Kind == DeleteStore {
		if op.Tenant.Container == NeverInterned {
			return "", nil
		}
		tx.writes[op.Tenant] = nil
		if !op.Reopen {
			return "", nil
		}
	}
	if op.Kind == OpenSeveral {
		var out []string
		for i, t := range op.Targets {
			h, err := tx.open(t, op.Version)
			if err != nil {
				return "", err
			}
			out = append(out, h.describe())
			if err := h.save(op.Docs[i], false); err != nil {
				return "", err
			}
		}
		return strings.Join(out, " | "), nil
	}
	h, err := tx.open(op.Tenant, op.Version)
	if err != nil {
		return "", err
	}
	switch op.Kind {
	case OpenTwice, DeleteStore, Upgrade:
		return h.describe(), nil
	case Save, SaveBatch, Insert:
		for _, d := range op.Docs {
			if err := h.save(d, op.Kind == Insert); err != nil {
				return "", err
			}
		}
		return fmt.Sprint(len(op.Docs)), nil
	case DeleteRecord:
		out := make([]string, len(op.PKs))
		for i, id := range op.PKs {
			out[i] = fmt.Sprint(h.deleteRecord(id))
		}
		return strings.Join(out, " "), nil
	case Increment:
		r, ok := h.store().records[op.PK]
		if !ok {
			return "none", nil
		}
		r.doc.N++
		return fmt.Sprint(r.doc.N), h.save(r.doc, false)
	case DeleteAll:
		h.deleteAll()
		return "", nil
	case MarkIndex:
		h.mark(op.Index, op.Mark)
		return "", nil
	case SetUserVersion:
		h.w().user = op.Value
		return "", nil
	case OpenAndChange:
		switch op.Mark {
		case 0:
			h.w().user = op.Value
		case 1, 2:
			h.mark(op.Index, op.Mark*2-2)
		default:
			tx.writes[op.Tenant] = nil
		}
		if h, err = tx.open(op.Tenant, op.Version); err != nil {
			return "", err
		}
		return h.describe(), nil
	case QueryPage:
		return tx.m.queryPage(h, op)
	case RankReads:
		return h.rankReads(op)
	case TextReads:
		return h.textReads(op)
	case Aggregate:
		if err := h.readable(ScoreSum); err != nil {
			return "", err
		}
		if err := h.readable(TagCount); err != nil {
			return "", err
		}
		s := h.store()
		return fmt.Sprintf("sum=%d count=%d", s.aggregates[ScoreSum], s.aggregates[TagCount+"/"+op.Group]), nil
	case ScanVersions:
		if err := h.readable(ByVersion); err != nil {
			return "", err
		}
		var pks []tuple.Tuple
		for _, e := range h.store().sorted(ByVersion) {
			pks = append(pks, e[len(e)-1:])
		}
		return fmt.Sprint(pks), nil
	}
	return "", fmt.Errorf("history: no one-transaction op %v", op.Kind)
}

// Entry renders an index entry: its key, then its primary key.
func Entry(key, pk tuple.Tuple) string { return fmt.Sprintf("%v%v", key, pk) }

func (h *handle) rankReads(op Op) (string, error) {
	if err := h.readable(ByScore); err != nil {
		return "", err
	}
	members := h.store().sorted(ByScore)
	rank := 0
	for _, e := range members {
		if e[0].(int64) < op.Score {
			rank++
		}
	}
	by := "none"
	var scan []string
	if int(op.Rank) < len(members) {
		e := members[op.Rank]
		by = Entry(e[:1], e[1:])
		for _, e := range members[op.Rank:] {
			scan = append(scan, Entry(e[:1], e[1:]))
		}
	}
	return fmt.Sprintf("rank=%d by=%s scan=%v", rank, by, scan), nil
}

// Posting renders a text-search hit.
func Posting(token string, pk tuple.Tuple, offsets []int64) string {
	return fmt.Sprintf("%s%v%v", token, pk, offsets)
}

func (h *handle) textReads(op Op) (string, error) {
	if err := h.readable(BodyText); err != nil {
		return "", err
	}
	s := h.store()
	postings := func(tok string) []string {
		var out []string
		for _, pk := range sortedPKs(s.postings[tok]) {
			out = append(out, Posting(tok, tuple.Tuple{pk}, s.postings[tok][pk]))
		}
		return out
	}
	a, b := op.Words[0], op.Words[1]
	var prefix []string
	var toks []string
	for tok, pks := range s.postings {
		if strings.HasPrefix(tok, a[:2]) && len(pks) > 0 {
			toks = append(toks, tok)
		}
	}
	sort.Strings(toks)
	for _, tok := range toks {
		prefix = append(prefix, postings(tok)...)
	}
	// within reports whether each list gives one offset so that the chosen
	// ones satisfy ok.
	within := func(ok func(x, y int64) bool) []tuple.Tuple {
		var out []tuple.Tuple
		for _, pk := range sortedPKs(s.postings[a]) {
			ys, has := s.postings[b][pk]
			if !has {
				continue
			}
			found := false
			for _, x := range s.postings[a][pk] {
				for _, y := range ys {
					found = found || ok(x, y)
				}
			}
			if found {
				out = append(out, tuple.Tuple{pk})
			}
		}
		return out
	}
	all := within(func(x, y int64) bool { return max(x, y)-min(x, y) < 3 })
	phrase := within(func(x, y int64) bool { return y == x+1 })
	return fmt.Sprintf("token=%v prefix=%v all=%v phrase=%v", postings(a), prefix, all, phrase), nil
}

func sortedPKs(m map[int64][]int64) []int64 {
	out := make([]int64, 0, len(m))
	for pk := range m {
		out = append(out, pk)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ---------------------------------------------------------------- multi-transaction ops

// RunInterleave answers an Interleave whose sub-op i the store committed when
// committed[i]: every sub-op's transaction reads at one version, and then
// they commit in op.Order. A sub-op that writes nothing or fails in its body
// is answered at that read version, since a read-only commit is a no-op
// there. A writer that committed is answered, and applied, at its place in
// the commit order, so its answer shows any write it should have conflicted
// with; one that aborted changes nothing. The first writer to commit cannot
// conflict, since nothing committed after its read version, so it is
// answered as committed whatever the store says. Each sub-op renders as its
// answer and "(committed)", as "aborted" or as "error".
func (m *Model) RunInterleave(op Op, committed []bool) string {
	base := m.tenants
	out := make([]string, len(op.Ops))
	first := true
	for _, i := range op.Order {
		sub := op.Ops[i]
		tx := m.begin(base)
		a, err := tx.apply(sub)
		if err == nil && sub.Kind.Writes() && len(tx.writes) > 0 {
			if !committed[i] && !first {
				out[i] = "aborted"
				continue
			}
			first = false
			tx = m.begin(m.tenants)
			if a, err = tx.apply(sub); err == nil {
				tx.commit()
			}
		}
		out[i] = a + " (committed)"
		if err != nil {
			out[i] = "error"
		}
	}
	m.history = append(m.history, m.tenants)
	return strings.Join(out, "; ")
}

// race answers Race: two transactions open the new tenant, describe it and
// save a record; both commit, the second conflicting if the first committed
// (both read and wrote the header). Then each server saves once more.
func (m *Model) race(op Op) string {
	var out []string
	note := func(s string, err error) {
		if err != nil {
			s = "error"
		}
		out = append(out, s)
	}
	step := func(tx *txn, d Doc) error {
		h, err := tx.open(op.Tenant, op.Version)
		desc := ""
		if err == nil {
			desc = h.describe()
			err = h.save(d, false)
		}
		note(desc, err)
		return err
	}
	txs := []*txn{m.begin(m.tenants), m.begin(m.tenants)}
	failed := make([]bool, 2)
	for i, tx := range txs {
		failed[i] = step(tx, op.Docs[i]) != nil
	}
	for i, tx := range txs {
		if failed[i] || (i == 1 && !failed[0]) {
			note("", errModel)
			continue
		}
		tx.commit()
		note("committed", nil)
	}
	for i := 0; i < 2; i++ {
		tx := m.begin(m.tenants)
		if step(tx, op.Docs[2+i]) != nil {
			note("", errModel)
			continue
		}
		tx.commit()
		note("committed", nil)
	}
	return strings.Join(out, "; ")
}

// build answers Build, one commit per transaction of the online build. The
// first opens the store without creating it (upgrading it to version 2) and,
// unless by_n is write-only already, clears it and its progress and makes it
// write-only. Each batch then indexes the next BuildBatch records in primary
// key order after the stored progress, adding their entries to what by_n
// holds, and stores the last one as progress; the batch that finds fewer
// records is the last and stores none. The last transaction makes by_n
// readable and clears the progress, and the build counts the records its
// batches read. A build stopped after StopAfter batches fails and leaves
// by_n write-only, maintained by later writes, with its progress stored; a
// later build goes on from there.
func (m *Model) build(op Op) (string, error) {
	if m.tenants[op.Tenant] == nil {
		return "", errModel
	}
	tx := m.begin(m.tenants)
	h, err := tx.open(op.Tenant, 2)
	if err != nil {
		return "", err
	}
	s := h.w()
	if s.state(ByN) != metadata.StateWriteOnly {
		s.entries[ByN] = map[string]tuple.Tuple{}
		delete(s.progress, ByN)
		s.states[ByN] = metadata.StateWriteOnly
	} else if _, ok := s.progress[ByN]; ok {
		m.resumes++
	} else if s.entries[ByN] == nil {
		s.entries[ByN] = map[string]tuple.Tuple{} // marked write-only while disabled: nothing maintained it
	}
	tx.commit()
	total, batches := 0, 0
	stopped := func() bool { return op.StopAfter > 0 && batches == op.StopAfter }
	for last := false; !last; batches++ {
		if stopped() {
			return "", errModel
		}
		tx := m.begin(m.tenants)
		s := tx.writable(op.Tenant)
		from, resumed := s.progress[ByN]
		var next []int64
		for _, id := range sortedRecordIDs(s) {
			if !resumed || id > from {
				next = append(next, id)
			}
		}
		next = next[:min(len(next), BuildBatch)]
		for _, id := range next {
			r := s.records[id]
			maps.Copy(s.entries[ByN], entrySet(ByN, &r))
		}
		if last = len(next) < BuildBatch; !last {
			s.progress[ByN] = next[len(next)-1]
		}
		tx.commit()
		total += len(next)
	}
	if stopped() {
		return "", errModel
	}
	tx = m.begin(m.tenants)
	s = tx.writable(op.Tenant)
	delete(s.states, ByN)
	delete(s.progress, ByN)
	tx.commit()
	return fmt.Sprintf("built %d", total), nil
}

// scrub answers Scrub: a scrub of each readable index of the store, opened
// at the op's schema version, counts the issues by kind; a repair then gives
// each the contents its records make, and a second scrub finds none. An
// index's issues are the differences between what it holds and what its
// records make: entries and postings one by one (a posting at other offsets
// is a mismatch), totals group by group, an absent group counting as 0. The
// MAX_EVER index is only bounded: it is missing when absent and mismatched
// when below the greatest score the records make; a repair raises it.
func (m *Model) scrub(op Op) (string, error) {
	if m.tenants[op.Tenant] == nil {
		return "", errModel
	}
	tx := m.begin(m.tenants)
	h, err := tx.open(op.Tenant, op.Version)
	if err != nil {
		return "", err
	}
	s := h.store()
	want := s.made()
	var parts []string
	var readable []*metadata.Index
	for _, ix := range Schema(op.Version).Indexes() {
		if s.state(ix.Name) != metadata.StateReadable {
			continue
		}
		readable = append(readable, ix)
		var n [3]int // dangling, missing, mismatch
		switch ix.Type {
		case metadata.IndexText:
			for tok, pks := range s.postings {
				for pk, offs := range pks {
					if wo, ok := want.postings[tok][pk]; !ok {
						n[0]++
					} else if !slices.Equal(wo, offs) {
						n[2]++
					}
				}
			}
			for tok, pks := range want.postings {
				for pk := range pks {
					if _, ok := s.postings[tok][pk]; !ok {
						n[1]++
					}
				}
			}
		case metadata.IndexMaxEver:
			// Only a bound holds: at least the greatest score the records
			// make.
			have, held := s.aggregates[ScoreMax]
			if made, ok := want.aggregates[ScoreMax]; ok && !held {
				n[1]++
			} else if ok && have < made {
				n[2]++
			}
		case metadata.IndexSum, metadata.IndexCount:
			for group := range joinKeys(s.aggregates, want.aggregates, ix.Name) {
				have, made := s.aggregates[group], want.aggregates[group]
				switch {
				case have == made:
				case made == 0:
					n[0]++
				case have == 0:
					n[1]++
				default:
					n[2]++
				}
			}
		default:
			for k := range s.entries[ix.Name] {
				if _, ok := want.entries[ix.Name][k]; !ok {
					n[0]++
				}
			}
			for k := range want.entries[ix.Name] {
				if _, ok := s.entries[ix.Name][k]; !ok {
					n[1]++
				}
			}
		}
		var counts []string
		for i, kind := range []string{"dangling", "missing", "mismatch"} {
			if n[i] > 0 {
				counts = append(counts, fmt.Sprintf("%s=%d", kind, n[i]))
			}
		}
		if counts != nil {
			parts = append(parts, ix.Name+" "+strings.Join(counts, " "))
		}
	}
	out := "clean"
	if parts != nil {
		out = strings.Join(parts, "; ")
	}
	if op.Repair {
		w := h.w()
		for _, ix := range readable {
			switch ix.Type {
			case metadata.IndexText:
				w.postings = want.postings
			case metadata.IndexMaxEver:
				have, held := w.aggregates[ScoreMax]
				if made, ok := want.aggregates[ScoreMax]; ok && (!held || have < made) {
					w.aggregates[ScoreMax] = made
				}
			case metadata.IndexSum, metadata.IndexCount:
				for group := range joinKeys(w.aggregates, want.aggregates, ix.Name) {
					w.aggregates[group] = want.aggregates[group]
				}
			default:
				w.entries[ix.Name] = want.entries[ix.Name]
			}
		}
		out += " | repaired, then clean"
	}
	tx.commit()
	return out, nil
}

// made returns a store holding, in every index, what s's records make it
// hold.
func (s *store) made() *store {
	c := newStore(s.meta)
	for _, r := range s.records {
		c.maintain(s.meta, nil, &r)
	}
	return c
}

// joinKeys returns the keys of a and b that belong to the aggregate index
// named ix.
func joinKeys(a, b map[string]int64, ix string) map[string]bool {
	out := map[string]bool{}
	for _, m := range []map[string]int64{a, b} {
		for k := range m {
			if k == ix || strings.HasPrefix(k, ix+"/") {
				out[k] = true
			}
		}
	}
	return out
}

// ---------------------------------------------------------------- queries

func (m *Model) queryPage(h *handle, op Op) (string, error) {
	spec := op.Query
	var cont any
	if pg, ok := m.pages[op.Tenant]; ok && pg.spec == spec {
		cont = pg.cont
	}
	delete(m.pages, op.Tenant)
	x := &exec{h: h, s: h.store()}
	cur := x.plan(spec, h.version, m.prefer, cont)
	var rows []string
	var last any
	for len(rows) < spec.RowLimit {
		it, ok, err := cur.next()
		if err != nil {
			return "", err
		}
		if !ok {
			return strings.Join(rows, "; ") + " | done", nil
		}
		row, err := x.row(it, spec)
		if err != nil {
			return "", err
		}
		rows, last = append(rows, row), it.cont
	}
	m.pages[op.Tenant] = page{spec, last}
	return strings.Join(rows, "; ") + " | more", nil
}

// item is one value of a model cursor: an index entry or a record, and the
// continuation that resumes after it.
type item struct {
	entry tuple.Tuple // (key..., pk); nil for a record of a scan
	pk    int64
	cont  any
}

func (it item) packedPK() string { return string(tuple.Tuple{it.pk}.Pack()) }

type mcur interface {
	next() (item, bool, error)
}

type exec struct {
	h *handle
	s *store
}

// row resolves an item to its rendered row: a covering plan renders the
// entry, any other fetches the record, which must exist.
func (x *exec) row(it item, spec QuerySpec) (string, error) {
	if fields := spec.Fields(); fields != nil {
		return Row(tuple.Tuple{it.pk}, message.New(DocType).MustSet("tag", it.entry[0]), fields), nil
	}
	r, ok := x.s.records[it.pk]
	if !ok {
		return "", errModel // an index entry points at a missing record
	}
	return Row(tuple.Tuple{it.pk}, r.doc.Message(), nil), nil
}

// plan builds the cursor of the plan the planner picks for the shape
// (TestPlanCorpus's table, with by_n for shape 13 from version 2 on).
func (x *exec) plan(q QuerySpec, version int, prefer bool, cont any) mcur {
	tagIs := func(v string) func(tuple.Tuple) bool { return func(k tuple.Tuple) bool { return k[0] == v } }
	index := func(name string, match func(tuple.Tuple) bool) func(any) mcur {
		return func(cont any) mcur { return x.index(name, match, cont) }
	}
	filter := func(c mcur, f query.Component) mcur { return x.filter(c, f) }
	rq := q.Query()
	switch q.Shape {
	case 0, 10:
		return index(ByTag, tagIs(q.A))(cont)
	case 1:
		return index(ByTag, func(k tuple.Tuple) bool { return k[0].(string) > q.A })(cont)
	case 2:
		return index(ByTag, func(k tuple.Tuple) bool { return k[0].(string) >= q.A && k[0].(string) < q.B })(cont)
	case 3:
		return index(ByKindLevel, func(k tuple.Tuple) bool { return k[0] == q.K && k[1].(int64) <= q.L })(cont)
	case 4:
		if prefer {
			return unseen(intersection(cont, index(ByTag, tagIs(q.A)), index(ByLabel, func(k tuple.Tuple) bool { return k[0] == q.B })))
		}
		return filter(index(ByTag, tagIs(q.A))(cont), query.Field("labels").OneOfThem().Equals(q.B))
	case 5:
		kl := index(ByKindLevel, func(k tuple.Tuple) bool { return k[0] == q.K && k[1] == q.L })
		if prefer {
			return intersection(cont, kl, index(ByTag, tagIs(q.A)))
		}
		return filter(kl(cont), query.Field("tag").Equals(q.A))
	case 6:
		return union(cont, index(ByTag, tagIs(q.A)), index(ByTag, tagIs(q.B)))
	case 7:
		return unseen(concat(cont, index(ByTag, tagIs(q.A)), index(ByKindLevel, func(k tuple.Tuple) bool { return k[0] == q.K })))
	case 8:
		return unseen(index(ByLabel, func(k tuple.Tuple) bool { return k[0] == q.B })(cont))
	case 9:
		return index(ByTag, func(k tuple.Tuple) bool { return strings.HasPrefix(k[0].(string), q.A[:1]) })(cont)
	case 11:
		return index(ByTag, func(tuple.Tuple) bool { return true })(cont)
	case 13:
		if version >= 2 {
			return index(ByN, func(k tuple.Tuple) bool { return k[0].(int64) < q.L })(cont)
		}
	}
	return filter(x.scan(cont), rq.Filter)
}

// sliceCur streams items; err fails the first next, as a scan of an index
// that may not serve reads does.
type sliceCur struct {
	items []item
	err   error
}

func (c *sliceCur) next() (item, bool, error) {
	if c.err != nil {
		return item{}, false, c.err
	}
	if len(c.items) == 0 {
		return item{}, false, nil
	}
	it := c.items[0]
	c.items = c.items[1:]
	return it, true, nil
}

// index scans an index's entries in key order after the continuation (the
// last entry's packed key).
func (x *exec) index(name string, match func(tuple.Tuple) bool, cont any) mcur {
	if err := x.h.readable(name); err != nil {
		return &sliceCur{err: err}
	}
	after, _ := cont.(string)
	var items []item
	for _, e := range x.s.sorted(name) {
		p := string(e.Pack())
		if match(e[:len(e)-1]) && p > after {
			items = append(items, item{entry: e, pk: e[len(e)-1].(int64), cont: p})
		}
	}
	return &sliceCur{items: items}
}

// scan reads the records in primary key order after the continuation.
func (x *exec) scan(cont any) mcur {
	after, _ := cont.(string)
	var items []item
	for _, pk := range sortedRecordIDs(x.s) {
		it := item{pk: pk}
		if p := it.packedPK(); p > after {
			it.cont = p
			items = append(items, it)
		}
	}
	return &sliceCur{items: items}
}

func sortedRecordIDs(s *store) []int64 {
	out := make([]int64, 0, len(s.records))
	for id := range s.records {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

type funcCur func() (item, bool, error)

func (f funcCur) next() (item, bool, error) { return f() }

// filter fetches each item's record and keeps those the component accepts.
func (x *exec) filter(c mcur, f query.Component) mcur {
	if f == nil {
		return c
	}
	return funcCur(func() (item, bool, error) {
		for {
			it, ok, err := c.next()
			if err != nil || !ok {
				return it, ok, err
			}
			r, has := x.s.records[it.pk]
			if !has {
				return item{}, false, errModel
			}
			if keep, err := f.Eval(r.doc.Message()); err != nil || keep {
				return it, err == nil, err
			}
		}
	})
}

// unseen drops an item whose primary key this execution already returned.
func unseen(c mcur) mcur {
	seen := map[int64]bool{}
	return funcCur(func() (item, bool, error) {
		for {
			it, ok, err := c.next()
			if err != nil || !ok || !seen[it.pk] {
				if ok {
					seen[it.pk] = true
				}
				return it, ok, err
			}
		}
	})
}

// mergeCont is a union's or an intersection's position: each child's last
// consumed continuation, or done for a child that was exhausted.
type mergeCont struct {
	parts []any
	done  []bool
}

type child struct {
	cur      mcur
	head     item
	buffered bool
	done     bool
	consumed any
}

func (c *child) peek() (*item, error) {
	if c.buffered {
		return &c.head, nil
	}
	if c.done {
		return nil, nil
	}
	it, ok, err := c.cur.next()
	if err != nil {
		return nil, err
	}
	if !ok {
		c.done = true
		return nil, nil
	}
	c.head, c.buffered = it, true
	return &c.head, nil
}

func (c *child) consume() {
	if c.buffered {
		c.consumed, c.buffered = c.head.cont, false
	}
}

func children(cont any, builders []func(any) mcur) []*child {
	kids := make([]*child, len(builders))
	mc, resumed := cont.(*mergeCont)
	for i := range kids {
		kids[i] = &child{}
		if resumed {
			kids[i].consumed, kids[i].done = mc.parts[i], mc.done[i]
		}
		if !kids[i].done {
			kids[i].cur = builders[i](kids[i].consumed)
		}
	}
	return kids
}

func composite(kids []*child) *mergeCont {
	mc := &mergeCont{}
	for _, k := range kids {
		mc.parts = append(mc.parts, k.consumed)
		mc.done = append(mc.done, k.done)
	}
	return mc
}

// union merges children ordered by primary key, each key once.
func union(cont any, builders ...func(any) mcur) mcur {
	kids := children(cont, builders)
	return funcCur(func() (item, bool, error) {
		var best *item
		for _, k := range kids {
			h, err := k.peek()
			if err != nil {
				return item{}, false, err
			}
			if h != nil && (best == nil || h.packedPK() < best.packedPK()) {
				best = h
			}
		}
		if best == nil {
			return item{}, false, nil
		}
		v, key := *best, best.packedPK()
		for _, k := range kids {
			if k.buffered && k.head.packedPK() == key {
				k.consume()
			}
		}
		v.cont = composite(kids)
		return v, true, nil
	})
}

// intersection merges children ordered by primary key, keeping keys every
// child holds.
func intersection(cont any, builders ...func(any) mcur) mcur {
	kids := children(cont, builders)
	halted := false
	return funcCur(func() (item, bool, error) {
		for !halted {
			var maxKey string
			equal := true
			for i, k := range kids {
				h, err := k.peek()
				if err != nil {
					return item{}, false, err
				}
				if h == nil {
					halted = true
					return item{}, false, nil
				}
				if key := h.packedPK(); i == 0 {
					maxKey = key
				} else if key != maxKey {
					equal = false
					maxKey = max(maxKey, key)
				}
			}
			if equal {
				v := kids[0].head
				for _, k := range kids {
					k.consume()
				}
				v.cont = composite(kids)
				return v, true, nil
			}
			for _, k := range kids {
				if k.buffered && k.head.packedPK() < maxKey {
					k.consume()
				}
			}
		}
		return item{}, false, nil
	})
}

// concatCont is a concatenation's position: the active child and its own.
type concatCont struct {
	idx  int
	part any
}

// concat streams its children one after another, building each when it is
// reached.
func concat(cont any, builders ...func(any) mcur) mcur {
	idx, part := 0, any(nil)
	if cc, ok := cont.(*concatCont); ok {
		idx, part = cc.idx, cc.part
	}
	var cur mcur
	if idx < len(builders) {
		cur = builders[idx](part)
	}
	return funcCur(func() (item, bool, error) {
		for idx < len(builders) {
			it, ok, err := cur.next()
			if err != nil {
				return item{}, false, err
			}
			if ok {
				it.cont = &concatCont{idx, it.cont}
				return it, true, nil
			}
			if idx++; idx < len(builders) {
				cur = builders[idx](nil)
			}
		}
		return item{}, false, nil
	})
}
