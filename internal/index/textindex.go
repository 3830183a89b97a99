package index

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"recordlayer/internal/bunched"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/metadata"
	"recordlayer/internal/text"
	"recordlayer/internal/tuple"
)

// TextMaintainer implements the TEXT index type (Appendix B): an inverted
// index from tokens to the primary keys of records containing them, with
// per-occurrence offset lists, stored in a bunched map. It supports token,
// prefix, phrase and proximity queries, all maintained transactionally with
// the records themselves (§8.1).
type TextMaintainer struct {
	ix        *metadata.Index
	packer    *keyexpr.Packer
	tokenizer text.Tokenizer
	bunchSize int

	// Per-transaction pipelining state: every bunched-map mutation in one
	// transaction must flow through a single bunched.Async so its overlay
	// sees them all. Keyed by the transaction so a maintainer reused across
	// transactions starts a fresh overlay.
	asyncTr *fdb.Transaction
	async   *bunched.Async
}

// Index options understood by TEXT indexes.
const (
	OptionTokenizer = "tokenizer"
	OptionBunchSize = "bunch_size"
)

func newTextMaintainer(ix *metadata.Index) (Maintainer, error) {
	if ix.Expression.ColumnCount() != 1 {
		return nil, fmt.Errorf("index %q: text indexes cover exactly one text field", ix.Name)
	}
	tokName := ix.Option(OptionTokenizer, "whitespace")
	tok, ok := text.Lookup(tokName)
	if !ok {
		return nil, fmt.Errorf("index %q: tokenizer %q not registered", ix.Name, tokName)
	}
	bunchSize := bunched.DefaultBunchSize
	if s := ix.Option(OptionBunchSize, ""); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("index %q: invalid bunch_size %q", ix.Name, s)
		}
		bunchSize = n
	}
	return &TextMaintainer{ix: ix, packer: ix.Packer(), tokenizer: tok, bunchSize: bunchSize}, nil
}

func (m *TextMaintainer) mapFor(ctx *Context) *bunched.Map {
	return bunched.New(ctx.Space, m.bunchSize)
}

// tokenOffsets is one token of a record's text and the offsets it occurs at.
type tokenOffsets struct {
	token   string
	offsets []int64
}

// positions tokenizes the record's indexed text field into its tokens in
// byte order, each with its offsets: ascending within each entry of the
// field, entries in field order. All offset lists share one array, each
// clipped to its length.
func (m *TextMaintainer) positions(r *Record, ix *metadata.Index) ([]tokenOffsets, error) {
	var buf [keyStackLen]byte
	var spans [keyStackSpans]keyexpr.KeySpan
	keys, err := keysFor(ix, m.packer, r, keyexpr.NewKeys(buf[:], spans[:]))
	if err != nil {
		return nil, err
	}
	var toks []text.Token
	for i := 0; i < keys.Len(); i++ {
		s, ok, err := textOf(ix, keys.Key(i))
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		more := m.tokenizer.Tokenize(s)
		slices.SortFunc(more, func(a, b text.Token) int {
			return cmp.Or(strings.Compare(a.Text, b.Text), cmp.Compare(a.Offset, b.Offset))
		})
		if len(toks) == 0 {
			toks = more
			continue
		}
		// A later entry's offsets of a token follow the earlier entries'.
		toks = append(toks, more...)
		slices.SortStableFunc(toks, func(a, b text.Token) int { return strings.Compare(a.Text, b.Text) })
	}
	distinct := 0
	for i := range toks {
		if i+1 == len(toks) || toks[i+1].Text != toks[i].Text {
			distinct++
		}
	}
	out := make([]tokenOffsets, 0, distinct)
	offsets := make([]int64, len(toks))
	start := 0
	for i, tok := range toks {
		offsets[i] = tok.Offset
		if i+1 == len(toks) || toks[i+1].Text != tok.Text {
			out = append(out, tokenOffsets{token: tok.Text, offsets: offsets[start : i+1 : i+1]})
			start = i + 1
		}
	}
	return out, nil
}

// textOf reads the text of one packed key, a single column: false for a null,
// an error for a column that is not a string.
func textOf(ix *metadata.Index, key []byte) (string, bool, error) {
	if key[0] == nullCode {
		return "", false, nil
	}
	if v, n, ok := tuple.StringAt(key); ok && n == len(key) {
		return string(v), true, nil
	}
	t, err := tuple.Unpack(key)
	if err != nil {
		return "", false, err
	}
	s, ok := t[0].(string)
	if !ok {
		return "", false, fmt.Errorf("index %q: text index over non-string value %T", ix.Name, t[0])
	}
	return s, true, nil
}

// asyncFor returns the transaction's pipelining overlay.
func (m *TextMaintainer) asyncFor(ctx *Context) *bunched.Async {
	if m.asyncTr != ctx.Tr {
		m.async = m.mapFor(ctx).Async(ctx.Tr)
		m.asyncTr = ctx.Tr
	}
	return m.async
}

// UpdateAsync implements Maintainer: the boundary scans of every changed
// token's bunch rewrite are issued here; the returned Pending resolves them
// and applies the rewrites. Ops pipeline across records through the shared
// per-transaction overlay, so Pendings must be awaited in issue order. A token
// at the same offsets in the old and new text is left alone, as VALUE and
// RANK leave an unchanged entry (§6).
func (m *TextMaintainer) UpdateAsync(ctx *Context, old, new *Record) (Pending, error) {
	oldPos, err := m.positions(old, ctx.Index)
	if err != nil {
		return nil, err
	}
	newPos, err := m.positions(new, ctx.Index)
	if err != nil {
		return nil, err
	}
	n := 0
	diffTokens(oldPos, newPos, func(string) { n++ }, func(tokenOffsets) { n++ })
	if n == 0 {
		return Done, nil
	}
	a := m.asyncFor(ctx)
	ops := make([]bunched.Op, 0, n)
	diffTokens(oldPos, newPos,
		func(token string) { ops = a.IssueDelete(ops, token, old.PrimaryKey) },
		func(t tokenOffsets) { ops = a.IssueInsert(ops, t.token, new.PrimaryKey, t.offsets) })
	return pendingFunc(func() error {
		for i := range ops {
			if _, err := ops[i].Apply(); err != nil {
				return err
			}
		}
		return nil
	}), nil
}

// diffTokens calls removed with every token of old that new lacks, then
// changed with every token of new that old lacks or holds at other offsets,
// each in token order: the order reads are issued in shows in traces and
// decides which read a seeded fault lands on. Both lists are in token order,
// so each pass walks the other list alongside.
func diffTokens(old, new []tokenOffsets, removed func(string), changed func(tokenOffsets)) {
	for i, j := 0, 0; i < len(old); i++ {
		j = seek(new, j, old[i].token)
		if j == len(new) || new[j].token != old[i].token {
			removed(old[i].token)
		}
	}
	for i, j := 0, 0; j < len(new); j++ {
		i = seek(old, i, new[j].token)
		if i == len(old) || old[i].token != new[j].token || !slices.Equal(old[i].offsets, new[j].offsets) {
			changed(new[j])
		}
	}
}

// seek returns the first index at or after i whose token is not below token.
func seek(pos []tokenOffsets, i int, token string) int {
	for i < len(pos) && pos[i].token < token {
		i++
	}
	return i
}

// Posting is one text-search hit: a record and the token offsets within it.
type Posting struct {
	Token      string
	PrimaryKey tuple.Tuple
	Offsets    []int64
}

// ScanToken returns the postings for an exact token, in primary key order.
func (m *TextMaintainer) ScanToken(ctx *Context, token string) ([]Posting, error) {
	entries, err := m.mapFor(ctx).ScanToken(ctx.Tr, m.normalize(token))
	if err != nil {
		return nil, err
	}
	out := make([]Posting, len(entries))
	for i, e := range entries {
		out[i] = Posting{Token: token, PrimaryKey: e.PK, Offsets: e.Offsets}
	}
	return out, nil
}

// ScanPrefix returns postings for every token with the given prefix,
// leveraging key order for prefix matching with no additional overhead
// (§8.1).
func (m *TextMaintainer) ScanPrefix(ctx *Context, prefix string) ([]Posting, error) {
	tes, err := m.mapFor(ctx).ScanPrefix(ctx.Tr, m.normalize(prefix))
	if err != nil {
		return nil, err
	}
	var out []Posting
	for _, te := range tes {
		for _, e := range te.Entries {
			out = append(out, Posting{Token: te.Token, PrimaryKey: e.PK, Offsets: e.Offsets})
		}
	}
	return out, nil
}

// normalize runs a query token through the tokenizer so matching respects
// the same normalization as indexing.
func (m *TextMaintainer) normalize(token string) string {
	toks := m.tokenizer.Tokenize(token)
	if len(toks) == 1 {
		return toks[0].Text
	}
	return token
}

// ContainsAll returns the primary keys of records containing every token,
// optionally within a proximity window (maxDistance > 0), in primary key
// order.
func (m *TextMaintainer) ContainsAll(ctx *Context, tokens []string, maxDistance int64) ([]tuple.Tuple, error) {
	return m.containing(ctx, tokens, func(lists [][]int64) bool {
		return maxDistance <= 0 || text.MatchProximity(lists, maxDistance)
	})
}

// ContainsPhrase returns the primary keys of records containing the exact
// token sequence, in primary key order.
func (m *TextMaintainer) ContainsPhrase(ctx *Context, phrase string) ([]tuple.Tuple, error) {
	toks := m.tokenizer.Tokenize(phrase)
	tokens := make([]string, len(toks))
	for i, tok := range toks {
		tokens[i] = tok.Text
	}
	return m.containing(ctx, tokens, text.MatchPhrase)
}

// containing returns, in primary key order, the records that contain every
// token and whose offset lists (one per token, in token order) satisfy match.
// The tokens' scans are issued together: k tokens cost one latency window.
func (m *TextMaintainer) containing(ctx *Context, tokens []string, match func(lists [][]int64) bool) ([]tuple.Tuple, error) {
	if len(tokens) == 0 {
		return nil, nil
	}
	normal := make([]string, len(tokens))
	for i, tok := range tokens {
		normal[i] = m.normalize(tok)
	}
	scans, err := m.mapFor(ctx).ScanTokens(ctx.Tr, normal...)
	if err != nil {
		return nil, err
	}
	perToken := make([]map[string][]int64, len(tokens))
	for i, entries := range scans {
		perToken[i] = make(map[string][]int64, len(entries))
		for _, e := range entries {
			perToken[i][string(e.PK.Pack())] = e.Offsets
		}
	}
	var out []tuple.Tuple
	for pkPacked, offs0 := range perToken[0] {
		lists := [][]int64{offs0}
		for _, mp := range perToken[1:] {
			if offs, ok := mp[pkPacked]; ok {
				lists = append(lists, offs)
			}
		}
		if len(lists) < len(tokens) || !match(lists) {
			continue
		}
		pk, err := tuple.Unpack([]byte(pkPacked))
		if err != nil {
			return nil, err
		}
		out = append(out, pk)
	}
	sortTuples(out)
	return out, nil
}

func sortTuples(ts []tuple.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return tuple.Compare(ts[i], ts[j]) < 0 })
}

// Stats exposes the bunched map's storage statistics (Table 2).
func (m *TextMaintainer) Stats(ctx *Context) (bunched.Stats, error) {
	return m.mapFor(ctx).ComputeStats(ctx.Tr)
}

// BunchSize returns the configured bunch size.
func (m *TextMaintainer) BunchSize() int { return m.bunchSize }

// Scrub runs one batch of a scrub. A TEXT index compares posting by posting —
// (token, primary key) to offsets — and never by bunch, since where bunches
// split depends on the order of past writes. Phase 0 walks the bunches: a
// posting no record produces is dangling, and so is one out of primary key
// order within its token (a duplicate); a bunch that does not decode is one
// dangling issue. A repair rewrites the bunch without them. Phase 1 rebuilds
// records, and reports each posting the live index lacks or holds at other
// offsets; a repair inserts it.
func (m *TextMaintainer) Scrub(b *ScrubBatch) error {
	var err error
	if b.Phase == 0 {
		err = m.scrubBunches(b)
	} else {
		err = m.scrubPostings(b)
	}
	b.Done = b.Phase == 2
	return err
}

// scrubBunches is phase 0. It rereads the last bunch of the batch before,
// whose last posting orders the batch's first.
func (m *TextMaintainer) scrubBunches(b *ScrubBatch) error {
	live := m.mapFor(b.Live)
	begin, end := b.Live.Space.Range()
	limit := b.Limit
	if b.Cont != nil {
		begin, limit = b.Cont, limit+1
	}
	kvs, _, err := b.Live.Tr.Snapshot().GetRange(begin, end, fdb.RangeOptions{Limit: limit})
	if err != nil {
		return err
	}
	var prevToken string
	var prevPK []byte
	if len(kvs) > 0 && b.Cont != nil && bytes.Equal(kvs[0].Key, b.Cont) {
		if token, entries, err := live.Decode(kvs[0]); err == nil {
			prevToken, prevPK = token, entries[len(entries)-1].PK.Pack()
		}
		kvs = kvs[1:]
	}
	kvs = kvs[:min(len(kvs), b.Limit)]
	type bunch struct {
		token   string
		entries []bunched.Entry
		drop    []bool // dangling postings
		ok      bool
	}
	bunches := make([]bunch, len(kvs))
	var pks [][]byte
	for i, kv := range kvs {
		token, entries, err := live.Decode(kv)
		if err != nil {
			continue
		}
		bunches[i] = bunch{token: token, entries: entries, drop: make([]bool, len(entries)), ok: true}
		for j, e := range entries {
			pk := e.PK.Pack()
			if prevPK != nil && token == prevToken && bytes.Compare(pk, prevPK) <= 0 {
				bunches[i].drop[j] = true
				continue
			}
			prevToken, prevPK = token, pk
			pks = append(pks, pk)
		}
	}
	if err := b.Load(pks); err != nil {
		return err
	}
	rebuilt := m.mapFor(b.Scratch)
	for i, kv := range kvs {
		bn := &bunches[i]
		if !bn.ok {
			b.Entries++
			b.found(IssueDangling, kv.Key)
			if err := m.rewrite(b, live, kv.Key, "", nil); err != nil {
				return err
			}
			continue
		}
		var kept []bunched.Entry
		for j, e := range bn.entries {
			b.Entries++
			if !bn.drop[j] {
				_, has, err := rebuilt.Get(b.Scratch.Tr, bn.token, e.PK)
				if err != nil {
					return err
				}
				bn.drop[j] = !has
			}
			if bn.drop[j] {
				b.found(IssueDangling, live.Key(bn.token, e.PK))
			} else {
				kept = append(kept, e)
			}
		}
		if len(kept) < len(bn.entries) {
			if err := m.rewrite(b, live, kv.Key, bn.token, kept); err != nil {
				return err
			}
		}
	}
	var next []byte
	if len(kvs) > 0 {
		next = kvs[len(kvs)-1].Key
	}
	b.advance(next, len(kvs) < b.Limit)
	return nil
}

// rewrite repairs a bunch, when the batch repairs, to hold only kept. The
// bunch's key becomes a read conflict, so a concurrent write to the bunch
// turns the repair away instead of being overwritten.
func (m *TextMaintainer) rewrite(b *ScrubBatch, live *bunched.Map, key []byte, token string, kept []bunched.Entry) error {
	if !b.Repair {
		return nil
	}
	b.Live.Tr.AddReadConflictKey(key)
	return live.Rewrite(b.Live.Tr, key, token, kept)
}

// scrubPostings is phase 1.
func (m *TextMaintainer) scrubPostings(b *ScrubBatch) error {
	n, next, done, err := b.Records(b.Cont)
	if err != nil {
		return err
	}
	b.Read += n
	live, rebuilt := m.mapFor(b.Live), m.mapFor(b.Scratch)
	begin, end := b.Scratch.Space.Range()
	kvs, _, err := b.Scratch.Tr.GetRange(begin, end, fdb.RangeOptions{})
	if err != nil {
		return err
	}
	type posting struct {
		token string
		entry bunched.Entry
		found *fdb.FutureRange
	}
	var ps []posting
	for _, kv := range kvs {
		token, entries, err := rebuilt.Decode(kv)
		if err != nil {
			return err
		}
		for _, e := range entries {
			ps = append(ps, posting{token, e, live.IssueLocate(b.Live.Tr, token, e.PK)})
		}
	}
	var ops []bunched.Op
	for _, p := range ps {
		offsets, has, err := live.Find(p.found, p.entry.PK)
		if err != nil {
			return err
		}
		kind := IssueMissing
		if has {
			if slices.Equal(offsets, p.entry.Offsets) {
				continue
			}
			kind = IssueMismatch
		}
		b.found(kind, live.Key(p.token, p.entry.PK))
		if b.Repair {
			ops = m.asyncFor(b.Live).IssueInsert(ops, p.token, p.entry.PK, p.entry.Offsets)
		}
	}
	for i := range ops {
		if _, err := ops[i].Apply(); err != nil {
			return err
		}
	}
	b.advance(next, done)
	return nil
}
