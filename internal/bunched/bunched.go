// Package bunched implements the bunched map of Appendix B: an ordered map
// from (token, primary key) to an offset list, stored so that up to N
// neighboring primary keys of the same token share one key-value entry.
// Bunching amortizes the repeated key prefix across entries, the space
// optimization quantified in Table 2.
//
// Physical layout: for each bunch the key is (prefix, token, firstPK) and
// the value encodes [offsets(firstPK), pk2, offsets(pk2), ..., pkN,
// offsets(pkN)] as a packed tuple.
//
// Writes edit a bunch as bytes: an insert or delete finds its place by
// comparing encoded primary keys and splices one encoded (pk, offsets) pair
// into or out of the value (async.go). Reads decode whole bunches into
// entries. The two agree byte for byte because the tuple encoding is
// canonical — a value has one encoding, so splicing yields what
// decode-edit-encode would — and order-preserving, so comparing encoded
// primary keys orders them as tuple.Compare does.
package bunched

import (
	"bytes"
	"fmt"

	"recordlayer/internal/fdb"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// Entry is one logical (primaryKey, offsets) pair within a token's postings.
type Entry struct {
	PK      tuple.Tuple
	Offsets []int64
}

// Map is a bunched map over a subspace.
type Map struct {
	space     subspace.Subspace
	bunchSize int
}

// DefaultBunchSize is the default maximum entries per bunch (Table 2 uses 20).
const DefaultBunchSize = 20

// New creates a bunched map; bunchSize <= 0 selects the default.
func New(space subspace.Subspace, bunchSize int) *Map {
	if bunchSize <= 0 {
		bunchSize = DefaultBunchSize
	}
	return &Map{space: space, bunchSize: bunchSize}
}

// BunchSize returns the configured maximum bunch size.
func (m *Map) BunchSize() int { return m.bunchSize }

func (m *Map) key(token string, pk tuple.Tuple) []byte {
	return m.space.Pack(tuple.Tuple{token, pk})
}

// encodeBunch serializes entries[1:] after entries[0]'s offsets.
func encodeBunch(entries []Entry) []byte {
	t := make(tuple.Tuple, 0, len(entries)*2-1)
	t = append(t, offsetsTuple(entries[0].Offsets))
	for _, e := range entries[1:] {
		t = append(t, e.PK, offsetsTuple(e.Offsets))
	}
	return t.Pack()
}

func offsetsTuple(offsets []int64) tuple.Tuple {
	t := make(tuple.Tuple, len(offsets))
	for i, o := range offsets {
		t[i] = o
	}
	return t
}

// offsetsFrom converts a decoded offset list, which must be a tuple of int64s.
func offsetsFrom(e interface{}) ([]int64, bool) {
	t, ok := e.(tuple.Tuple)
	out := make([]int64, len(t))
	for i := 0; ok && i < len(t); i++ {
		out[i], ok = t[i].(int64)
	}
	return out, ok
}

// decodeBunch reconstructs the full entry list from a physical pair.
func (m *Map) decodeBunch(key, value []byte) (token string, entries []Entry, err error) {
	kt, err := m.space.Unpack(key)
	if err != nil {
		return "", nil, err
	}
	vt, err := tuple.Unpack(value)
	if err != nil {
		return "", nil, err
	}
	ok := len(kt) == 2 && len(vt)%2 == 1
	if ok {
		token, ok = kt[0].(string)
		entries = make([]Entry, (len(vt)+1)/2)
	}
	for i := 0; ok && i < len(entries); i++ {
		pk := kt[1]
		if i > 0 {
			pk = vt[2*i-1]
		}
		if entries[i].PK, ok = pk.(tuple.Tuple); ok {
			entries[i].Offsets, ok = offsetsFrom(vt[2*i])
		}
	}
	if !ok {
		return "", nil, malformed(key)
	}
	return token, entries, nil
}

func malformed(key []byte) error { return fmt.Errorf("bunched: malformed bunch at key %x", key) }

// locate finds the physical bunch that would hold (token, pk): the biggest
// physical key <= the logical key. Appendix B: "perform a range scan in
// descending order ... the first key returned is guaranteed to contain the
// data for t and pk" when present.
func (m *Map) locate(tr *fdb.Transaction, token string, pk tuple.Tuple) (physKey []byte, entries []Entry, ok bool, err error) {
	begin, _ := m.space.RangeForTuple(tuple.Tuple{token})
	end := fdb.KeyAfter(m.key(token, pk))
	kvs, _, err := tr.GetRange(begin, end, fdb.RangeOptions{Limit: 1, Reverse: true})
	if err != nil || len(kvs) == 0 {
		return nil, nil, false, err
	}
	_, entries, err = m.decodeBunch(kvs[0].Key, kvs[0].Value)
	if err != nil {
		return nil, nil, false, err
	}
	return kvs[0].Key, entries, true, nil
}

// Insert adds or replaces the offsets for (token, pk). Appendix B: inserting
// reads at most two key-value pairs and writes at most two. Built on the
// pipelined Async path, so the locate and neighbor scans share one latency
// window.
func (m *Map) Insert(tr *fdb.Transaction, token string, pk tuple.Tuple, offsets []int64) error {
	_, err := m.Async(tr).IssueInsert(nil, token, pk, offsets)[0].Apply()
	return err
}

// Get returns the offsets for (token, pk).
func (m *Map) Get(tr *fdb.Transaction, token string, pk tuple.Tuple) ([]int64, bool, error) {
	_, entries, found, err := m.locate(tr, token, pk)
	if err != nil || !found {
		return nil, false, err
	}
	for _, e := range entries {
		if tuple.Equal(e.PK, pk) {
			return e.Offsets, true, nil
		}
	}
	return nil, false, nil
}

// Delete removes (token, pk); reading and writing a single pair (App. B).
func (m *Map) Delete(tr *fdb.Transaction, token string, pk tuple.Tuple) (bool, error) {
	return m.Async(tr).IssueDelete(nil, token, pk)[0].Apply()
}

// ScanToken returns every entry for a token in primary-key order.
func (m *Map) ScanToken(tr *fdb.Transaction, token string) ([]Entry, error) {
	out, err := m.ScanTokens(tr, token)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// ScanTokens is ScanToken for several tokens, one result per token in the
// order given. Every token's range read is issued before any is awaited, so
// k tokens cost one latency window, not k.
func (m *Map) ScanTokens(tr *fdb.Transaction, tokens ...string) ([][]Entry, error) {
	futs := make([]*fdb.FutureRange, len(tokens))
	for i, token := range tokens {
		begin, end := m.space.RangeForTuple(tuple.Tuple{token})
		futs[i] = tr.GetRangeAsync(begin, end, fdb.RangeOptions{})
	}
	out := make([][]Entry, len(tokens))
	for i, fut := range futs {
		kvs, _, err := fut.Get()
		if err != nil {
			return nil, err
		}
		for j := range kvs.Len() {
			kv := kvs.At(j)
			_, entries, err := m.decodeBunch(kv.Key, kv.Value)
			if err != nil {
				return nil, err
			}
			out[i] = append(out[i], entries...)
		}
	}
	return out, nil
}

// TokenEntries pairs a token with its postings.
type TokenEntries struct {
	Token   string
	Entries []Entry
}

// ScanPrefix returns, grouped by token, every entry whose token begins with
// the given prefix (prefix matching rides on key order, §8.1).
func (m *Map) ScanPrefix(tr *fdb.Transaction, prefix string) ([]TokenEntries, error) {
	// Drop the tuple string terminator so the range covers every token that
	// extends the prefix, not just the exact token.
	packed := m.space.Pack(tuple.Tuple{prefix})
	begin := packed[:len(packed)-1]
	endPrefix, err := tuple.Strinc(begin)
	if err != nil {
		return nil, err
	}
	kvs, _, err := tr.GetRange(begin, endPrefix, fdb.RangeOptions{})
	if err != nil {
		return nil, err
	}
	var out []TokenEntries
	for _, kv := range kvs {
		token, entries, err := m.decodeBunch(kv.Key, kv.Value)
		if err != nil {
			return nil, err
		}
		if len(out) == 0 || out[len(out)-1].Token != token {
			out = append(out, TokenEntries{Token: token})
		}
		out[len(out)-1].Entries = append(out[len(out)-1].Entries, entries...)
	}
	return out, nil
}

// Compact rewrites a token's postings into maximally filled bunches. The
// paper notes deletes do not merge small bunches, but "the client can
// request compactions".
func (m *Map) Compact(tr *fdb.Transaction, token string) error {
	entries, err := m.ScanToken(tr, token)
	if err != nil {
		return err
	}
	begin, end := m.space.RangeForTuple(tuple.Tuple{token})
	if err := tr.ClearRange(begin, end); err != nil {
		return err
	}
	for i := 0; i < len(entries); i += m.bunchSize {
		j := i + m.bunchSize
		if j > len(entries) {
			j = len(entries)
		}
		bunch := entries[i:j]
		if err := tr.Set(m.key(token, bunch[0].PK), encodeBunch(bunch)); err != nil {
			return err
		}
	}
	return nil
}

// Stats summarizes physical storage for space accounting (Table 2).
type Stats struct {
	LogicalEntries int     // (token, pk) pairs
	PhysicalPairs  int     // key-value entries
	KeyBytes       int     // total key bytes
	ValueBytes     int     // total value bytes
	MeanBunchSize  float64 // logical entries per physical pair
}

// ComputeStats scans the whole map and reports storage statistics.
func (m *Map) ComputeStats(tr *fdb.Transaction) (Stats, error) {
	begin, end := m.space.Range()
	kvs, _, err := tr.Snapshot().GetRange(begin, end, fdb.RangeOptions{})
	if err != nil {
		return Stats{}, err
	}
	var s Stats
	for _, kv := range kvs {
		_, entries, err := m.decodeBunch(kv.Key, kv.Value)
		if err != nil {
			return Stats{}, err
		}
		s.PhysicalPairs++
		s.LogicalEntries += len(entries)
		s.KeyBytes += len(kv.Key)
		s.ValueBytes += len(kv.Value)
	}
	if s.PhysicalPairs > 0 {
		s.MeanBunchSize = float64(s.LogicalEntries) / float64(s.PhysicalPairs)
	}
	return s, nil
}

// Decode reconstructs a physical pair's token and entries. A pair that is not
// a well-formed bunch fails.
func (m *Map) Decode(kv fdb.KeyValue) (string, []Entry, error) {
	return m.decodeBunch(kv.Key, kv.Value)
}

// Key returns the key of the bunch that starts at (token, pk): the key a
// scrub names a posting by.
func (m *Map) Key(token string, pk tuple.Tuple) []byte { return m.key(token, pk) }

// IssueLocate issues, at snapshot isolation, the read of the bunch that holds
// (token, pk) when the map has it; Find resolves it.
func (m *Map) IssueLocate(tr *fdb.Transaction, token string, pk tuple.Tuple) *fdb.FutureRange {
	begin, _ := m.space.RangeForTuple(tuple.Tuple{token})
	end := fdb.KeyAfter(m.key(token, pk))
	return tr.Snapshot().GetRangeAsync(begin, end, fdb.RangeOptions{Limit: 1, Reverse: true})
}

// Find returns pk's offsets in the bunch an IssueLocate read; a bunch that
// does not decode holds nothing.
func (m *Map) Find(f *fdb.FutureRange, pk tuple.Tuple) ([]int64, bool, error) {
	kvs, _, err := f.Get()
	if err != nil || kvs.Len() == 0 {
		return nil, false, err
	}
	kv := kvs.At(0)
	if _, entries, err := m.decodeBunch(kv.Key, kv.Value); err == nil {
		for _, e := range entries {
			if tuple.Equal(e.PK, pk) {
				return e.Offsets, true, nil
			}
		}
	}
	return nil, false, nil
}

// Rewrite replaces the bunch at key, one of token's, with entries, which must
// be in primary key order and lie between that bunch's neighbours: the bunch
// is cleared when none is left, and moves to its new first primary key when
// that changed.
func (m *Map) Rewrite(tr *fdb.Transaction, key []byte, token string, entries []Entry) error {
	if len(entries) == 0 {
		return tr.Clear(key)
	}
	to := m.key(token, entries[0].PK)
	if err := tr.Set(to, encodeBunch(entries)); err != nil || bytes.Equal(to, key) {
		return err
	}
	return tr.Clear(key)
}
