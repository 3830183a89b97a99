package index

import (
	"bytes"
	"fmt"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/kvcursor"
	"recordlayer/internal/metadata"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// Entry is one index entry, a view of the scanned pair: the entry key past the
// index subspace — the indexed key columns, then the primary key of the record
// it points to — and the covering value columns (KeyWithValue), both still
// packed. GetRange hands a scan its pairs caller-owned, so an Entry aliases
// them rather than copying; nothing may write them afterwards. Key, PrimaryKey
// and Value decode on demand, and a merge or a fetch reads PackedPrimaryKey,
// decoding nothing. The tuple encoding is canonical and order-preserving, so
// packed primary keys compare and de-duplicate as their tuples do.
type Entry struct {
	key   []byte // key columns, then the primary key
	pkOff int    // where the primary key starts in key
	value []byte // packed covering columns; nil when there are none
}

// NewEntry packs an entry from its parts: its key columns, the primary key and
// the covering value columns (nil when there are none).
func NewEntry(key, pk, value tuple.Tuple) Entry {
	b := key.PackInto(make([]byte, 0, key.PackedCap()+pk.PackedCap()))
	e := Entry{pkOff: len(b)}
	e.key = pk.PackInto(b)
	if len(value) > 0 {
		e.value = value.Pack()
	}
	return e
}

// Key decodes the entry's indexed key columns.
func (e Entry) Key() tuple.Tuple { return unpackChecked(e.key[:e.pkOff]) }

// PrimaryKey decodes the primary key of the record the entry points at.
func (e Entry) PrimaryKey() tuple.Tuple { return unpackChecked(e.key[e.pkOff:]) }

// Value decodes the entry's covering value columns; nil when it has none.
func (e Entry) Value() tuple.Tuple { return unpackChecked(e.value) }

// PackedPrimaryKey returns the packed primary key in place. It aliases the
// scanned key, with its capacity clipped to its length so an append copies.
func (e Entry) PackedPrimaryKey() []byte { return e.key[e.pkOff:len(e.key):len(e.key)] }

// unpackChecked unpacks bytes an entry's decoder has already walked, which
// therefore unpack without error; empty bytes are a nil tuple.
func unpackChecked(b []byte) tuple.Tuple {
	if len(b) == 0 {
		return nil
	}
	t, _ := tuple.Unpack(b)
	return t
}

// splitEntryKey finds where the primary key starts in key, an entry key past
// the index subspace: the end of its keyColumns-th element. It walks every
// element without decoding one, so it fails exactly where unpacking key fails,
// and on a key of fewer than keyColumns elements.
func splitEntryKey(ix *metadata.Index, key []byte, keyColumns int) (Entry, error) {
	e, n := Entry{key: key, pkOff: len(key)}, 0
	for i := 0; i < len(key); n++ {
		if n == keyColumns {
			e.pkOff = i
		}
		l, err := tuple.ElementLen(key[i:])
		if err != nil {
			return Entry{}, err
		}
		i += l
	}
	if n < keyColumns {
		return Entry{}, fmt.Errorf("index %q: entry key has %d columns, expected >= %d", ix.Name, n, keyColumns)
	}
	return e, nil
}

// decodeEntry views a scanned pair's key as an Entry under space.
func decodeEntry(ix *metadata.Index, space subspace.Subspace, key []byte, keyColumns int) (Entry, error) {
	if !space.Contains(key) {
		return Entry{}, fmt.Errorf("index %q: entry key %x is outside the index", ix.Name, key)
	}
	return splitEntryKey(ix, key[len(space.Bytes()):], keyColumns)
}

// TupleRange selects index entries by key prefix interval. A nil bound is
// unbounded on that side. Bounds are tuple prefixes: an inclusive bound
// includes every entry extending it.
type TupleRange struct {
	Low, High     tuple.Tuple
	LowInclusive  bool
	HighInclusive bool
}

// ToKeyRange resolves the tuple range to a physical key range within space.
func (r TupleRange) ToKeyRange(space subspace.Subspace) (begin, end []byte, err error) {
	if r.Low == nil {
		begin, _ = space.Range()
	} else {
		packed := space.Pack(r.Low)
		if r.LowInclusive {
			begin = packed
		} else {
			begin, err = tuple.Strinc(packed)
			if err != nil {
				return nil, nil, err
			}
		}
	}
	if r.High == nil {
		_, end = space.Range()
	} else {
		packed := space.Pack(r.High)
		if r.HighInclusive {
			end, err = tuple.Strinc(packed)
			if err != nil {
				return nil, nil, err
			}
		} else {
			end = packed
		}
	}
	return begin, end, nil
}

// ValueMaintainer implements the default VALUE index type (§7): a mapping
// from indexed field values to record primary keys.
type ValueMaintainer struct {
	ix         *metadata.Index
	keyColumns int // entry columns stored in the key
	kwv        *keyexpr.KeyWithValueExpression
}

func newValueMaintainer(ix *metadata.Index) (Maintainer, error) {
	m := &ValueMaintainer{ix: ix, keyColumns: ix.Expression.ColumnCount()}
	if kwv, ok := ix.Expression.(keyexpr.KeyWithValueExpression); ok {
		m.kwv = &kwv
		m.keyColumns = kwv.KeyColumns()
	}
	return m, nil
}

// KeyColumns returns the number of key columns preceding the primary key in
// each entry.
func (m *ValueMaintainer) KeyColumns() int { return m.keyColumns }

// splitEntry divides an evaluated tuple into key and covering-value parts.
func (m *ValueMaintainer) splitEntry(t tuple.Tuple) (key, value tuple.Tuple) {
	if m.kwv != nil {
		return m.kwv.Split(t)
	}
	return t, nil
}

func (m *ValueMaintainer) entryKey(space subspace.Subspace, key, pk tuple.Tuple) []byte {
	return space.Pack(key.Append(pk...))
}

// ExpectedEntries returns the entries record r should have in this index:
// the evaluated key expression split into key and covering-value columns,
// each carrying r's primary key. A nil or non-applicable record has none.
// The consistency scrubber compares these against the physical entries.
func (m *ValueMaintainer) ExpectedEntries(r *Record) ([]Entry, error) {
	ts, err := entriesFor(m.ix, r)
	if err != nil {
		return nil, err
	}
	out := make([]Entry, 0, len(ts))
	for _, t := range ts {
		key, value := m.splitEntry(t)
		out = append(out, NewEntry(key, r.PrimaryKey, value))
	}
	return out, nil
}

// EntryKey returns the physical key an entry occupies within space, so the
// scrubber can probe for (and repair) individual entries.
func (m *ValueMaintainer) EntryKey(space subspace.Subspace, e Entry) []byte {
	prefix := space.Bytes()
	return append(append(make([]byte, 0, len(prefix)+len(e.key)), prefix...), e.key...)
}

// EntryValue returns the physical value an entry stores: the packed covering
// columns, or nil when the entry has none.
func (m *ValueMaintainer) EntryValue(e Entry) []byte { return e.value }

// UpdateAsync implements Maintainer. The issue phase performs all mutations
// — removals, then insertions — and issues the uniqueness probes between
// them, so a record vacating its own old key probes the post-clear state and
// the probes see the pre-insert state (data resolves at issue time). Await
// verifies the probe results; non-unique indexes return Done.
func (m *ValueMaintainer) UpdateAsync(ctx *Context, old, new *Record) (Pending, error) {
	oldEntries, err := entriesFor(ctx.Index, old)
	if err != nil {
		return nil, err
	}
	newEntries, err := entriesFor(ctx.Index, new)
	if err != nil {
		return nil, err
	}
	removed, added := diffEntries(oldEntries, newEntries)
	for _, t := range removed {
		key, _ := m.splitEntry(t)
		if err := ctx.Tr.Clear(m.entryKey(ctx.Space, key, old.PrimaryKey)); err != nil {
			return nil, err
		}
	}
	var probes []*fdb.FutureRange
	if m.ix.Unique && len(added) > 0 {
		// Issue every probe before awaiting any: a fan-out save's uniqueness
		// checks share one simulated latency window instead of paying one
		// round trip per added entry (§8). Issued after the removals so a
		// record vacating its own old key probes the post-clear state.
		probes = make([]*fdb.FutureRange, len(added))
		for i, t := range added {
			key, _ := m.splitEntry(t)
			begin, end := ctx.Space.RangeForTuple(key)
			probes[i] = ctx.Tr.GetRangeAsync(begin, end, fdb.RangeOptions{Limit: 2})
		}
	}
	for _, t := range added {
		key, value := m.splitEntry(t)
		var packed []byte
		if len(value) > 0 {
			packed = value.Pack()
		}
		if err := ctx.Tr.Set(m.entryKey(ctx.Space, key, new.PrimaryKey), packed); err != nil {
			return nil, err
		}
	}
	if probes == nil {
		return Done, nil
	}
	pk := new.PrimaryKey
	return pendingFunc(func() error {
		return m.verifyUnique(ctx, added, probes, pk)
	}), nil
}

// verifyUnique rejects any added entry whose index key was already held by a
// different primary key when its probe was issued.
func (m *ValueMaintainer) verifyUnique(ctx *Context, added []tuple.Tuple, probes []*fdb.FutureRange, pk tuple.Tuple) error {
	packed := pk.Pack()
	for i, t := range added {
		key, _ := m.splitEntry(t)
		kvs, _, err := probes[i].Get()
		if err != nil {
			return err
		}
		for _, kv := range kvs {
			e, err := m.DecodeEntry(ctx.Space, kv)
			if err != nil {
				return err
			}
			if !bytes.Equal(e.PackedPrimaryKey(), packed) {
				return fmt.Errorf("index %q: uniqueness violation on key %v (held by %v)",
					m.ix.Name, key, e.PrimaryKey())
			}
		}
	}
	return nil
}

// DecodeEntry views a physical pair as an Entry. It checks every element of
// the key and of the covering value, so a pair that does not unpack fails here
// and the Entry's decoders cannot.
func (m *ValueMaintainer) DecodeEntry(space subspace.Subspace, kv fdb.KeyValue) (Entry, error) {
	e, err := decodeEntry(m.ix, space, kv.Key, m.keyColumns)
	if err != nil {
		return Entry{}, err
	}
	for v := kv.Value; len(v) > 0; {
		n, err := tuple.ElementLen(v)
		if err != nil {
			return Entry{}, err
		}
		v = v[n:]
	}
	if len(kv.Value) > 0 {
		e.value = kv.Value
	}
	return e, nil
}

// ScanOptions controls index scans.
type ScanOptions struct {
	Reverse      bool
	Limiter      *cursor.Limiter
	Continuation []byte
	// Snapshot reads without adding read conflict ranges.
	Snapshot bool
}

// Scan streams index entries in the tuple range in key order.
func (m *ValueMaintainer) Scan(ctx *Context, r TupleRange, opts ScanOptions) (cursor.Cursor[Entry], error) {
	begin, end, err := r.ToKeyRange(ctx.Space)
	if err != nil {
		return nil, err
	}
	kvs := kvcursor.New(ctx.Tr, begin, end, kvcursor.Options{
		Reverse:      opts.Reverse,
		Limiter:      opts.Limiter,
		Continuation: opts.Continuation,
		Snapshot:     opts.Snapshot,
	})
	space := ctx.Space
	return cursor.Map(kvs, func(kv fdb.KeyValue) (Entry, error) {
		return m.DecodeEntry(space, kv)
	}), nil
}
