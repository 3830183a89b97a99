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
// packed. GetRange hands a scan the database's own immutable bytes, so an
// Entry aliases them rather than copying; nothing writes them (kvreadonly
// checks it). Key and PrimaryKey
// decode on demand, and a merge or a fetch reads PackedPrimaryKey,
// decoding nothing. The tuple encoding is canonical and order-preserving, so
// packed primary keys compare and de-duplicate as their tuples do.
type Entry struct {
	key   []byte // key columns, then the primary key
	pkOff int    // where the primary key starts in key
	value []byte // packed covering columns; nil when there are none
}

// Key decodes the entry's indexed key columns.
func (e Entry) Key() tuple.Tuple { return unpackChecked(e.key[:e.pkOff]) }

// PrimaryKey decodes the primary key of the record the entry points at.
func (e Entry) PrimaryKey() tuple.Tuple { return unpackChecked(e.key[e.pkOff:]) }

// PackedColumns returns the packed key columns and covering value columns in
// place; they alias the scanned pair.
func (e Entry) PackedColumns() (key, value []byte) { return e.key[:e.pkOff:e.pkOff], e.value }

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
	packer     *keyexpr.Packer
	keyColumns int // entry columns stored in the key
}

func newValueMaintainer(ix *metadata.Index) (Maintainer, error) {
	m := &ValueMaintainer{ix: ix, packer: ix.Packer(), keyColumns: ix.Expression.ColumnCount()}
	if kwv, ok := ix.Expression.(keyexpr.KeyWithValueExpression); ok {
		m.keyColumns = kwv.KeyColumns()
	}
	return m, nil
}

// KeyColumns returns the number of key columns preceding the primary key in
// each entry.
func (m *ValueMaintainer) KeyColumns() int { return m.keyColumns }

// UpdateAsync implements Maintainer. The issue phase performs all mutations
// — removals, then insertions — and issues the uniqueness probes between
// them, so a record vacating its own old key probes the post-clear state and
// the probes see the pre-insert state (data resolves at issue time). Await
// verifies the probe results; non-unique indexes return Done.
func (m *ValueMaintainer) UpdateAsync(ctx *Context, old, new *Record) (Pending, error) {
	var oldBuf, newBuf [keyStackLen]byte
	var oldSpans, newSpans [keyStackSpans]keyexpr.KeySpan
	oldKeys, err := keysFor(m.ix, m.packer, old, keyexpr.NewKeys(oldBuf[:], oldSpans[:]))
	if err != nil {
		return nil, err
	}
	newKeys, err := keysFor(m.ix, m.packer, new, keyexpr.NewKeys(newBuf[:], newSpans[:]))
	if err != nil {
		return nil, err
	}
	return m.update(ctx, old, new, oldKeys, newKeys)
}

// update writes the difference between a record's old and new index keys,
// leaving each entry the record keeps untouched: the §6 optimization that
// skips rewriting index keys whose indexed fields did not change. Keys are
// compared packed, each against the other side's few.
func (m *ValueMaintainer) update(ctx *Context, old, new *Record, oldKeys, newKeys keyexpr.Keys) (Pending, error) {
	var buf [keyStackLen]byte
	for i := 0; i < oldKeys.Len(); i++ {
		if newKeys.Has(oldKeys.Key(i)) {
			continue
		}
		if err := clearKey(ctx, oldKeys.Head(i), old.packedPK()); err != nil {
			return nil, err
		}
	}
	var heads [][]byte
	var probes []*fdb.FutureRange
	if m.ix.Unique {
		// Issue every probe before awaiting any: a fan-out save's uniqueness
		// checks share one simulated latency window instead of paying one
		// round trip per added entry (§8). Issued after the removals so a
		// record vacating its own old key probes the post-clear state.
		for i := 0; i < newKeys.Len(); i++ {
			if oldKeys.Has(newKeys.Key(i)) {
				continue
			}
			head := bytes.Clone(newKeys.Head(i)) // the Pending outlives the keys
			begin, end := ctx.Space.RangeForPacked(head)
			heads = append(heads, head)
			probes = append(probes, ctx.Tr.GetRangeAsync(begin, end, fdb.RangeOptions{Limit: 2}))
		}
	}
	for i := 0; i < newKeys.Len(); i++ {
		if oldKeys.Has(newKeys.Key(i)) {
			continue
		}
		var value []byte // the covering columns; none is a nil value
		if tail := newKeys.Tail(i); len(tail) > 0 {
			value = tail
		}
		if err := ctx.Tr.Set(appendKey(buf[:0], ctx.Space, newKeys.Head(i), new.packedPK()), value); err != nil {
			return nil, err
		}
	}
	if probes == nil {
		return Done, nil
	}
	pk := new.packedPK()
	return pendingFunc(func() error {
		return m.verifyUnique(ctx, heads, probes, pk)
	}), nil
}

// verifyUnique rejects any added entry whose index key, heads[i], was already
// held by a different primary key than pk when its probe was issued.
func (m *ValueMaintainer) verifyUnique(ctx *Context, heads [][]byte, probes []*fdb.FutureRange, pk []byte) error {
	for i, head := range heads {
		kvs, _, err := probes[i].Get()
		if err != nil {
			return err
		}
		for j := range kvs.Len() {
			e, err := m.DecodeEntry(ctx.Space, kvs.At(j))
			if err != nil {
				return err
			}
			if !bytes.Equal(e.PackedPrimaryKey(), pk) {
				return fmt.Errorf("index %q: uniqueness violation on key %v (held by %v)",
					m.ix.Name, unpackChecked(head), e.PrimaryKey())
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
	return scan(ctx, r, opts, m.DecodeEntry)
}

// ScanFetched is Scan over mapped reads (kvcursor.NewMapped): record maps an
// entry's packed primary key to the range of its record's pairs, which arrive
// with the entry, in its batch's one round trip.
func (m *ValueMaintainer) ScanFetched(ctx *Context, r TupleRange, opts ScanOptions, record fdb.Mapper) (cursor.Cursor[Fetched], error) {
	return scanFetched(ctx, r, opts, m.DecodeEntry, record)
}

// Fetched is an entry of a ScanFetched with its record's pairs. They travel
// beside the entry, which stays as small as the merges that queue entries
// need it.
type Fetched struct {
	Entry
	Record fdb.Pairs
}

// decoder views a physical pair of an index in space as an Entry.
type decoder func(space subspace.Subspace, kv fdb.KeyValue) (Entry, error)

func (o ScanOptions) kv() kvcursor.Options {
	return kvcursor.Options{Reverse: o.Reverse, Limiter: o.Limiter, Continuation: o.Continuation, Snapshot: o.Snapshot}
}

// scan streams the entries of r in ctx's index.
func scan(ctx *Context, r TupleRange, opts ScanOptions, decode decoder) (cursor.Cursor[Entry], error) {
	begin, end, err := r.ToKeyRange(ctx.Space)
	if err != nil {
		return nil, err
	}
	space := ctx.Space
	return cursor.Map(kvcursor.New(ctx.Tr, begin, end, opts.kv()), func(kv fdb.KeyValue) (Entry, error) {
		return decode(space, kv)
	}), nil
}

// scanFetched is scan over mapped reads. An entry that does not decode maps to
// no record; the decode that follows reports it.
func scanFetched(ctx *Context, r TupleRange, opts ScanOptions, decode decoder, record fdb.Mapper) (cursor.Cursor[Fetched], error) {
	begin, end, err := r.ToKeyRange(ctx.Space)
	if err != nil {
		return nil, err
	}
	space := ctx.Space
	mapper := func(key []byte) (begin, end []byte) {
		e, err := decode(space, fdb.KeyValue{Key: key})
		if err != nil {
			return nil, nil
		}
		return record(e.PackedPrimaryKey())
	}
	return cursor.Map(kvcursor.NewMapped(ctx.Tr, begin, end, opts.kv(), mapper), func(kv kvcursor.Mapped) (Fetched, error) {
		e, err := decode(space, kv.KeyValue)
		return Fetched{Entry: e, Record: kv.Mapped}, err
	}), nil
}
