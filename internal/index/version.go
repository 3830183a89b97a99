package index

import (
	"encoding/binary"
	"fmt"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/metadata"
	"recordlayer/internal/subspace"
)

// VersionMaintainer implements VERSION indexes (§7): entries whose key
// expression includes the record's 12-byte commit version — 10 bytes
// assigned by the database at commit, 2 bytes by a per-transaction counter.
// Entries for new records are written with versionstamped keys, completed
// atomically at commit; the index therefore exposes the total ordering of
// operations within the cluster, which CloudKit's sync scans (§8.1).
type VersionMaintainer struct {
	ix      *metadata.Index
	packer  *keyexpr.Packer
	columns int
}

func newVersionMaintainer(ix *metadata.Index) (Maintainer, error) {
	ok := false
	for _, c := range ix.Expression.Columns() {
		// Either an explicit version() column or a function that may emit
		// versionstamps (e.g. CloudKit's (incarnation, version) sync key,
		// §8.1) qualifies.
		if c.Kind == keyexpr.ColVersion || c.Kind == keyexpr.ColFunction {
			ok = true
		}
	}
	if !ok {
		return nil, fmt.Errorf("index %q: version indexes need a version() or function column", ix.Name)
	}
	return &VersionMaintainer{ix: ix, packer: ix.Packer(), columns: ix.Expression.ColumnCount()}, nil
}

// KeyColumns returns the number of key columns preceding the primary key.
func (m *VersionMaintainer) KeyColumns() int { return m.columns }

// UpdateAsync implements Maintainer. Version indexes never read — clears,
// sets, and versionstamped keys all buffer immediately — so the whole update
// happens at issue time and the returned Pending is Done.
func (m *VersionMaintainer) UpdateAsync(ctx *Context, old, new *Record) (Pending, error) {
	if err := m.update(ctx, old, new); err != nil {
		return nil, err
	}
	return Done, nil
}

func (m *VersionMaintainer) update(ctx *Context, old, new *Record) error {
	var keyBuf, buf [keyStackLen]byte
	var spans [keyStackSpans]keyexpr.KeySpan
	// Old entries carry the old record's stored version: a complete one is
	// an ordinary key to clear. An incomplete one was assigned earlier in
	// this transaction, whose versionstamped key is still buffered — or the
	// old record never had a version (versions disabled when it was written)
	// and nothing was indexed.
	keys, err := keysFor(m.ix, m.packer, old, keyexpr.NewKeys(keyBuf[:], spans[:]))
	if err != nil {
		return err
	}
	for i := 0; i < keys.Len(); i++ {
		// Clear keeps a reference to its key: see clearKey.
		n := len(ctx.Space.Bytes()) + len(keys.Key(i)) + len(old.packedPK()) + 4
		key, stamped, err := m.entryKey(make([]byte, 0, n), ctx, keys, i, old)
		switch {
		case err != nil:
		case stamped:
			err = ctx.Tr.ClearVersionstampedKey(key)
		default:
			err = ctx.Tr.Clear(key)
		}
		if err != nil {
			return err
		}
	}
	if keys, err = keysFor(m.ix, m.packer, new, keyexpr.NewKeys(keyBuf[:], spans[:])); err != nil {
		return err
	}
	for i := 0; i < keys.Len(); i++ {
		// The incomplete stamp already carries the record's per-transaction
		// user version; the 10-byte prefix is completed at commit (§7).
		key, stamped, err := m.entryKey(buf[:0], ctx, keys, i, new)
		switch {
		case err != nil:
		case stamped:
			err = ctx.Tr.Atomic(fdb.MutationSetVersionstampedKey, key, nil)
		default:
			err = ctx.Tr.Set(key, nil)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// entryKey appends key i's entry for r to buf: the index prefix, the key, the
// primary key. stamped says the key holds an incomplete versionstamp, and then
// ends with the little-endian offset of its placeholder, as
// Subspace.PackWithVersionstamp writes it.
func (m *VersionMaintainer) entryKey(buf []byte, ctx *Context, keys keyexpr.Keys, i int, r *Record) ([]byte, bool, error) {
	off, err := keys.Incomplete(i)
	if err != nil {
		return nil, false, err
	}
	buf = appendKey(buf, ctx.Space, keys.Key(i), r.packedPK())
	if off < 0 {
		return buf, false, nil
	}
	return binary.LittleEndian.AppendUint32(buf, uint32(len(ctx.Space.Bytes())+off)), true, nil
}

// DecodeEntry views a physical pair as an Entry; a version entry has no
// covering value.
func (m *VersionMaintainer) DecodeEntry(space subspace.Subspace, kv fdb.KeyValue) (Entry, error) {
	return decodeEntry(m.ix, space, kv.Key, m.columns)
}

// Scan streams version index entries in version order — a sync scan.
func (m *VersionMaintainer) Scan(ctx *Context, r TupleRange, opts ScanOptions) (cursor.Cursor[Entry], error) {
	return scan(ctx, r, opts, m.DecodeEntry)
}

// ScanFetched is Scan with each entry's record read in the same request.
func (m *VersionMaintainer) ScanFetched(ctx *Context, r TupleRange, opts ScanOptions, record fdb.Mapper) (cursor.Cursor[Fetched], error) {
	return scanFetched(ctx, r, opts, m.DecodeEntry, record)
}
