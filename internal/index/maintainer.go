// Package index implements index maintenance (§6) and the built-in index
// types (§7, Appendix B). Indexes are durable structures maintained in a
// streaming fashion: updated incrementally, in the same transaction as the
// record change itself, so they are always consistent with the data.
//
// Each index type is implemented by a Maintainer registered in a registry;
// clients plug in custom types the same way the built-ins are installed —
// the extensibility point §3.1 and §9 highlight.
package index

import (
	"fmt"
	"sync"

	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// Record is the indexed view of a stored record.
type Record struct {
	Type       *metadata.RecordType
	Message    *message.Message
	PrimaryKey tuple.Tuple
	// Version is the record's commit version when known (old records read
	// from the store always know theirs; new records receive one at commit).
	Version    tuple.Versionstamp
	HasVersion bool
	// PendingUserVersion is the per-transaction counter value assigned to a
	// new record's commit version, shared by its version slot and its
	// version index entries (§7).
	PendingUserVersion uint16
	// PackedPrimaryKey is PrimaryKey packed. A caller that has it sets it;
	// otherwise the first maintainer that needs it packs PrimaryKey.
	PackedPrimaryKey []byte
}

// packedPK returns the record's packed primary key.
func (r *Record) packedPK() []byte {
	if r.PackedPrimaryKey == nil {
		r.PackedPrimaryKey = r.PrimaryKey.Pack()
	}
	return r.PackedPrimaryKey
}

// Context carries everything a maintainer needs for one operation.
type Context struct {
	Tr    *fdb.Transaction
	Index *metadata.Index
	// Space is the index's dedicated subspace within the record store, so
	// the whole index can be removed with one range clear (§6).
	Space    subspace.Subspace
	MetaData *metadata.MetaData
	// NextUserVersion is read by no maintainer and set by nothing in the
	// library: the VERSION maintainer takes the record's PendingUserVersion.
	// It stays only because the benchmark module still sets it.
	//
	// Deprecated: leave it unset.
	NextUserVersion func() uint16
}

// Pending is the await half of a two-phase index update. UpdateAsync issues
// the update's reads and buffers what it can; Await blocks on the issued
// futures and applies the remaining mutations. Await must be called exactly
// once; the Pending is dead afterwards.
type Pending interface {
	Await() error
}

// pendingFunc adapts a closure to Pending.
type pendingFunc func() error

func (f pendingFunc) Await() error { return f() }

// donePending is a comparable resolved Pending, so callers can test p == Done.
type donePending struct{}

func (donePending) Await() error { return nil }

// Done is a resolved Pending: the update completed entirely during the issue
// phase (atomic-mutation and version indexes, which never read). Awaiting it
// is free.
var Done Pending = donePending{}

// Maintainer updates index data when records change. Exactly one of old and
// new may be nil: insert (old nil), update (both), delete (new nil).
//
// UpdateAsync is the issue half of a two-phase update: it evaluates the
// record, issues every read the update needs (uniqueness probes, skip-list
// descents, bunched-map boundary lookups) without awaiting any, and returns a
// Pending whose Await resolves the reads and applies the mutations. Callers
// updating many records issue every record's UpdateAsync before awaiting any
// Pending, so all probe reads share one simulated latency window (§8).
// Maintainers that never read return Done. The returned Pendings must be
// awaited in issue order.
type Maintainer interface {
	UpdateAsync(ctx *Context, old, new *Record) (Pending, error)
}

// Update runs a maintainer's two phases back to back — the serial degenerate
// case of UpdateAsync for callers updating one record at a time.
func Update(m Maintainer, ctx *Context, old, new *Record) error {
	p, err := m.UpdateAsync(ctx, old, new)
	if err != nil {
		return err
	}
	return p.Await()
}

// Factory builds a maintainer for an index definition, validating the
// definition for this type.
type Factory func(ix *metadata.Index) (Maintainer, error)

var (
	regMu    sync.RWMutex
	registry = map[metadata.IndexType]Factory{}
)

// RegisterIndexType installs a maintainer factory; built-ins register in
// init, clients add custom types the same way.
func RegisterIndexType(t metadata.IndexType, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[t] = f
}

// NewMaintainer builds the maintainer for an index.
func NewMaintainer(ix *metadata.Index) (Maintainer, error) {
	regMu.RLock()
	f, ok := registry[ix.Type]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("index: no maintainer registered for type %q", ix.Type)
	}
	return f(ix)
}

// A maintainer packs a record's index keys, and the full keys it writes, into
// buffers of keyStackLen bytes and keyStackSpans keys on its stack; a record
// with longer or more keys grows them onto the heap.
const (
	keyStackLen   = 256
	keyStackSpans = 4
)

// keysFor appends the index keys of record r to k, honoring the index filter
// (sparse indexes, §6). A nil record, or one the index does not cover, has
// none.
func keysFor(ix *metadata.Index, p *keyexpr.Packer, r *Record, k keyexpr.Keys) (keyexpr.Keys, error) {
	if r == nil || !ix.AppliesTo(r.Type.Name) {
		return k, nil
	}
	if filter, err := ix.Filter(); err != nil {
		return k, err
	} else if filter != nil && !filter(r.Message) {
		return k, nil
	}
	ctx := keyexpr.Context{
		Message:            r.Message,
		RecordTypeKey:      r.Type.TypeKey(),
		Version:            r.Version,
		HasVersion:         r.HasVersion,
		PendingUserVersion: r.PendingUserVersion,
	}
	return p.Pack(k, &ctx)
}

// appendKey appends an index key to buf: space's prefix, head, then tail.
func appendKey(buf []byte, space subspace.Subspace, head, tail []byte) []byte {
	return append(append(append(buf, space.Bytes()...), head...), tail...)
}

// clearKey clears the key appendKey builds. Clear keeps a reference to its
// key, which would move a caller's stack buffer to the heap, so the key is
// built on the heap at its size, and only when there is one to clear.
func clearKey(ctx *Context, head, tail []byte) error {
	key := make([]byte, 0, len(ctx.Space.Bytes())+len(head)+len(tail))
	return ctx.Tr.Clear(appendKey(key, ctx.Space, head, tail))
}

func init() {
	RegisterIndexType(metadata.IndexValue, newValueMaintainer)
	RegisterIndexType(metadata.IndexCount, newAtomicMaintainer(metadata.IndexCount))
	RegisterIndexType(metadata.IndexCountUpdates, newAtomicMaintainer(metadata.IndexCountUpdates))
	RegisterIndexType(metadata.IndexCountNonNull, newAtomicMaintainer(metadata.IndexCountNonNull))
	RegisterIndexType(metadata.IndexSum, newAtomicMaintainer(metadata.IndexSum))
	RegisterIndexType(metadata.IndexMaxEver, newAtomicMaintainer(metadata.IndexMaxEver))
	RegisterIndexType(metadata.IndexMinEver, newAtomicMaintainer(metadata.IndexMinEver))
	RegisterIndexType(metadata.IndexVersion, newVersionMaintainer)
	RegisterIndexType(metadata.IndexRank, newRankMaintainer)
	RegisterIndexType(metadata.IndexText, newTextMaintainer)
}
