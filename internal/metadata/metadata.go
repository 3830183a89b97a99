// Package metadata implements Record Layer schema management (§5): record
// types, index definitions, versioning, evolution validation, and a metadata
// store with client-side caching. Metadata is stored separately from data so
// that millions of record stores can share one schema and receive updates
// atomically (§3.1).
package metadata

import (
	"fmt"
	"sync"

	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
)

// IndexType selects the index maintainer for an index (§7). Clients may
// register custom types with the index maintainer registry.
type IndexType string

// Built-in index types (§7, Appendix B).
const (
	IndexValue        IndexType = "value"
	IndexCount        IndexType = "count"
	IndexCountUpdates IndexType = "count_updates"
	IndexCountNonNull IndexType = "count_not_null"
	IndexSum          IndexType = "sum"
	IndexMaxEver      IndexType = "max_ever"
	IndexMinEver      IndexType = "min_ever"
	IndexVersion      IndexType = "version"
	IndexRank         IndexType = "rank"
	IndexText         IndexType = "text"
)

// IndexState is the per-store lifecycle state of an index (§6).
type IndexState int

const (
	// StateDisabled: the index is neither maintained nor readable.
	StateDisabled IndexState = iota
	// StateWriteOnly: writes maintain the index but queries may not use it
	// (an online build is in progress).
	StateWriteOnly
	// StateReadable: fully built; maintained by writes and usable by queries.
	StateReadable
)

func (s IndexState) String() string {
	switch s {
	case StateDisabled:
		return "disabled"
	case StateWriteOnly:
		return "write-only"
	case StateReadable:
		return "readable"
	}
	return "unknown"
}

// FilterFunc conditionally excludes records from index maintenance, creating
// a sparse index (§6). Filters are registered by name so metadata stays
// serializable.
type FilterFunc func(*message.Message) bool

var (
	filterMu sync.RWMutex
	filters  = map[string]FilterFunc{}
)

// RegisterIndexFilter installs a named index filter.
func RegisterIndexFilter(name string, f FilterFunc) {
	filterMu.Lock()
	defer filterMu.Unlock()
	filters[name] = f
}

// LookupIndexFilter resolves a registered filter.
func LookupIndexFilter(name string) (FilterFunc, bool) {
	filterMu.RLock()
	defer filterMu.RUnlock()
	f, ok := filters[name]
	return f, ok
}

// RecordType defines the structure of records of one type; it resembles a
// table, though all types share one extent (§4).
type RecordType struct {
	Name       string
	Descriptor *message.Descriptor
	PrimaryKey keyexpr.Expression
	// ExplicitTypeKey, when set, is the value the record type key expression
	// produces (a short stand-in for the type name, §10.2). Defaults to Name.
	ExplicitTypeKey interface{}
	// SinceVersion is the metadata version that introduced this type.
	SinceVersion int

	packer  *keyexpr.Packer // PrimaryKey compiled, by Build or Unmarshal
	typeKey interface{}     // TypeKey's value boxed once, by Build or Unmarshal
}

// Packer returns the primary key's compiled packer: the one the metadata
// compiled when it was built or decoded, or for a type no metadata holds, a
// fresh one.
func (rt *RecordType) Packer() *keyexpr.Packer {
	if rt.packer != nil {
		return rt.packer
	}
	return keyexpr.Compile(rt.PrimaryKey)
}

// TypeKey returns the record type key value.
func (rt *RecordType) TypeKey() interface{} {
	if rt.typeKey != nil {
		return rt.typeKey
	}
	if rt.ExplicitTypeKey != nil {
		return rt.ExplicitTypeKey
	}
	return rt.Name
}

// Index defines a secondary index (§6): a type selecting the maintainer and
// a key expression producing entries. An index may span multiple record
// types, in which case referenced fields must exist in all of them (§7).
type Index struct {
	Name string
	Type IndexType
	// RecordTypes lists the types the index covers; empty means every type
	// in the store (a universal index).
	RecordTypes []string
	Expression  keyexpr.Expression
	// Unique enforces entry uniqueness (VALUE indexes only).
	Unique bool
	// FilterName references a registered FilterFunc; records for which the
	// filter returns false are excluded (sparse index).
	FilterName string
	// Options carries per-type settings (e.g. "tokenizer" and "bunch_size"
	// for TEXT indexes).
	Options map[string]string
	// AddedVersion is the metadata version that introduced the index;
	// LastModifiedVersion the version of its last definition change.
	AddedVersion        int
	LastModifiedVersion int

	packer *keyexpr.Packer // Expression compiled, by Build or Unmarshal
}

// Packer returns the key expression's compiled packer: the one the metadata
// compiled when it was built or decoded, or for an index no metadata holds, a
// fresh one.
func (ix *Index) Packer() *keyexpr.Packer {
	if ix.packer != nil {
		return ix.packer
	}
	return keyexpr.Compile(ix.Expression)
}

// Option fetches an index option with a default.
func (ix *Index) Option(key, def string) string {
	if v, ok := ix.Options[key]; ok {
		return v
	}
	return def
}

// Filter resolves the index's filter function (nil when unfiltered).
func (ix *Index) Filter() (FilterFunc, error) {
	if ix.FilterName == "" {
		return nil, nil
	}
	f, ok := LookupIndexFilter(ix.FilterName)
	if !ok {
		return nil, fmt.Errorf("metadata: index %q references unregistered filter %q", ix.Name, ix.FilterName)
	}
	return f, nil
}

// AppliesTo reports whether the index covers the given record type.
func (ix *Index) AppliesTo(recordType string) bool {
	if len(ix.RecordTypes) == 0 {
		return true
	}
	for _, t := range ix.RecordTypes {
		if t == recordType {
			return true
		}
	}
	return false
}

// MetaData is a complete, versioned schema: record types plus indexes.
// Versioning is single-stream, non-branching, and monotonically increasing
// (§5).
type MetaData struct {
	Version int
	// FormerIndexes maps names of removed indexes to the version at removal,
	// so stores lagging behind know to delete leftover index data.
	FormerIndexes map[string]int
	// SplitLongRecords permits records larger than a single KV value (§4).
	SplitLongRecords bool
	// StoreRecordVersions maintains the per-record commit-version slot that
	// VERSION indexes rely on (§7).
	StoreRecordVersions bool

	registry    *message.Registry
	recordTypes map[string]*RecordType
	indexes     map[string]*Index
	indexOrder  []string
	typeOrder   []string
}

// RecordType looks up a record type by name.
func (md *MetaData) RecordType(name string) (*RecordType, bool) {
	rt, ok := md.recordTypes[name]
	return rt, ok
}

// RecordTypes returns all record types in definition order.
func (md *MetaData) RecordTypes() []*RecordType {
	out := make([]*RecordType, 0, len(md.typeOrder))
	for _, n := range md.typeOrder {
		out = append(out, md.recordTypes[n])
	}
	return out
}

// RecordTypeForKey resolves a record type key value back to its type.
func (md *MetaData) RecordTypeForKey(key interface{}) (*RecordType, bool) {
	for _, rt := range md.recordTypes {
		if rt.TypeKey() == key {
			return rt, true
		}
	}
	return nil, false
}

// Index looks up an index by name.
func (md *MetaData) Index(name string) (*Index, bool) {
	ix, ok := md.indexes[name]
	return ix, ok
}

// Indexes returns all indexes in definition order.
func (md *MetaData) Indexes() []*Index {
	out := make([]*Index, 0, len(md.indexOrder))
	for _, n := range md.indexOrder {
		out = append(out, md.indexes[n])
	}
	return out
}

// IndexesFor returns the indexes applying to a record type.
func (md *MetaData) IndexesFor(recordType string) []*Index {
	var out []*Index
	for _, n := range md.indexOrder {
		if ix := md.indexes[n]; ix.AppliesTo(recordType) {
			out = append(out, ix)
		}
	}
	return out
}

// Registry returns the message type registry backing the record types.
func (md *MetaData) Registry() *message.Registry { return md.registry }
