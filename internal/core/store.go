package core

import (
	"encoding/json"
	"fmt"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/metadata"
	"recordlayer/internal/obs"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// FormatVersion is the storage format version written into store headers;
// bumped when the layer changes how it encodes data (§5).
const FormatVersion = 1

// Subspace layout within a record store (first tuple element).
const (
	headerSub   = 0 // (0)                    -> store header
	recordsSub  = 1 // (1, pk..., suffix)     -> record data + version slot
	indexSub    = 2 // (2, indexName, ...)    -> index data
	stateSub    = 3 // (3, indexName)         -> index state
	progressSub = 4 // (4, indexName)         -> online build progress
)

// Record split suffixes (§4): the version slot immediately precedes the
// record data so both are fetched with one range read.
const (
	versionSuffix = -1 // 12-byte commit version of the last modification
	unsplitRecord = 0  // whole record in one pair
	// split records use suffixes 1..n
)

// Header is the record store header, kept in a single key-value pair and
// checked on every open (§5): it tracks the highest metadata version the
// store was accessed with, the storage format version, and an application
// version for client-driven data migrations.
type Header struct {
	MetaDataVersion int `json:"metadata_version"`
	FormatVersion   int `json:"format_version"`
	UserVersion     int `json:"user_version"`
}

// Config customizes store behavior.
type Config struct {
	// Serializer transforms record bytes (default: identity).
	Serializer Serializer
	// SplitChunkSize bounds each stored chunk of a split record (default
	// 90_000 bytes, within FoundationDB's 100 kB value limit).
	SplitChunkSize int
	// InlineBuildLimit is the most records for which a newly added index is
	// built immediately inside the opening transaction (§5); larger stores
	// leave the index disabled for the online indexer.
	InlineBuildLimit int
}

func (c Config) withDefaults() Config {
	if c.Serializer == nil {
		c.Serializer = IdentitySerializer{}
	}
	if c.SplitChunkSize <= 0 {
		c.SplitChunkSize = 90_000
	}
	if c.InlineBuildLimit <= 0 {
		c.InlineBuildLimit = 100
	}
	return c
}

// Store is a record store bound to one transaction, in the style of a
// per-request database connection (§5: "low-overhead, per request,
// connections to a particular database").
type Store struct {
	tr    *fdb.Transaction
	md    *metadata.MetaData
	space subspace.Subspace
	// records is space.Sub(recordsSub), which holds every record's pairs.
	records subspace.Subspace
	cfg     Config
	// trace is the transaction's trace, captured once at open so hot paths
	// pay one nil check instead of a mutex-guarded lookup per operation.
	trace *obs.Trace

	header Header

	// maintainers caches each index's maintainer; made by the first save, so
	// a read-only open allocates no map.
	maintainers map[string]index.Maintainer
	// states holds every index state that is not the readable default, as
	// loaded at Open. The map is shared with the state cache and other stores
	// until this store changes a state (ownStates), so an open copies nothing.
	states    map[string]metadata.IndexState
	ownStates bool
}

// OpenOptions controls store opening.
type OpenOptions struct {
	// CreateIfMissing writes a fresh header when the store does not exist.
	CreateIfMissing bool
	Config          Config
}

// ErrStaleMetaData is returned when the store header records a newer
// metadata version than the caller supplied: the client cache is stale (§5).
type ErrStaleMetaData struct {
	StoreVersion, ClientVersion int
}

func (e *ErrStaleMetaData) Error() string {
	return fmt.Sprintf("core: store was accessed with metadata version %d but client has %d; refresh the metadata cache",
		e.StoreVersion, e.ClientVersion)
}

// Open opens (or creates) the record store in space, verifying the header
// against the supplied metadata and applying pending schema changes: newly
// added indexes are enabled, built inline, or left for the online indexer;
// removed indexes have their data cleared (§5). It reads the header and the
// index states in one window and caches nothing.
func Open(tr *fdb.Transaction, md *metadata.MetaData, space subspace.Subspace, opts OpenOptions) (*Store, error) {
	return (*StateCache)(nil).Open(tr, md, space, opts)
}

// Open is the package-level Open through the cache: a store whose state is
// cached and still valid opens with no read at all.
func (c *StateCache) Open(tr *fdb.Transaction, md *metadata.MetaData, space subspace.Subspace, opts OpenOptions) (*Store, error) {
	s := &Store{tr: tr, md: md, space: space, records: space.Sub(recordsSub), cfg: opts.Config.withDefaults(),
		trace: tr.Trace()}
	st, bare, err := c.loadState(s)
	if err != nil {
		return nil, err
	}
	if st == nil {
		if !opts.CreateIfMissing {
			return nil, fmt.Errorf("core: record store does not exist")
		}
		// Creation does not bump the metadata version: no cache holds "this
		// store does not exist", so nothing can be stale. The creator knows
		// the whole state it leaves, so its commit warms the cache.
		s.header = Header{MetaDataVersion: md.Version, FormatVersion: FormatVersion}
		if err := s.writeHeader(); err != nil {
			return nil, err
		}
		if bare {
			c.putOnCommit(s, &storeState{header: s.header})
		}
		return s, nil
	}
	s.header, s.states = st.header, st.states
	if s.header.FormatVersion > FormatVersion {
		return nil, fmt.Errorf("core: store uses format version %d, newer than supported %d",
			s.header.FormatVersion, FormatVersion)
	}
	switch {
	case s.header.MetaDataVersion > md.Version:
		return nil, &ErrStaleMetaData{StoreVersion: s.header.MetaDataVersion, ClientVersion: md.Version}
	case s.header.MetaDataVersion < md.Version:
		if err := s.applyMetaDataChanges(); err != nil {
			return nil, err
		}
		s.header.MetaDataVersion = md.Version
		if err := s.overwriteHeader(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *Store) headerKey() []byte { return s.space.Pack(tuple.Tuple{headerSub}) }

func (s *Store) writeHeader() error {
	blob, err := json.Marshal(s.header)
	if err != nil {
		return err
	}
	return s.tr.Set(s.headerKey(), blob)
}

// overwriteHeader replaces an existing header. Like every change to state a
// StateCache may hold, it bumps the metadata version — whether or not any
// cache exists, because other servers' caches cannot be seen from here.
func (s *Store) overwriteHeader() error {
	if err := s.tr.BumpMetadataVersion(); err != nil {
		return err
	}
	return s.writeHeader()
}

// Header returns the store header as read or updated by Open.
func (s *Store) Header() Header { return s.header }

// SetUserVersion records the client-managed application version (§5).
func (s *Store) SetUserVersion(v int) error {
	s.header.UserVersion = v
	return s.overwriteHeader()
}

// MetaData returns the schema the store was opened with.
func (s *Store) MetaData() *metadata.MetaData { return s.md }

// Subspace returns the store's subspace.
func (s *Store) Subspace() subspace.Subspace { return s.space }

// TxnStats returns the underlying transaction's I/O counters. Plan execution
// takes before/after snapshots around each leaf cursor step to attribute
// simulator reads to plan nodes (EXPLAIN ANALYZE).
func (s *Store) TxnStats() fdb.TxnStats { return s.tr.Stats() }

// applyMetaDataChanges reconciles the store with a newer schema version.
func (s *Store) applyMetaDataChanges() error {
	stored := s.header.MetaDataVersion
	// Drop data of indexes removed since the stored version (§5).
	for name, removedAt := range s.md.FormerIndexes {
		if removedAt > stored {
			if err := s.clearIndexData(name); err != nil {
				return err
			}
		}
	}
	// Enable or schedule newly added indexes (§5): on a new record type the
	// index is usable immediately; otherwise build inline when the store is
	// small, or leave it disabled for the online index builder.
	for _, ix := range s.md.Indexes() {
		if ix.AddedVersion <= stored {
			continue
		}
		onlyNewTypes := len(ix.RecordTypes) > 0
		for _, tn := range ix.RecordTypes {
			if rt, ok := s.md.RecordType(tn); !ok || rt.SinceVersion <= stored {
				onlyNewTypes = false
			}
		}
		if onlyNewTypes {
			continue // no existing records of these types: readable by default
		}
		n, err := s.countRecordsUpTo(s.cfg.InlineBuildLimit + 1)
		if err != nil {
			return err
		}
		if n == 0 {
			continue // empty store: readable by default
		}
		if n <= s.cfg.InlineBuildLimit {
			if err := s.RebuildIndexInline(ix.Name); err != nil {
				return err
			}
			continue
		}
		if err := s.setIndexState(ix.Name, metadata.StateDisabled); err != nil {
			return err
		}
	}
	return nil
}

// countRecordsUpTo counts records, stopping at limit: records, not pairs, since
// a record with its version, or split in chunks, is several pairs.
func (s *Store) countRecordsUpTo(limit int) (int, error) {
	recs, _, _, err := cursor.Collect(cursor.Limit(s.ScanRecords(ScanOptions{Snapshot: true}), limit))
	return len(recs), err
}

// indexSpace returns an index's dedicated subspace (§6).
func (s *Store) indexSpace(name string) subspace.Subspace {
	return s.space.Sub(indexSub, name)
}

// IndexSubspace exposes an index's dedicated subspace for tooling — the
// scrubber demo and debugging utilities that inspect (or deliberately
// corrupt) physical entries. Foreground code should go through ScanIndex.
func (s *Store) IndexSubspace(name string) subspace.Subspace {
	return s.indexSpace(name)
}

func (s *Store) stateKey(name string) []byte {
	return s.space.Pack(tuple.Tuple{stateSub, name})
}

// IndexState reports an index's lifecycle state as loaded at Open and changed
// by this store since; indexes default to readable unless explicitly marked
// (§6).
func (s *Store) IndexState(name string) metadata.IndexState {
	if st, ok := s.states[name]; ok {
		return st
	}
	return metadata.StateReadable
}

func (s *Store) setIndexState(name string, st metadata.IndexState) error {
	if err := s.tr.BumpMetadataVersion(); err != nil {
		return err
	}
	var err error
	if st == metadata.StateReadable {
		err = s.tr.Clear(s.stateKey(name))
	} else {
		err = s.tr.Set(s.stateKey(name), tuple.Tuple{int64(st)}.Pack())
	}
	if err != nil {
		return err
	}
	if !s.ownStates {
		own := make(map[string]metadata.IndexState, len(s.states)+1)
		for n, v := range s.states {
			own[n] = v
		}
		s.states, s.ownStates = own, true
	}
	if st == metadata.StateReadable {
		delete(s.states, name)
	} else {
		s.states[name] = st
	}
	return nil
}

// MarkIndexWriteOnly moves an index to the write-only state: maintained by
// writes, not yet readable (§6).
func (s *Store) MarkIndexWriteOnly(name string) error {
	return s.setIndexState(name, metadata.StateWriteOnly)
}

// MarkIndexReadable marks an index fully built.
func (s *Store) MarkIndexReadable(name string) error {
	return s.setIndexState(name, metadata.StateReadable)
}

// MarkIndexDisabled disables maintenance entirely.
func (s *Store) MarkIndexDisabled(name string) error {
	return s.setIndexState(name, metadata.StateDisabled)
}

// clearIndexData removes all data, state and progress for an index — one
// cheap range clear per subspace (§6).
func (s *Store) clearIndexData(name string) error {
	b, e := s.indexSpace(name).Range()
	if err := s.tr.ClearRange(b, e); err != nil {
		return err
	}
	// A cached maintainer may hold a per-transaction pipelining overlay whose
	// written values no longer describe the (now empty) index subspace; drop
	// it so the next update starts from the cleared state.
	delete(s.maintainers, name)
	if err := s.setIndexState(name, metadata.StateReadable); err != nil { // cleared state = readable default
		return err
	}
	return s.tr.Clear(s.space.Pack(tuple.Tuple{progressSub, name}))
}

// maintainer returns (cached) the maintainer for an index.
func (s *Store) maintainer(ix *metadata.Index) (index.Maintainer, error) {
	if m, ok := s.maintainers[ix.Name]; ok {
		return m, nil
	}
	m, err := index.NewMaintainer(ix)
	if err != nil {
		return nil, err
	}
	if s.maintainers == nil {
		s.maintainers = make(map[string]index.Maintainer, len(s.md.Indexes()))
	}
	s.maintainers[ix.Name] = m
	return m, nil
}

// indexContext assembles the maintainer context for an index.
func (s *Store) indexContext(ix *metadata.Index) *index.Context {
	return &index.Context{
		Tr:       s.tr,
		Index:    ix,
		Space:    s.indexSpace(ix.Name),
		MetaData: s.md,
	}
}

// DeleteStore removes every key of a record store — records, indexes,
// header and operational state. Tenant removal is one range clear (§3), plus
// the metadata-version bump that keeps a StateCache from serving the dead
// store's header to whoever recreates it.
func DeleteStore(tr *fdb.Transaction, space subspace.Subspace) error {
	if err := tr.BumpMetadataVersion(); err != nil {
		return err
	}
	b, e := space.Range()
	return tr.ClearRange(b, e)
}
