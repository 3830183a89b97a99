package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"recordlayer/internal/fdb"
	"recordlayer/internal/metadata"
	"recordlayer/internal/tuple"
)

// ErrCorruptStoreState is wrapped by every error Open returns for a store
// header or an index-state pair that does not decode; the error names the key.
var ErrCorruptStoreState = errors.New("core: corrupt store state")

// storeState is what Open must know before a store can do anything: its
// header and every index state that is not the readable default. A loaded
// storeState is immutable — the cache and every store opened from it share
// one.
type storeState struct {
	header Header
	states map[string]metadata.IndexState // nil when every index is readable
}

// StateCache keeps store states across transactions so that opening a store
// on a warm server reads nothing (§4's store-state cache). An entry that
// holds a store's state as of version V serves a transaction at read version
// R iff
//
//	lastBump(R) <= V <= R
//
// where lastBump(R) is the database's metadata version as of R, which rides
// the GRV reply (fdb.Transaction.MetadataVersion). Every writer of store
// state bumps it — header overwrite, setIndexState, clearIndexData,
// DeleteAllRecords, DeleteStore — so the left half says nothing the entry
// describes changed in (V, R]. The right half keeps an entry from the future
// away from a transaction pinned to an older snapshot (SetReadVersion), which
// cannot know of bumps after R. First creation of a store does not bump: the
// cache holds no "does not exist" entries, so creating a store makes nothing
// stale.
//
// Two kinds of transaction fill it. One that read a state with no mutation
// buffered fills it at once, at its read version. One that learned a state
// while holding writes — it created the store, or missed after writing — fills
// it when it commits, at the commit version, unless it bumped
// (fdb.Transaction.OnCommit). A nil *StateCache always misses.
type StateCache struct {
	mu sync.Mutex
	// entries is keyed by cluster, then store prefix: versions of different
	// clusters are incomparable, and a provider almost always sees one.
	entries map[*fdb.Database]map[string]stateEntry
	// shared is the last all-readable state cached: in the overwhelmingly
	// common case every store has the same header and no index state, and all
	// their entries point at this one value.
	shared *storeState

	hits, misses, invalidations int64
}

type stateEntry struct {
	version int64 // read or commit version at which st was known
	st      *storeState
}

// maxCachedStates bounds the stores cached per cluster; a full cache drops an
// arbitrary entry.
const maxCachedStates = 1 << 16

// NewStateCache creates an empty cache. One per server process and schema:
// StoreProvider owns one.
func NewStateCache() *StateCache {
	return &StateCache{entries: make(map[*fdb.Database]map[string]stateEntry)}
}

// StateCacheStats counts cache outcomes: Hits opened a store with no read,
// Misses read header and states, and Invalidations are the misses that found
// an entry older than the metadata version.
type StateCacheStats struct {
	Hits, Misses, Invalidations int64
}

// Stats returns the cache's counters.
func (c *StateCache) Stats() StateCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return StateCacheStats{Hits: c.hits, Misses: c.misses, Invalidations: c.invalidations}
}

// lookup returns the cached state of a store if it is valid for a transaction
// at readVersion whose metadata version is meta.
func (c *StateCache) lookup(db *fdb.Database, prefix []byte, readVersion, meta int64) *storeState {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[db][string(prefix)]
	if ok && meta <= e.version && e.version <= readVersion {
		c.hits++
		return e.st
	}
	if ok && e.version < meta {
		c.invalidations++
	}
	c.misses++
	return nil
}

// put caches a state known as of version, unless the cache already holds a
// newer one (the loader was pinned to an old snapshot, or lost a race).
func (c *StateCache) put(db *fdb.Database, prefix []byte, version int64, st *storeState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	stores := c.entries[db]
	if stores == nil {
		stores = make(map[string]stateEntry)
		c.entries[db] = stores
	}
	e, ok := stores[string(prefix)]
	if ok && e.version > version {
		return
	}
	if !ok && len(stores) >= maxCachedStates {
		for k := range stores {
			delete(stores, k)
			break
		}
	}
	if st.states == nil {
		if c.shared != nil && c.shared.header == st.header {
			st = c.shared
		} else {
			c.shared = st
		}
	}
	stores[string(prefix)] = stateEntry{version: version, st: st}
}

// putOnCommit caches st, the state s's transaction leaves its store in, when
// that transaction commits: at the commit version, and only if it did not
// bump. An unbumped commit changed no store state, and the read conflicts on
// header and states kept any other writer from changing it before then.
func (c *StateCache) putOnCommit(s *Store, st *storeState) {
	if c == nil {
		return
	}
	db, prefix := s.tr.Database(), s.space.Bytes()
	s.tr.OnCommit(func(version int64, bumped bool) {
		if !bumped {
			c.put(db, prefix, version, st)
		}
	})
}

// loadState returns the state of s's store as of the transaction's read
// version, nil when the store has no header; bare reports that it has no
// index state either, so that a creator knows the whole state it writes. A hit
// issues no read and adds the read conflicts the reads it skipped would have
// added. A miss reads the header and the index states in one window and caches
// the result: at once when the transaction has buffered no mutation (so what
// it read is committed), else when it commits.
func (c *StateCache) loadState(s *Store) (st *storeState, bare bool, err error) {
	headerKey := s.headerKey()
	statesBegin, statesEnd := s.space.RangeForTuple(tuple.Tuple{stateSub})
	var readVersion int64
	clean := false
	if c != nil {
		meta, ok, err := s.tr.MetadataVersion()
		if err != nil {
			return nil, false, err
		}
		if ok { // else this transaction has changed store state itself: no lookup, and its commit, which bumps, fills nothing
			if readVersion, err = s.tr.GetReadVersion(); err != nil {
				return nil, false, err
			}
			if st := c.lookup(s.tr.Database(), s.space.Bytes(), readVersion, meta); st != nil {
				s.tr.AddReadConflictKey(headerKey)
				s.tr.AddReadConflictRange(statesBegin, statesEnd)
				return st, false, nil
			}
			clean = !s.tr.HasMutations()
		}
	}
	headerFut := s.tr.GetAsync(headerKey)
	statesFut := s.tr.GetRangeAsync(statesBegin, statesEnd, fdb.RangeOptions{})
	raw, err := headerFut.Get()
	kvs, _, serr := statesFut.Get()
	if err == nil {
		err = serr
	}
	if err != nil {
		return nil, false, err
	}
	if raw == nil {
		return nil, kvs.Len() == 0, nil
	}
	st = &storeState{}
	if err := json.Unmarshal(raw, &st.header); err != nil {
		return nil, false, fmt.Errorf("%w: header %x: %v", ErrCorruptStoreState, headerKey, err)
	}
	for i := range kvs.Len() {
		kv := kvs.At(i)
		name, state, ok := s.decodeIndexState(kv)
		if !ok {
			return nil, false, fmt.Errorf("%w: index state %x = %x", ErrCorruptStoreState, kv.Key, kv.Value)
		}
		if st.states == nil {
			st.states = make(map[string]metadata.IndexState, kvs.Len())
		}
		st.states[name] = state
	}
	if clean {
		c.put(s.tr.Database(), s.space.Bytes(), readVersion, st)
	} else {
		c.putOnCommit(s, st)
	}
	return st, false, nil
}

// decodeIndexState reads one pair of the state subspace as setIndexState
// writes it: the key (stateSub, index name), the value (state).
func (s *Store) decodeIndexState(kv fdb.KeyValue) (string, metadata.IndexState, bool) {
	key, err := s.space.Unpack(kv.Key)
	if err != nil || len(key) != 2 {
		return "", 0, false
	}
	name, ok := key[1].(string)
	if !ok {
		return "", 0, false
	}
	val, err := tuple.Unpack(kv.Value)
	if err != nil || len(val) != 1 {
		return "", 0, false
	}
	state, ok := val[0].(int64)
	return name, metadata.IndexState(state), ok
}
