// Package directory implements the FoundationDB directory layer (§2): it
// maps potentially long-but-meaningful strings to short integers, reducing
// key sizes, using a sliding-window allocation algorithm that concurrently
// allocates unique values while keeping the integers small.
package directory

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"

	"recordlayer/internal/fdb"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// Layer provides directory operations over a reserved keyspace region.
type Layer struct {
	nodes   subspace.Subspace // metadata: interned names + allocator state
	content subspace.Subspace // where directory subspaces live

	mu  sync.Mutex
	rng *rand.Rand
	// interned caches committed name -> id mappings per cluster. A mapping is
	// immutable once committed (the layer has no remove or rename), so an
	// entry never needs validating — the one rule is that it was committed
	// when cached (see LookupInterned).
	interned               map[internKey]int64
	cacheHits, cacheMisses int64
}

type internKey struct {
	db   *fdb.Database
	name string
}

// maxInterned bounds the cache; a full cache drops an arbitrary entry.
const maxInterned = 1 << 16

// NewLayer creates a directory layer rooted at the conventional 0xFE node
// prefix with content at the keyspace root.
func NewLayer() *Layer {
	return NewLayerAt(subspace.FromBytes([]byte{0xFE}), subspace.FromBytes(nil), 1)
}

// NewLayerAt creates a directory layer with explicit node and content
// subspaces and a deterministic seed for candidate selection (tests pass a
// fixed seed; production code can pass any value).
func NewLayerAt(nodes, content subspace.Subspace, seed int64) *Layer {
	return &Layer{nodes: nodes, content: content, rng: rand.New(rand.NewSource(seed))}
}

// Allocator key layout within nodes:
//
//	(0, "hca", 0, windowStart) -> little-endian count (atomic ADD)
//	(0, "hca", 1, candidate)   -> claim marker
//	(0, "str", name)           -> interned integer
//	(0, "int", integer)        -> name (reverse mapping)
const (
	nsAlloc   = 0
	hcaCount  = 0
	hcaRecent = 1
)

func windowSize(start int64) int64 {
	// Matches the FoundationDB client's growth schedule: small windows while
	// the allocated space is small, larger ones as it grows.
	switch {
	case start < 255:
		return 64
	case start < 65535:
		return 1024
	default:
		return 8192
	}
}

// Allocate reserves a unique, never-before-returned integer. Concurrent
// callers in separate transactions receive distinct values; the window
// advances as it fills so values stay small.
func (l *Layer) Allocate(tr *fdb.Transaction) (int64, error) {
	counters := l.nodes.Sub(nsAlloc, "hca", hcaCount)
	recents := l.nodes.Sub(nsAlloc, "hca", hcaRecent)
	cb, _ := counters.Range()
	rb, _ := recents.Range()
	one := make([]byte, 8)
	binary.LittleEndian.PutUint64(one, 1)

	windowStart := func() (int64, error) {
		// The current window start is the largest counter key (or 0).
		_, ce := counters.Range()
		kvs, _, err := tr.Snapshot().GetRange(cb, ce, fdb.RangeOptions{Limit: 1, Reverse: true})
		if err != nil || len(kvs) == 0 {
			return 0, err
		}
		t, err := counters.Unpack(kvs[0].Key)
		if err != nil {
			return 0, err
		}
		return t[0].(int64), nil
	}

	for attempt := 0; attempt < 1000; attempt++ {
		start, err := windowStart()
		if err != nil {
			return 0, err
		}
		// Advance the window locally until it is less than half full,
		// clearing superseded allocator state as we go.
		var window int64
		advanced := false
		for {
			if advanced {
				if err := tr.ClearRange(cb, counters.Pack(tuple.Tuple{start})); err != nil {
					return 0, err
				}
				if err := tr.ClearRange(rb, recents.Pack(tuple.Tuple{start})); err != nil {
					return 0, err
				}
			}
			window = windowSize(start)
			countKey := counters.Pack(tuple.Tuple{start})
			if err := tr.Atomic(fdb.MutationAdd, countKey, one); err != nil {
				return 0, err
			}
			raw, err := tr.Snapshot().Get(countKey)
			if err != nil {
				return 0, err
			}
			if count := int64(binary.LittleEndian.Uint64(raw)); count*2 < window {
				break
			}
			start += window
			advanced = true
		}

		l.mu.Lock()
		candidate := start + l.rng.Int63n(window)
		l.mu.Unlock()

		// If another transaction advanced the window past our start in the
		// meantime, our candidate may collide with a cleared region: restart.
		latest, err := windowStart()
		if err != nil {
			return 0, err
		}
		if latest > start {
			continue
		}

		candKey := recents.Pack(tuple.Tuple{candidate})
		// Serializable read: if another transaction claims the same candidate
		// concurrently, one of the two commits will fail validation.
		existing, err := tr.Get(candKey)
		if err != nil {
			return 0, err
		}
		if existing == nil {
			if err := tr.Set(candKey, []byte{}); err != nil {
				return 0, err
			}
			return candidate, nil
		}
	}
	return 0, fmt.Errorf("directory: allocator failed to find a free candidate")
}

// Intern returns the stable integer for name, allocating one on first use.
func (l *Layer) Intern(tr *fdb.Transaction, name string) (int64, error) {
	id, ok, err := l.LookupInterned(tr, name)
	if err != nil || ok {
		return id, err
	}
	if id, err = l.Allocate(tr); err != nil {
		return 0, err
	}
	if err := tr.Set(l.internKeyFor(name), tuple.Tuple{id}.Pack()); err != nil {
		return 0, err
	}
	rev := l.nodes.Sub(nsAlloc, "int").Pack(tuple.Tuple{id})
	if err := tr.Set(rev, tuple.Tuple{name}.Pack()); err != nil {
		return 0, err
	}
	l.cacheOnCommit(tr, internKey{db: tr.Database(), name: name}, id)
	return id, nil
}

func (l *Layer) internKeyFor(name string) []byte {
	return l.nodes.Sub(nsAlloc, "str").Pack(tuple.Tuple{name})
}

// LookupInterned returns the integer for name if it was interned. A cached
// mapping answers without a read. A mapping read from the database is cached
// at once when the reading transaction had buffered no mutation; otherwise
// only when that transaction commits, because a transaction's own uncommitted
// Intern is visible to its reads and may never commit. The read is
// serializable, so a commit makes what it read committed.
func (l *Layer) LookupInterned(tr *fdb.Transaction, name string) (int64, bool, error) {
	ck := internKey{db: tr.Database(), name: name}
	l.mu.Lock()
	id, ok := l.interned[ck]
	if ok {
		l.cacheHits++
	} else {
		l.cacheMisses++
	}
	l.mu.Unlock()
	if ok {
		return id, true, nil
	}
	committed := !tr.HasMutations()
	raw, err := tr.Get(l.internKeyFor(name))
	if err != nil || raw == nil {
		return 0, false, err
	}
	t, err := tuple.Unpack(raw)
	if err != nil {
		return 0, false, err
	}
	id = t[0].(int64)
	if committed {
		l.cache(ck, id)
	} else {
		l.cacheOnCommit(tr, ck, id)
	}
	return id, true, nil
}

// cache remembers a committed mapping.
func (l *Layer) cache(ck internKey, id int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.interned == nil {
		l.interned = make(map[internKey]int64)
	}
	if len(l.interned) >= maxInterned {
		for k := range l.interned {
			delete(l.interned, k)
			break
		}
	}
	l.interned[ck] = id
}

// cacheOnCommit remembers a mapping tr read or wrote once tr commits. A
// mapping is immutable, so a metadata-version bump changes nothing about it.
func (l *Layer) cacheOnCommit(tr *fdb.Transaction, ck internKey, id int64) {
	tr.OnCommit(func(int64, bool) { l.cache(ck, id) })
}

// CacheStats reports how many Intern/LookupInterned calls the name -> id
// cache answered and how many went to the database.
func (l *Layer) CacheStats() (hits, misses int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cacheHits, l.cacheMisses
}

// CachedName returns the name the cache maps to id, without a read: ok is
// false when no committed mapping the cache holds has that id, or when two
// clusters' mappings give it different names.
func (l *Layer) CachedName(id int64) (name string, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for k, v := range l.interned {
		if v != id {
			continue
		}
		if ok && k.name != name {
			return "", false
		}
		name, ok = k.name, true
	}
	return name, ok
}

// LookupName resolves an interned integer back to its name.
func (l *Layer) LookupName(tr *fdb.Transaction, id int64) (string, bool, error) {
	key := l.nodes.Sub(nsAlloc, "int").Pack(tuple.Tuple{id})
	raw, err := tr.Get(key)
	if err != nil || raw == nil {
		return "", false, err
	}
	t, err := tuple.Unpack(raw)
	if err != nil {
		return "", false, err
	}
	return t[0].(string), true, nil
}

// CreateOrOpen resolves a path of directory names to a subspace whose prefix
// is the tuple of the components' interned integers: short keys for long
// meaningful names.
func (l *Layer) CreateOrOpen(tr *fdb.Transaction, path ...string) (subspace.Subspace, error) {
	ids := make([]interface{}, len(path))
	for i, name := range path {
		id, err := l.Intern(tr, name)
		if err != nil {
			return subspace.Subspace{}, err
		}
		ids[i] = id
	}
	return l.content.Sub(ids...), nil
}

// Open resolves a path without creating missing components; the boolean
// reports whether the full path existed.
func (l *Layer) Open(tr *fdb.Transaction, path ...string) (subspace.Subspace, bool, error) {
	ids := make([]interface{}, len(path))
	for i, name := range path {
		id, ok, err := l.LookupInterned(tr, name)
		if err != nil || !ok {
			return subspace.Subspace{}, false, err
		}
		ids[i] = id
	}
	return l.content.Sub(ids...), true, nil
}

// List returns all interned names in lexicographic order.
func (l *Layer) List(tr *fdb.Transaction) ([]string, error) {
	s := l.nodes.Sub(nsAlloc, "str")
	b, e := s.Range()
	kvs, _, err := tr.GetRange(b, e, fdb.RangeOptions{})
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(kvs))
	for _, kv := range kvs {
		t, err := s.Unpack(kv.Key)
		if err != nil {
			return nil, err
		}
		names = append(names, t[0].(string))
	}
	return names, nil
}
