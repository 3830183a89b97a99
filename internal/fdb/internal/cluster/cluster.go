// Package cluster is the server half of the FoundationDB simulator: what
// proxies, resolvers and storage servers own. It holds the committed tree,
// the version and the metadata version, and the rings of recent commits and
// snapshots, and it takes three calls — GRV, SnapshotAt and Commit — which
// are all the client package (internal/fdb) reaches it through. Go's internal/
// rule keeps every other package out.
//
// # Storage
//
// The storage engine is an immutable (persistent) treap keyed by []byte.
// Every commit returns a new root that shares unchanged subtrees with the old
// one, so a committed root *is* an MVCC snapshot: transactions hold the root
// captured at their read version and never see later commits.
//
// A key is two allocations. The entry holds what never changes once written —
// the key and value bytes, 48 B — and is allocated once per write: the
// transaction's write buffer, the committed tree and every snapshot that still
// sees the write point at the same one. The node holds what a commit rewrites
// — priority and children, 32 B — and is what path copying clones, so a
// commit that touches a root-to-leaf chain copies 32 B per node on it rather
// than the key and value headers too. 48 + 32 is the 80 B a key cost when the
// two were one struct; the priority stays in the node because an entry of
// key + value + priority is 56 B, which the allocator rounds to 64.
//
// No subtree sizes are kept: they were a word in every copied node, and the
// only reader, Cluster.Size, serves tests and the rl tour and walks instead.
//
// Node priorities are a hash of the key, so the shape of a tree is a function
// of the keys in it and of nothing else — not of insertion order, and not of
// how a commit applies its batch. treapApply relies on that: it builds, in
// one pass, node for node the tree that inserting and deleting the batch's
// keys one at a time would have built.
//
// # The request
//
// A CommitRequest is what a client sends a proxy, and the cluster keeps what
// it holds: the write buffer's entries, the bounds of its ranges and the
// values of its versionstamped keys go into the tree and the resolver's ring
// as they are, so the sender writes none of them again once it has sent the
// request. Writes is the buffer, one entry per key set; an entry Deferred
// holds a BufEntry for is a versionstamped value, a key with atomic ops
// pending, or both. Clears are the cleared ranges, and a key in Writes
// overrides them; a clear of exactly [k, k+0x00) deletes the one key k. No
// clear covers a key whose ops are pending without a stamp: the client folds
// an op over a cleared key when it is issued, so commit can read such a key's
// base from the tree whatever clears it has applied.
//
// # The resolver
//
// Commit validates a request's read conflict ranges against the write ranges
// of every commit above its read version, newest first, and names the first
// overlap it finds: the read range that holds or crosses the write, and the
// write. A commit's write ranges are its clears and the keys it wrote, merged
// in key order, then its versionstamped keys and its write conflict ranges. A
// written key is the committed entry's own key with a nil End, which stands
// for exactly that key, so the resolver keeps it without allocating its
// successor. The ring keeps the last ResolverWindow commits with writes; a
// request with read conflicts whose read version predates them is too old.
// SnapshotAt finds the SnapshotHistory snapshots below the current one and
// no older. Only a request that passes draws the commit fault roll, so an
// injected failure only ever replaces a success.
package cluster

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sort"
	"sync"
)

const (
	// VersionStep is the commit-version increment per commit. FoundationDB
	// advances versions by roughly one million per second; 1 keeps
	// versionstamps dense.
	VersionStep = 1
	// ResolverWindow bounds how many recent commits are retained for conflict
	// resolution (stand-in for FDB's 5 second MVCC window).
	ResolverWindow = 10_000
	// SnapshotHistory bounds how many recent committed roots are retained so
	// that SetReadVersion (read-version caching, §4) can read slightly stale
	// snapshots.
	SnapshotHistory = 64
)

// CommitRequest is one transaction's commit as a client sends it (see the
// package comment for what the cluster keeps of it).
type CommitRequest struct {
	// ReadVersion is the version the transaction read at; -1 before it has
	// one.
	ReadVersion int64
	// Writes is the write buffer: a treap of one entry per key set, in key
	// order. Deferred holds a BufEntry for exactly its entries that are
	// pending atomics or versionstamped values.
	Writes   *Node
	Deferred map[*Entry]*BufEntry
	// Clears are the cleared ranges; a key in Writes overrides them.
	Clears RangeSet
	VsKeys []VsKey

	ReadConflicts, WriteConflicts RangeSet

	// BumpMeta advances the metadata version to the commit version.
	BumpMeta bool
}

// Outcome is what became of a commit.
type Outcome uint8

const (
	// Committed: applied at Verdict.Version.
	Committed Outcome = iota
	// Conflicted: a commit after the read version wrote Verdict.Write, which
	// Verdict.Read holds or crosses. Nothing applied.
	Conflicted
	// TooOld: the read version predates the resolver window. Nothing applied.
	TooOld
	// InjectedNotCommitted: the fault roll failed the commit cleanly.
	// Nothing applied.
	InjectedNotCommitted
	// InjectedUnknownDropped and InjectedUnknownApplied: the fault roll lost
	// the reply, and the commit did not or did apply.
	InjectedUnknownDropped
	InjectedUnknownApplied
)

// Verdict is the cluster's answer to a CommitRequest.
type Verdict struct {
	Outcome Outcome
	// Version, KeysWritten and BytesWritten are the commit's when it applied:
	// its version, and the keys it set, cleared by an op or versionstamped,
	// with their bytes.
	Version                   int64
	KeysWritten, BytesWritten int
	// Read and Write are a conflict's pair; their bytes are the request's and
	// the cluster's.
	Read, Write KeyRange
}

// Snapshot is the cluster's state as of one version. It is never written
// again: a commit makes a new one, and GRV and SnapshotAt hand out the
// cluster's own record, so a transaction binds its snapshot with one pointer.
type Snapshot struct {
	Version int64
	Root    *Node
	// Meta is the commit version of the newest commit at or below Version
	// that bumped the metadata version (0: none) — FDB's \xff/metadataVersion
	// key. It lives outside Root like any system key: no range read or Size
	// ever sees it.
	Meta int64
}

// commitRecord is one commit in the resolver window. A write range with a nil
// End stands for exactly its Begin key: the resolver keeps a written key
// without allocating its successor.
type commitRecord struct {
	version int64
	writes  []KeyRange
}

// ring keeps the newest items pushed to it, at most its bound, oldest first.
// It grows to the bound and then overwrites its oldest slot in place, so a
// full window never reallocates or copies.
type ring[T any] struct {
	buf  []T
	head int // the oldest item's slot once buf is full
}

// push appends x; once the ring holds n items it replaces the oldest, which
// it returns with evicted set.
func (r *ring[T]) push(x T, n int) (old T, evicted bool) {
	if len(r.buf) < n {
		if len(r.buf) == cap(r.buf) {
			grown := make([]T, len(r.buf), min(max(2*cap(r.buf), 8), n))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, x)
		return old, false
	}
	old, r.buf[r.head] = r.buf[r.head], x
	r.head = (r.head + 1) % n
	return old, true
}

// len is the number of items held.
func (r *ring[T]) len() int { return len(r.buf) }

// at returns the i-th oldest item.
func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)%len(r.buf)] }

// Cluster is a simulated FoundationDB cluster: one ordered keyspace, its
// resolver and its version history.
type Cluster struct {
	mu       sync.Mutex
	maxValue int
	roll     func() Outcome
	cur      *Snapshot
	recent   ring[commitRecord] // ascending by version; resolver window
	floor    int64              // newest version evicted from the resolver window
	history  ring[*Snapshot]    // ascending by version; snapshot history
	batch    []write            // applyTo's scratch, kept between commits
}

// New returns an empty cluster. maxValue bounds MutationAppendIfFits. roll,
// when set, is the commit fault roll: it returns Committed or one of the
// Injected outcomes.
func New(maxValue int, roll func() Outcome) *Cluster {
	return &Cluster{maxValue: maxValue, roll: roll, cur: &Snapshot{}}
}

// GRV performs a getReadVersion call: the latest snapshot, with its metadata
// version (the proxies piggy-back it on every GRV reply, FDB >= 6.1).
func (c *Cluster) GRV() *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur
}

// SnapshotAt returns the newest retained snapshot with version <= v. The
// second result reports whether such a snapshot is still retained.
func (c *Cluster) SnapshotAt(v int64) (*Snapshot, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v >= c.cur.Version {
		return c.cur, true
	}
	for i := c.history.len() - 1; i >= 0; i-- {
		if h := c.history.at(i); h.Version <= v {
			return h, true
		}
	}
	return nil, false
}

// ReadVersion returns the latest committed version.
func (c *Cluster) ReadVersion() int64 { return c.GRV().Version }

// Size returns the number of live keys (for tests and experiments).
func (c *Cluster) Size() int { return Count(c.GRV().Root) }

// Commit validates r's read conflict ranges against writes committed after
// its read version, then atomically applies its mutations.
func (c *Cluster) Commit(r *CommitRequest) Verdict {
	c.mu.Lock()
	defer c.mu.Unlock()

	// Resolver: reject if any concurrently committed write range intersects
	// what this transaction read (with isolation, i.e. non-snapshot).
	if r.ReadConflicts.Len() > 0 {
		if r.ReadVersion < c.floor {
			// The resolver window no longer covers this read version.
			return Verdict{Outcome: TooOld}
		}
		for i := c.recent.len() - 1; i >= 0; i-- {
			rec := c.recent.at(i)
			if rec.version <= r.ReadVersion {
				break
			}
			for _, w := range rec.writes {
				// A written key (nil End) overlaps exactly when a read
				// conflict range contains it.
				if w.End == nil && r.ReadConflicts.ContainsKey(w.Begin) ||
					w.End != nil && r.ReadConflicts.Overlaps(w.Begin, w.End) {
					return Verdict{Outcome: Conflicted, Read: r.ReadConflicts.from(w.Begin), Write: w}
				}
			}
		}
	}

	// Fault injection happens after validation: a commit that would have
	// conflicted anyway reports the real conflict, so injected failures only
	// replace successes. For unknown-result the roll decides whether the
	// mutations genuinely apply — the client-visible error is identical
	// either way, which is the whole point of commit_unknown_result.
	outcome := Committed
	if c.roll != nil {
		outcome = c.roll()
	}
	if outcome == InjectedNotCommitted || outcome == InjectedUnknownDropped {
		return Verdict{Outcome: outcome}
	}
	return c.apply(r, outcome)
}

// apply applies a validated request's mutations atomically. Caller holds c.mu.
func (c *Cluster) apply(r *CommitRequest, outcome Outcome) Verdict {
	v := Verdict{Outcome: outcome, Version: c.cur.Version + VersionStep}
	// The new root, and the write conflict ranges kept for future resolution.
	root, writes := c.applyTo(r, &v)
	if len(writes) > 0 {
		if old, evicted := c.recent.push(commitRecord{version: v.Version, writes: writes}, ResolverWindow); evicted {
			c.floor = old.version
		}
	}
	meta := c.cur.Meta
	if r.BumpMeta {
		meta = v.Version
	}
	c.history.push(c.cur, SnapshotHistory)
	c.cur = &Snapshot{Version: v.Version, Root: root, Meta: meta}
	return v
}

// applyTo produces the new committed root and the write ranges the resolver
// keeps for r, in one walk of the buffer in key order, and counts what it
// writes into v. Range clears go first; then every key the request sets,
// deletes or versionstamps goes into one sorted batch that treapApply lands
// in a single pass — a Clear of one key is a delete in that batch, not a
// range. Pending atomic mutations read their base value from the *current*
// committed root, not the transaction's snapshot — this is what makes
// concurrent atomic increments compose. A written key's resolver range is the
// committed entry's own key bytes with a nil End, which means exactly that
// key (see commitRecord); clears and manual write conflicts keep their End.
func (c *Cluster) applyTo(r *CommitRequest, v *Verdict) (*Node, []KeyRange) {
	root, clears := c.cur.Root, r.Clears.All()
	keys := Count(r.Writes) + len(r.VsKeys)
	ranges := make([]KeyRange, 0, keys+len(clears)+r.WriteConflicts.Len())
	batch := slices.Grow(c.batch[:0], keys+len(clears))
	written := func(key, val []byte) {
		v.KeysWritten++
		v.BytesWritten += len(key) + len(val)
		ranges = append(ranges, KeyRange{Begin: key})
	}
	stamp := Versionstamp(v.Version)
	var it Iter
	it.Seek(r.Writes, nil, false)
	// Clears and buffered keys are both in key order; so is their merge.
	for n := it.Next(); n != nil || len(clears) > 0; {
		if len(clears) > 0 && (n == nil || bytes.Compare(clears[0].Begin, n.E.Key) <= 0) {
			cr := clears[0]
			clears = clears[1:]
			ranges = append(ranges, cr)
			if !isSingleKey(cr) {
				root = ClearRange(root, cr.Begin, cr.End)
			} else if n == nil || !bytes.Equal(cr.Begin, n.E.Key) {
				// A key cleared and then written needs no delete: the write replaces it.
				batch = append(batch, write{key: cr.Begin})
			}
			continue
		}
		e, be := n.E, r.Deferred[n.E]
		if be != nil {
			// The base of the ops is the stamped value; without a stamp, root
			// holds it whichever range clears have been applied so far, since
			// no clear covers a key with pending ops.
			var val []byte
			if be.VsOff >= 0 {
				val = bytes.Clone(e.Value)
				copy(val[be.VsOff:be.VsOff+10], stamp)
			} else {
				val = Get(root, e.Key).Val()
			}
			cleared := false
			if be.Ops != nil {
				val, cleared = ApplyMutations(val, be.Ops, c.maxValue)
			}
			e = nil
			if !cleared {
				e = &Entry{Key: n.E.Key, Value: val}
			}
		}
		batch = append(batch, write{key: n.E.Key, e: e, prio: n.prio})
		written(n.E.Key, e.Val())
		n = it.Next()
	}
	// Versionstamped keys are few: each is placed into the sorted batch, over
	// whatever the batch held for that key.
	for _, op := range r.VsKeys {
		key := bytes.Clone(op.RawKey)
		copy(key[op.Offset:op.Offset+10], stamp)
		w := write{key: key, e: &Entry{Key: key, Value: op.Value}, prio: keyPrio(key)}
		i := sort.Search(len(batch), func(i int) bool { return bytes.Compare(batch[i].key, key) >= 0 })
		if i == len(batch) || !bytes.Equal(batch[i].key, key) {
			batch = append(batch, write{})
			copy(batch[i+1:], batch[i:])
		}
		batch[i] = w
		written(key, op.Value)
	}
	ranges = append(ranges, r.WriteConflicts.All()...)
	root = treapApply(root, batch)
	// The scratch keeps no entry alive, and lets a bulk load's batch go.
	clear(batch)
	if cap(batch) <= 1<<10 {
		c.batch = batch[:0]
	}
	return root, ranges
}

// isSingleKey reports whether r is [k, k+0x00): what Clear(k) buffers.
func isSingleKey(r KeyRange) bool {
	n := len(r.Begin)
	return len(r.End) == n+1 && r.End[n] == 0 && bytes.Equal(r.End[:n], r.Begin)
}

// Versionstamp renders the 10-byte transaction version: 8-byte big-endian
// commit version plus a 2-byte batch order (always zero here, since each
// simulated commit forms its own batch).
func Versionstamp(commitVersion int64) []byte {
	b := make([]byte, 10)
	binary.BigEndian.PutUint64(b, uint64(commitVersion))
	return b
}
