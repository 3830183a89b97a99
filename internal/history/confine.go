package history

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"

	"recordlayer/internal/fdb"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// Range is a named key range [Begin, End) a transaction may touch.
type Range struct {
	Name       string
	Begin, End []byte
}

// Holds reports whether r holds [begin, end), or the one key begin when end
// is nil.
func (r Range) Holds(begin, end []byte) bool {
	if end == nil {
		return bytes.Compare(r.Begin, begin) <= 0 && bytes.Compare(begin, r.End) < 0
	}
	return bytes.Compare(r.Begin, begin) <= 0 && bytes.Compare(end, r.End) <= 0
}

// StoreRange is every key of the record store at space.
func StoreRange(space subspace.Subspace) Range {
	b, e := space.AllRange()
	return Range{"store " + DecodeKey(space.Bytes()), b, e}
}

// KeyRange is the one key k.
func KeyRange(name string, k []byte) Range {
	return Range{name, k, fdb.KeyAfter(k)}
}

// SharedRanges is the shared set every tenant's transactions may touch besides
// their own stores and the directory path they resolve: FoundationDB's
// metadata version key, and the façade's reserved system subspaces
// "/__system__/limits" (which holds the quota leases too) and
// "/__system__/metering".
func SharedRanges() []Range {
	system := func(child string) Range {
		b, e := subspace.FromTuple(tuple.Tuple{"__system__", child}).AllRange()
		return Range{"/__system__/" + child, b, e}
	}
	return []Range{KeyRange("metadata version", fdb.MetadataVersionKey), system("limits"), system("metering")}
}

// ResolvedPath is the directory layer's part of resolving name, in the layout
// of directory.Layer under its node subspace: the name's entry, the reverse
// entry of its id (none when id < 0), and the allocator that interning a new
// name runs.
func ResolvedPath(nodes subspace.Subspace, name string, id int64) []Range {
	out := []Range{KeyRange("directory entry "+name, nodes.Sub(0, "str").Pack(tuple.Tuple{name}))}
	if id >= 0 {
		out = append(out, KeyRange(fmt.Sprintf("directory entry %d", id), nodes.Sub(0, "int").Pack(tuple.Tuple{id})))
	}
	b, e := nodes.Sub(0, "hca").AllRange()
	return append(out, Range{"directory allocator", b, e})
}

// Confinement checks tenant confinement, the paper's claim (§3–§4) that a
// record store is one contiguous key range: every key a transaction reads,
// writes, clears or names in a conflict range lies in a range allowed to it —
// the subspace of a store it opened, the directory path it resolved, or the
// shared set. The database's fdb.Tap records each access as it is issued;
// the caller names what each transaction opened, then checks.
type Confinement struct {
	db     *fdb.Database
	shared []Range

	mu    sync.Mutex
	txns  []*txnAccesses // in the order they first touched a key
	byTxn map[*fdb.Transaction]*txnAccesses
	all   []Range // allowed to every transaction until the next Check
}

type txnAccesses struct {
	accesses []fdb.Access
	allowed  []Range
	verdict  string
}

// Confine installs a Confinement on db, with shared allowed to every
// transaction. Like fdb.Database.SetTap, call it while no transaction of db
// runs.
func Confine(db *fdb.Database, shared ...Range) *Confinement {
	c := &Confinement{db: db, shared: shared, byTxn: map[*fdb.Transaction]*txnAccesses{}}
	db.SetTap(c.tap)
	return c
}

// Close uninstalls the tap; accesses recorded so far can still be checked.
func (c *Confinement) Close() { c.db.SetTap(nil) }

func (c *Confinement) txn(tr *fdb.Transaction) *txnAccesses {
	ta := c.byTxn[tr]
	if ta == nil {
		ta = &txnAccesses{}
		c.byTxn[tr] = ta
		c.txns = append(c.txns, ta)
	}
	return ta
}

func (c *Confinement) tap(tr *fdb.Transaction, a fdb.Access) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ta := c.txn(tr)
	if a.Kind == fdb.AccessCommit {
		ta.verdict = "committed"
		if a.Err != nil {
			ta.verdict = "failed to commit: " + a.Err.Error()
		}
		return
	}
	ta.accesses = append(ta.accesses, a)
}

// Allow allows tr the ranges rs; a nil tr allows them to every transaction
// recorded up to the next Check.
func (c *Confinement) Allow(tr *fdb.Transaction, rs ...Range) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if tr == nil {
		c.all = append(c.all, rs...)
		return
	}
	ta := c.txn(tr)
	ta.allowed = append(ta.allowed, rs...)
}

// Check reports the first access, of every transaction recorded since the
// last Check, that lies in no range allowed to its transaction, with its keys
// rendered by decode. It then forgets what it recorded and allowed.
func (c *Confinement) Check(decode func([]byte) string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	txns, all := c.txns, c.all
	c.txns, c.all = nil, nil
	clear(c.byTxn)
	for i, ta := range txns {
		for _, a := range ta.accesses {
			if a.End != nil && bytes.Compare(a.Begin, a.End) >= 0 {
				continue // an empty range touches nothing
			}
			if allowed(a, ta.allowed, all, c.shared) {
				continue
			}
			what := decode(a.Begin)
			if a.End != nil {
				what = "[" + what + ", " + decode(a.End) + ")"
			}
			var names []string
			for _, r := range append(append(append([]Range(nil), ta.allowed...), all...), c.shared...) {
				names = append(names, r.Name)
			}
			verdict := ta.verdict
			if verdict == "" {
				verdict = "no commit"
			}
			return fmt.Errorf("transaction %d (%s): %v %s lies outside everything it may touch: %s",
				i, verdict, a.Kind, what, strings.Join(names, ", "))
		}
	}
	return nil
}

// CommittedReads calls f with each serializable read and read-conflict range
// of every transaction recorded since the last Check that committed a write:
// what the resolver checked its commit against. It returns f's first error.
func (c *Confinement) CommittedReads(f func(fdb.Access) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ta := range c.txns {
		if ta.verdict != "committed" || !slices.ContainsFunc(ta.accesses, writes) {
			continue
		}
		for _, a := range ta.accesses {
			if a.Kind == fdb.AccessReadConflict || a.Kind == fdb.AccessRead && !a.Snapshot {
				if err := f(a); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func writes(a fdb.Access) bool {
	return a.Kind == fdb.AccessWrite || a.Kind == fdb.AccessClear || a.Kind == fdb.AccessWriteConflict
}

func allowed(a fdb.Access, sets ...[]Range) bool {
	for _, rs := range sets {
		for _, r := range rs {
			if r.Holds(a.Begin, a.End) {
				return true
			}
		}
	}
	return false
}

// DecodeKey renders key as the tuple elements it starts with, then any bytes
// that do not unpack, in hex (tuple.Describe); a directory node key and the
// metadata version key are named as such.
func DecodeKey(key []byte) string {
	if bytes.Equal(key, fdb.MetadataVersionKey) {
		return `\xff/metadataVersion`
	}
	if len(key) > 0 && key[0] == 0xFE { // directory.NewLayer's node prefix
		return "directory " + DecodeKey(key[1:])
	}
	return tuple.Describe(key)
}
