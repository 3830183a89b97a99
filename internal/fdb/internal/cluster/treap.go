package cluster

import (
	"bytes"
	"sort"
)

// Entry is one stored key and its value. Neither is written again once an
// Entry is built, so readers share its bytes.
type Entry struct {
	Key, Value []byte
}

// Val is the entry's value, nil for the nil entry of an absent key.
func (e *Entry) Val() []byte {
	if e == nil {
		return nil
	}
	return e.Value
}

// Node is one node of a treap. A committed tree's nodes are never written
// again; a write buffer's are its owner's to rewrite.
type Node struct {
	E           *Entry
	prio        uint64
	left, right *Node
}

// keyPrio is FNV-1a over the key, mixed so nearly-identical keys do not
// produce correlated priorities.
func keyPrio(key []byte) uint64 {
	v := uint64(14695981039346656037)
	for _, b := range key {
		v ^= uint64(b)
		v *= 1099511628211
	}
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	return v
}

// Get returns the entry stored under key, or nil.
func Get(n *Node, key []byte) *Entry {
	for n != nil {
		switch c := bytes.Compare(key, n.E.Key); {
		case c < 0:
			n = n.left
		case c > 0:
			n = n.right
		default:
			return n.E
		}
	}
	return nil
}

// Count walks the tree and counts its keys.
func Count(n *Node) int {
	if n == nil {
		return 0
	}
	return 1 + Count(n.left) + Count(n.right)
}

// Put stores e in a treap that has one owner — a transaction's write
// buffer — rewriting nodes in place. It returns the new root and the entry e
// replaced, if any. Nothing is written on the way down: the new node is hung
// where its rank puts it, and the subtree that was there, which cannot hold
// the key, is unzipped into its two sides.
func Put(root *Node, e *Entry) (*Node, *Entry) {
	prio := keyPrio(e.Key)
	link, n := &root, root
	for n != nil && n.prio >= prio {
		switch c := bytes.Compare(e.Key, n.E.Key); {
		case c == 0:
			old := n.E
			n.E = e
			return root, old
		case c < 0:
			link = &n.left
		default:
			link = &n.right
		}
		n = *link
	}
	m := &Node{E: e, prio: prio}
	*link = m
	less, more := &m.left, &m.right // where the next smaller and next larger node go
	for n != nil {
		if bytes.Compare(n.E.Key, e.Key) < 0 {
			*less, less, n = n, &n.right, n.right
		} else {
			*more, more, n = n, &n.left, n.left
		}
	}
	*less, *more = nil, nil
	return root, nil
}

// treapMerge joins two treaps where every key in l precedes every key in r,
// copying the nodes it changes.
func treapMerge(l, r *Node) *Node {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.prio > r.prio:
		return &Node{E: l.E, prio: l.prio, left: l.left, right: treapMerge(l.right, r)}
	default:
		return &Node{E: r.E, prio: r.prio, left: treapMerge(l, r.left), right: r.right}
	}
}

// treapSplit partitions n into keys < key and keys >= key, copying the nodes
// on the path between them.
func treapSplit(n *Node, key []byte) (l, r *Node) {
	if n == nil {
		return nil, nil
	}
	m := &Node{E: n.E, prio: n.prio}
	if bytes.Compare(n.E.Key, key) < 0 {
		m.left = n.left
		m.right, r = treapSplit(n.right, key)
		return m, r
	}
	m.right = n.right
	l, m.left = treapSplit(n.left, key)
	return l, m
}

// ClearRange removes every key in [begin, end) in O(log n) copies,
// whatever the number of keys removed.
func ClearRange(n *Node, begin, end []byte) *Node {
	if bytes.Compare(begin, end) >= 0 {
		return n
	}
	l, rest := treapSplit(n, begin)
	_, r := treapSplit(rest, end)
	return treapMerge(l, r)
}

// write is one key of a commit's batch: e replaces or inserts the key (prio is
// keyPrio(key)), a nil e deletes it.
type write struct {
	key  []byte
	e    *Entry
	prio uint64
}

// treapApply returns n with ws, sorted by key and free of duplicates, applied.
// It descends once, handing each subtree the part of the batch that falls
// into it, so a node above several of the batch's keys is copied once rather
// than once per key, and a subtree above none is shared as it is. Where the
// batch holds an insert that outranks the subtree's root, the subtree is split
// at that key and the insert becomes the root — where rotations would have
// carried it had it been inserted alone.
func treapApply(n *Node, ws []write) *Node {
	if len(ws) == 0 {
		return n
	}
	top := -1 // the insert of highest priority
	for i := range ws {
		if ws[i].e != nil && (top < 0 || ws[i].prio > ws[top].prio) {
			top = i
		}
	}
	// A key n's subtree already holds ranks no higher than n, so a top that
	// outranks n is absent from it and the split loses nothing.
	if top >= 0 && (n == nil || ws[top].prio > n.prio) {
		l, r := treapSplit(n, ws[top].key)
		return &Node{E: ws[top].e, prio: ws[top].prio, left: treapApply(l, ws[:top]), right: treapApply(r, ws[top+1:])}
	}
	if n == nil {
		return nil // deletes of absent keys
	}
	i := sort.Search(len(ws), func(i int) bool { return bytes.Compare(ws[i].key, n.E.Key) >= 0 })
	e, rest := n.E, ws[i:]
	if len(rest) > 0 && bytes.Equal(rest[0].key, n.E.Key) {
		e, rest = rest[0].e, rest[1:]
	}
	left, right := treapApply(n.left, ws[:i]), treapApply(n.right, rest)
	switch {
	case e == nil:
		return treapMerge(left, right)
	case e == n.E && left == n.left && right == n.right:
		return n
	}
	return &Node{E: e, prio: n.prio, left: left, right: right}
}

// Iter walks a treap in key order (ascending or descending) from a seek
// position. The stack holds nodes whose own entry is still pending; it lives
// inside the iterator, so a range read that declares one as a local allocates
// nothing, and spills to the heap only past a depth no hashed treap reaches.
type Iter struct {
	stack   [64]*Node
	spill   []*Node
	depth   int
	reverse bool
}

// Seek positions the iterator at the first key >= key (ascending) or the
// last key < key (descending, i.e. strictly before an end key).
func (it *Iter) Seek(root *Node, key []byte, reverse bool) {
	it.depth, it.spill, it.reverse = 0, it.spill[:0], reverse
	for n := root; n != nil; {
		if before := bytes.Compare(n.E.Key, key) < 0; before == reverse {
			it.push(n)
			n = it.toward(n)
		} else {
			n = it.away(n)
		}
	}
}

// toward is the child that comes before n in scan order, away the one after.
func (it *Iter) toward(n *Node) *Node {
	if it.reverse {
		return n.right
	}
	return n.left
}

func (it *Iter) away(n *Node) *Node {
	if it.reverse {
		return n.left
	}
	return n.right
}

func (it *Iter) push(n *Node) {
	if it.depth < len(it.stack) {
		it.stack[it.depth] = n
	} else {
		it.spill = append(it.spill, n)
	}
	it.depth++
}

// Peek returns the next node without consuming it, or nil when exhausted.
func (it *Iter) Peek() *Node {
	switch {
	case it.depth == 0:
		return nil
	case it.depth <= len(it.stack):
		return it.stack[it.depth-1]
	}
	return it.spill[len(it.spill)-1]
}

// Next consumes and returns the next node, advancing the iterator.
func (it *Iter) Next() *Node {
	n := it.Peek()
	if n == nil {
		return nil
	}
	if it.depth > len(it.stack) {
		it.spill = it.spill[:len(it.spill)-1]
	}
	it.depth--
	for c := it.away(n); c != nil; c = it.toward(c) {
		it.push(c)
	}
	return n
}
