package fdb

import (
	"bytes"
	"sort"
)

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
// only reader, Database.Size, serves tests and the rl tour and walks instead.
//
// Node priorities are a hash of the key, so the shape of a tree is a function
// of the keys in it and of nothing else — not of insertion order, and not of
// how a commit applies its batch. treapApply relies on that: it builds, in
// one pass, node for node the tree that inserting and deleting the batch's
// keys one at a time would have built.

type entry struct {
	key, value []byte
}

// val is the entry's value, nil for the nil entry of an absent key.
func (e *entry) val() []byte {
	if e == nil {
		return nil
	}
	return e.value
}

type node struct {
	e           *entry
	prio        uint64
	left, right *node
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

// treapGet returns the entry stored under key, or nil.
func treapGet(n *node, key []byte) *entry {
	for n != nil {
		switch c := bytes.Compare(key, n.e.key); {
		case c < 0:
			n = n.left
		case c > 0:
			n = n.right
		default:
			return n.e
		}
	}
	return nil
}

// treapCount walks the tree and counts its keys.
func treapCount(n *node) int {
	if n == nil {
		return 0
	}
	return 1 + treapCount(n.left) + treapCount(n.right)
}

// treapPut stores e in a treap that has one owner — a transaction's write
// buffer — rewriting nodes in place; prio is keyPrio(e.key). It returns the
// new root and the entry e replaced, if any. Nothing is written on the way
// down: the new node is hung where its rank puts it, and the subtree that was
// there, which cannot hold the key, is unzipped into its two sides.
func treapPut(root *node, e *entry, prio uint64) (*node, *entry) {
	link, n := &root, root
	for n != nil && n.prio >= prio {
		switch c := bytes.Compare(e.key, n.e.key); {
		case c == 0:
			old := n.e
			n.e = e
			return root, old
		case c < 0:
			link = &n.left
		default:
			link = &n.right
		}
		n = *link
	}
	m := &node{e: e, prio: prio}
	*link = m
	less, more := &m.left, &m.right // where the next smaller and next larger node go
	for n != nil {
		if bytes.Compare(n.e.key, e.key) < 0 {
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
func treapMerge(l, r *node) *node {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.prio > r.prio:
		return &node{e: l.e, prio: l.prio, left: l.left, right: treapMerge(l.right, r)}
	default:
		return &node{e: r.e, prio: r.prio, left: treapMerge(l, r.left), right: r.right}
	}
}

// treapSplit partitions n into keys < key and keys >= key, copying the nodes
// on the path between them.
func treapSplit(n *node, key []byte) (l, r *node) {
	if n == nil {
		return nil, nil
	}
	m := &node{e: n.e, prio: n.prio}
	if bytes.Compare(n.e.key, key) < 0 {
		m.left = n.left
		m.right, r = treapSplit(n.right, key)
		return m, r
	}
	m.right = n.right
	l, m.left = treapSplit(n.left, key)
	return l, m
}

// treapClearRange removes every key in [begin, end) in O(log n) copies,
// whatever the number of keys removed.
func treapClearRange(n *node, begin, end []byte) *node {
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
	e    *entry
	prio uint64
}

// treapApply returns n with ws, sorted by key and free of duplicates, applied.
// It descends once, handing each subtree the part of the batch that falls
// into it, so a node above several of the batch's keys is copied once rather
// than once per key, and a subtree above none is shared as it is. Where the
// batch holds an insert that outranks the subtree's root, the subtree is split
// at that key and the insert becomes the root — where rotations would have
// carried it had it been inserted alone.
func treapApply(n *node, ws []write) *node {
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
		return &node{e: ws[top].e, prio: ws[top].prio, left: treapApply(l, ws[:top]), right: treapApply(r, ws[top+1:])}
	}
	if n == nil {
		return nil // deletes of absent keys
	}
	i := sort.Search(len(ws), func(i int) bool { return bytes.Compare(ws[i].key, n.e.key) >= 0 })
	e, rest := n.e, ws[i:]
	if len(rest) > 0 && bytes.Equal(rest[0].key, n.e.key) {
		e, rest = rest[0].e, rest[1:]
	}
	left, right := treapApply(n.left, ws[:i]), treapApply(n.right, rest)
	switch {
	case e == nil:
		return treapMerge(left, right)
	case e == n.e && left == n.left && right == n.right:
		return n
	}
	return &node{e: e, prio: n.prio, left: left, right: right}
}

// treapIter walks a treap in key order (ascending or descending) from a seek
// position. The stack holds nodes whose own entry is still pending; it lives
// inside the iterator, so a range read that declares one as a local allocates
// nothing, and spills to the heap only past a depth no hashed treap reaches.
type treapIter struct {
	stack   [64]*node
	spill   []*node
	depth   int
	reverse bool
}

// seek positions the iterator at the first key >= key (ascending) or the
// last key < key (descending, i.e. strictly before an end key).
func (it *treapIter) seek(root *node, key []byte, reverse bool) {
	it.depth, it.spill, it.reverse = 0, it.spill[:0], reverse
	for n := root; n != nil; {
		if before := bytes.Compare(n.e.key, key) < 0; before == reverse {
			it.push(n)
			n = it.toward(n)
		} else {
			n = it.away(n)
		}
	}
}

// toward is the child that comes before n in scan order, away the one after.
func (it *treapIter) toward(n *node) *node {
	if it.reverse {
		return n.right
	}
	return n.left
}

func (it *treapIter) away(n *node) *node {
	if it.reverse {
		return n.left
	}
	return n.right
}

func (it *treapIter) push(n *node) {
	if it.depth < len(it.stack) {
		it.stack[it.depth] = n
	} else {
		it.spill = append(it.spill, n)
	}
	it.depth++
}

// peek returns the next node without consuming it, or nil when exhausted.
func (it *treapIter) peek() *node {
	switch {
	case it.depth == 0:
		return nil
	case it.depth <= len(it.stack):
		return it.stack[it.depth-1]
	}
	return it.spill[len(it.spill)-1]
}

// next consumes and returns the next node, advancing the iterator.
func (it *treapIter) next() *node {
	n := it.peek()
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
