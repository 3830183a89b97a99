package cluster

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// treapInsert and treapDelete are the one-key-at-a-time persistent treap the
// store used before commits were applied in bulk: each copies its own
// root-to-leaf path and rotates the new key up. They stay as the reference
// treapApply must agree with, node for node.
func treapInsert(n *Node, key, value []byte) *Node {
	if n == nil {
		return &Node{E: &Entry{Key: key, Value: value}, prio: keyPrio(key)}
	}
	m := *n
	switch c := bytes.Compare(key, n.E.Key); {
	case c == 0:
		m.E = &Entry{Key: key, Value: value}
	case c < 0:
		m.left = treapInsert(n.left, key, value)
		if l := m.left; l.prio > m.prio {
			m.left, l.right = l.right, &m
			return l
		}
	default:
		m.right = treapInsert(n.right, key, value)
		if r := m.right; r.prio > m.prio {
			m.right, r.left = r.left, &m
			return r
		}
	}
	return &m
}

func treapDelete(n *Node, key []byte) *Node {
	if n == nil {
		return nil
	}
	m := *n
	switch c := bytes.Compare(key, n.E.Key); {
	case c == 0:
		return treapMerge(n.left, n.right)
	case c < 0:
		m.left = treapDelete(n.left, key)
	default:
		m.right = treapDelete(n.right, key)
	}
	return &m
}

func sameShape(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	return bytes.Equal(a.E.Key, b.E.Key) && sameShape(a.left, b.left) && sameShape(a.right, b.right)
}

// sameTree is sameShape plus equal values.
func sameTree(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	return bytes.Equal(a.E.Key, b.E.Key) && bytes.Equal(a.E.Value, b.E.Value) &&
		sameTree(a.left, b.left) && sameTree(a.right, b.right)
}

// sequentialCommit is commit as it was: every clear a split, split and merge,
// then the buffer's keys inserted or deleted one at a time in key order, then
// the versionstamped keys. It returns the root and what KeysWritten and
// BytesWritten should be.
func sequentialCommit(r *CommitRequest, root *Node, version int64) (*Node, int, int) {
	for _, cr := range r.Clears.All() {
		root = ClearRange(root, cr.Begin, cr.End)
	}
	stamp := Versionstamp(version)
	keys, size := 0, 0
	var it Iter
	it.Seek(r.Writes, nil, false)
	for n := it.Next(); n != nil; n = it.Next() {
		key, val := n.E.Key, n.E.Value
		keys++
		size += len(key)
		be := r.Deferred[n.E]
		if be != nil && be.VsOff >= 0 {
			val = bytes.Clone(val)
			copy(val[be.VsOff:], stamp)
		} else if be != nil {
			val = Get(root, key).Val()
		}
		if be != nil && be.Ops != nil {
			var cleared bool
			if val, cleared = ApplyMutations(val, be.Ops, maxValue); cleared {
				root = treapDelete(root, key)
				continue
			}
		}
		root = treapInsert(root, key, val)
		size += len(val)
	}
	for _, op := range r.VsKeys {
		key := bytes.Clone(op.RawKey)
		copy(key[op.Offset:], stamp)
		root = treapInsert(root, key, op.Value)
		keys++
		size += len(key) + len(op.Value)
	}
	return root, keys, size
}

// frozen records every node of a tree, so a later check can tell that none
// was written to.
type frozen struct {
	at          *Node
	e           *Entry
	left, right *Node
}

func freeze(n *Node, out []frozen) []frozen {
	if n == nil {
		return out
	}
	out = append(out, frozen{n, n.E, n.left, n.right})
	return freeze(n.right, freeze(n.left, out))
}

// TestBulkCommitEqualsSequentialCommit commits seeded requests — sets of new
// and existing keys, single-key and range clears, set-after-clear, pending
// atomics (some clearing their key at commit), versionstamped values, some
// with ops after the stamp, and versionstamped keys, some colliding — into
// seeded stores of 0 to 5000 keys, and requires the committed root to be node
// for node and value for value what sequentialCommit builds from the same
// request, the previous root to be untouched, and the verdict's KeysWritten
// and BytesWritten to match. A failure prints the seed.
func TestBulkCommitEqualsSequentialCommit(t *testing.T) {
	sizes := []int{0, 1, 7, 200, 5000}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		size := sizes[rng.Intn(len(sizes))]
		g := newReqGen(rng, numberedKeys(2*size+20), allKinds) // half the key space is in the store
		c := New(maxValue, nil)
		load := &CommitRequest{}
		for i := 0; i < size; i++ {
			load.Writes, _ = Put(load.Writes, &Entry{Key: g.keys[2*i], Value: g.value()})
		}
		c.Commit(load)

		for round := 0; round < 4; round++ {
			what := fmt.Sprintf("seed %d round %d (%d keys)", seed, round, size)
			r := g.request(c.ReadVersion(), rng.Intn(120))
			before := c.GRV()
			was := freeze(before.Root, nil)
			want, keys, nbytes := sequentialCommit(r, before.Root, before.Version+VersionStep)
			v := c.Commit(r)
			if v.Outcome != Committed {
				t.Fatalf("%s: outcome %d", what, v.Outcome)
			}
			if root := c.GRV().Root; !sameTree(root, want) {
				t.Fatalf("%s: bulk commit and sequential commit built different trees (%d and %d keys)", what, Count(root), Count(want))
			}
			if v.KeysWritten != keys || v.BytesWritten != nbytes {
				t.Fatalf("%s: KeysWritten %d BytesWritten %d, want %d and %d", what, v.KeysWritten, v.BytesWritten, keys, nbytes)
			}
			for _, f := range was {
				if f.at.E != f.e || f.at.left != f.left || f.at.right != f.right {
					t.Fatalf("%s: commit wrote to a node of the previous root (key %q)", what, f.e.Key)
				}
			}
		}
	}
}

// TestBulkCommitCopiesEachNodeOnce pins what a commit allocates in the tree:
// m adjacent new keys going into a store of n = 100 000 lie under one
// root-to-leaf path, so the bulk pass makes m new nodes and copies the path —
// a little more than once, since a batch key that outranks a subtree splits
// it and both halves are then descended. 2·(m + log₂n) nodes is the bound (160 measured against 233);
// one path copy per key, what sequential insertion does, is m · depth, more
// than ten times that.
func TestBulkCommitCopiesEachNodeOnce(t *testing.T) {
	const n, m = 100_000, 100
	store := make([]write, n)
	for i := range store {
		k := []byte(fmt.Sprintf("k%06d", i))
		store[i] = write{key: k, e: &Entry{Key: k, Value: []byte("v")}, prio: keyPrio(k)}
	}
	root := treapApply(nil, store)
	batch := make([]write, m)
	for i := range batch {
		k := []byte(fmt.Sprintf("k%06d/%03d", n/2, i))
		batch[i] = write{key: k, e: &Entry{Key: k, Value: []byte("v")}, prio: keyPrio(k)}
	}
	var bulk, seq *Node
	bulkNodes := testing.AllocsPerRun(5, func() { bulk = treapApply(root, batch) })
	bound := 2 * (m + math.Log2(n))
	if bulkNodes > bound {
		t.Errorf("bulk commit of %d adjacent keys into %d allocated %.0f nodes, bound %.0f", m, n, bulkNodes, bound)
	}
	// Two allocations a key are its entry and its leaf, not copies.
	seqNodes := testing.AllocsPerRun(1, func() {
		seq = root
		for _, w := range batch {
			seq = treapInsert(seq, w.key, w.e.Value)
		}
	}) - 2*m
	if seqNodes < 10*bulkNodes {
		t.Errorf("sequential insertion copied %.0f nodes against %.0f in bulk: the bound above proves nothing", seqNodes, bulkNodes)
	}
	if !sameTree(bulk, seq) {
		t.Error("bulk and sequential insertion built different trees")
	}
	t.Logf("%d adjacent keys into %d: %.0f nodes in bulk, %.0f one key at a time", m, n, bulkNodes, seqNodes)
}

// TestTreapIterSpillsPastInlineStack walks a tree deeper than the iterator's
// inline stack: hashed priorities never build one, so it is built by hand.
func TestTreapIterSpillsPastInlineStack(t *testing.T) {
	const depth = 200
	var left, right *Node // a chain of left children, and one of right children
	for i := 0; i < depth; i++ {
		k := []byte(fmt.Sprintf("k%03d", i))
		left = &Node{E: &Entry{Key: k}, left: left}
		k = []byte(fmt.Sprintf("k%03d", depth-1-i))
		right = &Node{E: &Entry{Key: k}, right: right}
	}
	for _, root := range []*Node{left, right} {
		for _, reverse := range []bool{false, true} {
			var it Iter
			it.Seek(root, []byte("k100"), reverse)
			want, step, count := 100, 1, depth-100
			if reverse {
				want, step, count = 99, -1, 100
			}
			for ; count > 0; count, want = count-1, want+step {
				if n := it.Next(); n == nil || string(n.E.Key) != fmt.Sprintf("k%03d", want) {
					t.Fatalf("reverse=%v: got %v, want k%03d", reverse, n, want)
				}
			}
			if n := it.Next(); n != nil {
				t.Fatalf("reverse=%v: %q after the last key", reverse, n.E.Key)
			}
		}
	}
}

func TestTreapIterSeek(t *testing.T) {
	var root *Node
	for i := 0; i < 100; i += 2 {
		root = treapInsert(root, []byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	var it, rit Iter
	it.Seek(root, []byte("k005"), false)
	n := it.Next()
	if string(n.E.Key) != "k006" {
		t.Fatalf("seek: got %s", n.E.Key)
	}
	rit.Seek(root, []byte("k005"), true)
	rn := rit.Next()
	if string(rn.E.Key) != "k004" {
		t.Fatalf("reverse seek: got %s", rn.E.Key)
	}
}

func TestTreapDeterministicShape(t *testing.T) {
	keys := []string{"m", "c", "x", "a", "q", "t", "e"}
	var r1, r2 *Node
	for _, k := range keys {
		r1 = treapInsert(r1, []byte(k), []byte("v"))
	}
	for i := len(keys) - 1; i >= 0; i-- {
		r2 = treapInsert(r2, []byte(keys[i]), []byte("v"))
	}
	if !sameShape(r1, r2) {
		t.Fatal("treap shape depends on insertion order")
	}
}
