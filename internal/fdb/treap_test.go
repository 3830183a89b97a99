package fdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// treapInsert and treapDelete are the one-key-at-a-time persistent treap the
// store used before commits were applied in bulk: each copies its own
// root-to-leaf path and rotates the new key up. They stay as the reference
// treapApply must agree with, node for node.
func treapInsert(n *node, key, value []byte) *node {
	if n == nil {
		return &node{e: &entry{key: key, value: value}, prio: keyPrio(key)}
	}
	m := *n
	switch c := bytes.Compare(key, n.e.key); {
	case c == 0:
		m.e = &entry{key: key, value: value}
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

func treapDelete(n *node, key []byte) *node {
	if n == nil {
		return nil
	}
	m := *n
	switch c := bytes.Compare(key, n.e.key); {
	case c == 0:
		return treapMerge(n.left, n.right)
	case c < 0:
		m.left = treapDelete(n.left, key)
	default:
		m.right = treapDelete(n.right, key)
	}
	return &m
}

func sameShape(a, b *node) bool {
	if a == nil || b == nil {
		return a == b
	}
	return bytes.Equal(a.e.key, b.e.key) && sameShape(a.left, b.left) && sameShape(a.right, b.right)
}

// sameTree is sameShape plus equal values.
func sameTree(a, b *node) bool {
	if a == nil || b == nil {
		return a == b
	}
	return bytes.Equal(a.e.key, b.e.key) && bytes.Equal(a.e.value, b.e.value) &&
		sameTree(a.left, b.left) && sameTree(a.right, b.right)
}

// sequentialCommit is commit as it was: every clear a split, split and merge,
// then the buffer's keys inserted or deleted one at a time in key order, then
// the versionstamped keys. It returns the root and what KeysWritten and
// BytesWritten should grow by.
func sequentialCommit(t *Transaction, root *node, version int64) (*node, int, int) {
	for _, r := range t.clears.All() {
		root = treapClearRange(root, r.Begin, r.End)
	}
	stamp := versionstampBytes(version)
	keys, size := 0, 0
	var it treapIter
	it.seek(t.writes, nil, false)
	for n := it.next(); n != nil; n = it.next() {
		key, val := n.e.key, n.e.value
		keys++
		size += len(key)
		if be := t.deferred[n.e]; be != nil && be.ops != nil {
			var cleared bool
			val, cleared = applyMutations(treapGet(root, key).val(), be.ops, t.db.opts.Limits.MaxValueSize)
			if cleared {
				root = treapDelete(root, key)
				continue
			}
		} else if be != nil {
			val = cloneBytes(val)
			copy(val[be.vsOff:], stamp)
		}
		root = treapInsert(root, key, val)
		size += len(val)
	}
	for _, op := range t.vsKeys {
		key := cloneBytes(op.rawKey)
		copy(key[op.offset:], stamp)
		root = treapInsert(root, key, op.value)
		keys++
		size += len(key) + len(op.value)
	}
	return root, keys, size
}

// frozen records every node of a tree, so a later check can tell that none
// was written to.
type frozen struct {
	at          *node
	e           *entry
	left, right *node
}

func freeze(n *node, out []frozen) []frozen {
	if n == nil {
		return out
	}
	out = append(out, frozen{n, n.e, n.left, n.right})
	return freeze(n.right, freeze(n.left, out))
}

// TestBulkCommitEqualsSequentialCommit commits seeded batches — sets of new
// and existing keys, single-key and range clears, set-after-clear, pending
// atomics (some clearing their key at commit), versionstamped values and
// versionstamped keys, two of them colliding — into seeded stores of 0 to
// 5000 keys, and requires the committed root to be node for node and value
// for value what sequentialCommit builds from the same buffer, the previous
// root to be untouched, and KeysWritten/BytesWritten to match. A failure
// prints the seed.
func TestBulkCommitEqualsSequentialCommit(t *testing.T) {
	sizes := []int{0, 1, 7, 200, 5000}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		size := sizes[rng.Intn(len(sizes))]
		space := 2*size + 20 // half the key space is in the store
		key := func(i int) []byte { return []byte(fmt.Sprintf("k%05d", i)) }
		value := func(i int) []byte { return []byte(fmt.Sprintf("v%d", i%7)) }

		db := Open(nil)
		load := db.CreateTransaction()
		for i := 0; i < size; i++ {
			_ = load.Set(key(2*i), value(i))
		}
		if err := load.Commit(); err != nil {
			t.Fatal(err)
		}

		for round := 0; round < 4; round++ {
			what := fmt.Sprintf("seed %d round %d (%d keys)", seed, round, size)
			tr := db.CreateTransaction()
			for n := rng.Intn(120); n > 0; n-- {
				i := rng.Intn(space)
				if rng.Intn(3) == 0 {
					i = space/2 + rng.Intn(8) // a hot spot: adjacent keys, clears under sets
				}
				op := rng.Intn(10)
				if (op == 6 || op == 7) && i%5 == 0 {
					i++ // every fifth key is kept for versionstamped values: see below
				}
				switch op {
				case 0, 1, 2, 3:
					_ = tr.Set(key(i), value(rng.Intn(100)))
				case 4:
					_ = tr.Clear(key(i))
				case 5:
					_ = tr.ClearRange(key(i), key(i+rng.Intn(1+space/10)))
				case 6:
					_ = tr.Atomic(MutationAdd, key(i), []byte{1, 0, 0, 0})
				case 7:
					// Matches what the loader stored for an even key of the
					// right residue: the pending op clears the key at commit.
					_ = tr.Atomic(MutationCompareAndClear, key(i), value(i/2))
				case 8:
					raw := append(key(i), make([]byte, 10)...)
					param := binary.LittleEndian.AppendUint32(raw, uint32(len(raw)-10))
					if rng.Intn(2) == 0 {
						_ = tr.Atomic(MutationSetVersionstampedKey, param, value(i))
					} else {
						// Never a key an atomic op above may also touch: the buffer
						// would fold the op over the unstamped bytes.
						_ = tr.Atomic(MutationSetVersionstampedValue, key(i-i%5), param)
					}
				case 9:
					// The same versionstamped key twice: the later one wins.
					raw := append(key(space/2), make([]byte, 10)...)
					_ = tr.Atomic(MutationSetVersionstampedKey, binary.LittleEndian.AppendUint32(raw, 6), value(n))
				}
			}
			before := db.root
			was := freeze(before, nil)
			want, keys, nbytes := sequentialCommit(tr, before, db.version+versionStep)
			if err := tr.Commit(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if !sameTree(db.root, want) {
				t.Fatalf("%s: bulk commit and sequential commit built different trees (%d and %d keys)", what, treapCount(db.root), treapCount(want))
			}
			if st := tr.Stats(); st.KeysWritten != keys || st.BytesWritten != nbytes {
				t.Fatalf("%s: KeysWritten %d BytesWritten %d, want %d and %d", what, st.KeysWritten, st.BytesWritten, keys, nbytes)
			}
			for _, f := range was {
				if f.at.e != f.e || f.at.left != f.left || f.at.right != f.right {
					t.Fatalf("%s: commit wrote to a node of the previous root (key %q)", what, f.e.key)
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
		store[i] = write{key: k, e: &entry{key: k, value: []byte("v")}, prio: keyPrio(k)}
	}
	root := treapApply(nil, store)
	batch := make([]write, m)
	for i := range batch {
		k := []byte(fmt.Sprintf("k%06d/%03d", n/2, i))
		batch[i] = write{key: k, e: &entry{key: k, value: []byte("v")}, prio: keyPrio(k)}
	}
	var bulk, seq *node
	bulkNodes := testing.AllocsPerRun(5, func() { bulk = treapApply(root, batch) })
	bound := 2 * (m + math.Log2(n))
	if bulkNodes > bound {
		t.Errorf("bulk commit of %d adjacent keys into %d allocated %.0f nodes, bound %.0f", m, n, bulkNodes, bound)
	}
	// Two allocations a key are its entry and its leaf, not copies.
	seqNodes := testing.AllocsPerRun(1, func() {
		seq = root
		for _, w := range batch {
			seq = treapInsert(seq, w.key, w.e.value)
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
	var left, right *node // a chain of left children, and one of right children
	for i := 0; i < depth; i++ {
		k := []byte(fmt.Sprintf("k%03d", i))
		left = &node{e: &entry{key: k}, left: left}
		k = []byte(fmt.Sprintf("k%03d", depth-1-i))
		right = &node{e: &entry{key: k}, right: right}
	}
	for _, root := range []*node{left, right} {
		for _, reverse := range []bool{false, true} {
			var it treapIter
			it.seek(root, []byte("k100"), reverse)
			want, step, count := 100, 1, depth-100
			if reverse {
				want, step, count = 99, -1, 100
			}
			for ; count > 0; count, want = count-1, want+step {
				if n := it.next(); n == nil || string(n.e.key) != fmt.Sprintf("k%03d", want) {
					t.Fatalf("reverse=%v: got %v, want k%03d", reverse, n, want)
				}
			}
			if n := it.next(); n != nil {
				t.Fatalf("reverse=%v: %q after the last key", reverse, n.e.key)
			}
		}
	}
}
