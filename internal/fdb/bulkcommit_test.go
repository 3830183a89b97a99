package fdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"recordlayer/internal/fdb/internal/cluster"
)

// storeContents reads every key of db.
func storeContents(t *testing.T, db *Database) map[string][]byte {
	kvs, _, err := db.CreateTransaction().Snapshot().GetRange(nil, []byte{0xff}, RangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(kvs))
	for _, kv := range kvs {
		out[string(kv.Key)] = kv.Value
	}
	return out
}

// sequentialCommit is commit as it was, on a map of the store's keys: every
// clear, then the buffer's keys set or deleted one at a time in key order,
// then the versionstamped keys. It returns what KeysWritten and BytesWritten
// should grow by.
func sequentialCommit(t *Transaction, kvs map[string][]byte, version int64) (map[string][]byte, int, int) {
	for _, r := range t.req.Clears.All() {
		for k := range kvs {
			if string(r.Begin) <= k && k < string(r.End) {
				delete(kvs, k)
			}
		}
	}
	stamp := cluster.Versionstamp(version)
	keys, size := 0, 0
	var it cluster.Iter
	it.Seek(t.req.Writes, nil, false)
	for n := it.Next(); n != nil; n = it.Next() {
		key, val := n.E.Key, n.E.Value
		keys++
		size += len(key)
		if be := t.req.Deferred[n.E]; be != nil && be.Ops != nil {
			var cleared bool
			val, cleared = cluster.ApplyMutations(kvs[string(key)], be.Ops, t.db.opts.Limits.MaxValueSize)
			if cleared {
				delete(kvs, string(key))
				continue
			}
		} else if be != nil {
			val = cloneBytes(val)
			copy(val[be.VsOff:], stamp)
		}
		kvs[string(key)] = val
		size += len(val)
	}
	for _, op := range t.req.VsKeys {
		key := cloneBytes(op.RawKey)
		copy(key[op.Offset:], stamp)
		kvs[string(key)] = op.Value
		keys++
		size += len(key) + len(op.Value)
	}
	return kvs, keys, size
}

// TestBulkCommitEqualsSequentialCommit commits seeded batches — sets of new
// and existing keys, single-key and range clears, set-after-clear, pending
// atomics (some clearing their key at commit), versionstamped values and
// versionstamped keys, two of them colliding — into seeded stores of 0 to
// 5000 keys, and requires KeysWritten/BytesWritten to match what
// sequentialCommit counts from the same buffer, and the store to hold what it
// builds. The cluster package's test of the same name holds the committed
// tree to a sequential build node for node. A failure prints the seed.
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
			want, keys, nbytes := sequentialCommit(tr, storeContents(t, db), db.ReadVersion()+cluster.VersionStep)
			if err := tr.Commit(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if got := storeContents(t, db); !maps.EqualFunc(got, want, bytes.Equal) {
				t.Fatalf("%s: bulk commit and sequential commit left different stores (%d and %d keys)", what, len(got), len(want))
			}
			if st := tr.Stats(); st.KeysWritten != keys || st.BytesWritten != nbytes {
				t.Fatalf("%s: KeysWritten %d BytesWritten %d, want %d and %d", what, st.KeysWritten, st.BytesWritten, keys, nbytes)
			}
		}
	}
}
