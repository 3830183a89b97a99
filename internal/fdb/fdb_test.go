package fdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func mustSet(t *testing.T, tr *Transaction, k, v string) {
	t.Helper()
	if err := tr.Set([]byte(k), []byte(v)); err != nil {
		t.Fatal(err)
	}
}

func mustCommit(t *testing.T, tr *Transaction) {
	t.Helper()
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
}

func mustGet(t *testing.T, tr *Transaction, k string) []byte {
	t.Helper()
	v, err := tr.Get([]byte(k))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// kvsOf copies a future's reply into a slice, for comparing with GetRange.
func kvsOf(p Pairs) []KeyValue {
	var kvs []KeyValue
	for i := range p.Len() {
		kvs = append(kvs, p.At(i))
	}
	return kvs
}

func TestSetGetCommit(t *testing.T) {
	db := Open(nil)
	tr := db.CreateTransaction()
	mustSet(t, tr, "a", "1")
	if got := mustGet(t, tr, "a"); string(got) != "1" {
		t.Fatalf("read own write: got %q", got)
	}
	mustCommit(t, tr)

	tr2 := db.CreateTransaction()
	if got := mustGet(t, tr2, "a"); string(got) != "1" {
		t.Fatalf("read committed: got %q", got)
	}
	if got := mustGet(t, tr2, "missing"); got != nil {
		t.Fatalf("missing key: got %q", got)
	}
}

func TestSnapshotIsolationOfReads(t *testing.T) {
	db := Open(nil)
	tr := db.CreateTransaction()
	mustSet(t, tr, "k", "old")
	mustCommit(t, tr)

	reader := db.CreateTransaction()
	if got := mustGet(t, reader, "k"); string(got) != "old" {
		t.Fatal("initial read")
	}

	writer := db.CreateTransaction()
	mustSet(t, writer, "k", "new")
	mustCommit(t, writer)

	// Reader still sees its snapshot.
	if got := mustGet(t, reader, "k"); string(got) != "old" {
		t.Fatalf("MVCC violated: got %q", got)
	}
}

func TestWriteConflict(t *testing.T) {
	db := Open(nil)
	seed := db.CreateTransaction()
	mustSet(t, seed, "k", "0")
	mustCommit(t, seed)

	t1 := db.CreateTransaction()
	t2 := db.CreateTransaction()
	mustGet(t, t1, "k")
	mustGet(t, t2, "k")
	mustSet(t, t1, "k", "1")
	mustSet(t, t2, "k", "2")
	mustCommit(t, t1)
	err := t2.Commit()
	if !IsConflict(err) {
		t.Fatalf("expected conflict, got %v", err)
	}
	if db.Metrics().Conflicts.Load() != 1 {
		t.Fatalf("conflict metric: %d", db.Metrics().Conflicts.Load())
	}
}

func TestNoConflictWithoutOverlap(t *testing.T) {
	db := Open(nil)
	t1 := db.CreateTransaction()
	t2 := db.CreateTransaction()
	mustGet(t, t1, "a")
	mustGet(t, t2, "b")
	mustSet(t, t1, "a", "1")
	mustSet(t, t2, "b", "2")
	mustCommit(t, t1)
	mustCommit(t, t2) // disjoint keys: both commit
}

func TestBlindWriteDoesNotConflict(t *testing.T) {
	db := Open(nil)
	t1 := db.CreateTransaction()
	t2 := db.CreateTransaction()
	// Neither transaction reads, so writes race benignly (last write wins).
	mustSet(t, t1, "k", "1")
	mustSet(t, t2, "k", "2")
	mustCommit(t, t1)
	mustCommit(t, t2)
	got, _ := db.Transact(func(tr *Transaction) (interface{}, error) {
		return tr.Get([]byte("k"))
	})
	if string(got.([]byte)) != "2" {
		t.Fatalf("last write should win: %q", got)
	}
}

func TestSnapshotReadAvoidsConflict(t *testing.T) {
	db := Open(nil)
	seed := db.CreateTransaction()
	mustSet(t, seed, "k", "0")
	mustCommit(t, seed)

	t1 := db.CreateTransaction()
	if _, err := t1.Snapshot().Get([]byte("k")); err != nil {
		t.Fatal(err)
	}
	mustSet(t, t1, "other", "x")

	t2 := db.CreateTransaction()
	mustSet(t, t2, "k", "1")
	mustCommit(t, t2)

	mustCommit(t, t1) // snapshot read of k: no conflict
}

func TestRangeReadConflict(t *testing.T) {
	db := Open(nil)
	t1 := db.CreateTransaction()
	if _, _, err := t1.GetRange([]byte("a"), []byte("z"), RangeOptions{}); err != nil {
		t.Fatal(err)
	}
	mustSet(t, t1, "out", "x") // key outside [a,z) so only the range read conflicts

	t2 := db.CreateTransaction()
	mustSet(t, t2, "m", "1") // write into the scanned range
	mustCommit(t, t2)

	if err := t1.Commit(); !IsConflict(err) {
		t.Fatalf("range read should conflict with write inside it: %v", err)
	}
}

func TestGetRangeBasic(t *testing.T) {
	db := Open(nil)
	tr := db.CreateTransaction()
	for i := 0; i < 10; i++ {
		mustSet(t, tr, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i))
	}
	mustCommit(t, tr)

	tr2 := db.CreateTransaction()
	kvs, more, err := tr2.GetRange([]byte("k02"), []byte("k07"), RangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if more || len(kvs) != 5 {
		t.Fatalf("got %d kvs, more=%v", len(kvs), more)
	}
	if string(kvs[0].Key) != "k02" || string(kvs[4].Key) != "k06" {
		t.Fatalf("bounds wrong: %q..%q", kvs[0].Key, kvs[4].Key)
	}
}

func TestGetRangeLimitAndMore(t *testing.T) {
	db := Open(nil)
	tr := db.CreateTransaction()
	for i := 0; i < 10; i++ {
		mustSet(t, tr, fmt.Sprintf("k%02d", i), "v")
	}
	mustCommit(t, tr)

	tr2 := db.CreateTransaction()
	kvs, more, err := tr2.GetRange([]byte("k"), []byte("l"), RangeOptions{Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 3 || !more {
		t.Fatalf("limit: got %d more=%v", len(kvs), more)
	}
}

func TestGetRangeReverse(t *testing.T) {
	db := Open(nil)
	tr := db.CreateTransaction()
	for i := 0; i < 5; i++ {
		mustSet(t, tr, fmt.Sprintf("k%d", i), "v")
	}
	mustCommit(t, tr)

	tr2 := db.CreateTransaction()
	kvs, _, err := tr2.GetRange([]byte("k"), []byte("l"), RangeOptions{Reverse: true, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 || string(kvs[0].Key) != "k4" || string(kvs[1].Key) != "k3" {
		t.Fatalf("reverse scan wrong: %v", kvs)
	}
}

func TestGetRangeMergesBufferedWrites(t *testing.T) {
	db := Open(nil)
	tr := db.CreateTransaction()
	mustSet(t, tr, "a", "1")
	mustSet(t, tr, "c", "3")
	mustCommit(t, tr)

	tr2 := db.CreateTransaction()
	mustSet(t, tr2, "b", "2")     // buffered insert
	mustSet(t, tr2, "c", "three") // buffered overwrite
	if err := tr2.Clear([]byte("a")); err != nil {
		t.Fatal(err)
	}
	kvs, _, err := tr2.GetRange([]byte("a"), []byte("z"), RangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 || string(kvs[0].Key) != "b" || string(kvs[1].Value) != "three" {
		t.Fatalf("merged view wrong: %+v", kvs)
	}
}

// TestReadsShareSnapshotBytes: every read hands out the database's own bytes
// — a committed pair's, a buffered set's, a materialized atomic's, a
// versionstamped value's placeholder — clipped to cap == len, so an append
// copies and a re-read is unchanged. The []KeyValue a range read returns is
// the caller's, and bytes read before a later Set of the same key, buffered or
// committed, keep their old contents: nothing ever writes an entry again.
func TestReadsShareSnapshotBytes(t *testing.T) {
	db := Open(nil)
	seed := db.CreateTransaction()
	mustSet(t, seed, "a", "1")
	mustSet(t, seed, "c", "\x01\x00")
	mustCommit(t, seed)

	placeholder := append([]byte("v"), bytes.Repeat([]byte{0xff}, 10)...)
	keys := []string{"a", "b", "c", "d"}
	want := []string{"1", "2", "\x02\x00", string(placeholder)}
	// fresh is a transaction over all four sources: a is committed, b a
	// buffered set, c an atomic the first read materializes, d a
	// versionstamped value its own reads see as the placeholder.
	fresh := func() *Transaction {
		tr := db.CreateTransaction()
		mustSet(t, tr, "b", "2")
		if err := tr.Atomic(MutationAdd, []byte("c"), []byte{1, 0}); err != nil {
			t.Fatal(err)
		}
		param := binary.LittleEndian.AppendUint32(append([]byte(nil), placeholder...), 1)
		if err := tr.Atomic(MutationSetVersionstampedValue, []byte("d"), param); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	type reader func(tr *Transaction) []KeyValue
	point := func(get func(tr *Transaction, k []byte) ([]byte, error)) reader {
		return func(tr *Transaction) []KeyValue {
			var out []KeyValue
			for _, k := range keys {
				v, err := get(tr, []byte(k))
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, KeyValue{Key: []byte(k), Value: v})
			}
			return out
		}
	}
	ranged := func(get func(tr *Transaction, b, e []byte) ([]KeyValue, bool, error)) reader {
		return func(tr *Transaction) []KeyValue {
			kvs, _, err := get(tr, []byte("a"), []byte("z"))
			if err != nil {
				t.Fatal(err)
			}
			return kvs
		}
	}
	opts := RangeOptions{}
	readers := []struct {
		name  string
		read  reader
		batch bool // the result is a range read's batch
	}{
		{"Get", point(func(tr *Transaction, k []byte) ([]byte, error) { return tr.Get(k) }), false},
		{"GetAsync", point(func(tr *Transaction, k []byte) ([]byte, error) { return tr.GetAsync(k).Get() }), false},
		{"Snapshot.Get", point(func(tr *Transaction, k []byte) ([]byte, error) { return tr.Snapshot().Get(k) }), false},
		{"Snapshot.GetAsync", point(func(tr *Transaction, k []byte) ([]byte, error) { return tr.Snapshot().GetAsync(k).Get() }), false},
		{"GetRange", ranged(func(tr *Transaction, b, e []byte) ([]KeyValue, bool, error) { return tr.GetRange(b, e, opts) }), true},
		{"GetRangeAsync", ranged(func(tr *Transaction, b, e []byte) ([]KeyValue, bool, error) {
			p, more, err := tr.GetRangeAsync(b, e, opts).Get()
			return kvsOf(p), more, err
		}), true},
		{"Snapshot.GetRange", ranged(func(tr *Transaction, b, e []byte) ([]KeyValue, bool, error) {
			return tr.Snapshot().GetRange(b, e, opts)
		}), true},
		{"Snapshot.GetRangeAsync", ranged(func(tr *Transaction, b, e []byte) ([]KeyValue, bool, error) {
			p, more, err := tr.Snapshot().GetRangeAsync(b, e, opts).Get()
			return kvsOf(p), more, err
		}), true},
	}
	for _, r := range readers {
		t.Run(r.name, func(t *testing.T) {
			same := func(what string, kvs []KeyValue) {
				t.Helper()
				if len(kvs) != len(keys) {
					t.Fatalf("%s: %d pairs, want %d", what, len(kvs), len(keys))
				}
				for i, kv := range kvs {
					if string(kv.Key) != keys[i] || string(kv.Value) != want[i] {
						t.Fatalf("%s: pair %d is %q=%q, want %q=%q", what, i, kv.Key, kv.Value, keys[i], want[i])
					}
				}
			}
			tr := fresh()
			kvs := r.read(tr)
			same("first read", kvs)
			if r.batch && cap(kvs) != len(kvs) {
				t.Fatalf("batch cap %d, len %d", cap(kvs), len(kvs))
			}
			for i, kv := range kvs {
				if r.batch && cap(kv.Key) != len(kv.Key) {
					t.Fatalf("pair %d: key cap %d, len %d", i, cap(kv.Key), len(kv.Key))
				}
				if cap(kv.Value) != len(kv.Value) {
					t.Fatalf("pair %d: value cap %d, len %d", i, cap(kv.Value), len(kv.Value))
				}
				_ = append(kv.Key, 'x')
				_ = append(kv.Value, 'y')
			}
			same("a re-read after appending", r.read(tr))
			if r.batch {
				other := r.read(tr)
				for i := range kvs {
					kvs[i] = KeyValue{Key: []byte("!"), Value: []byte("?")}
				}
				same("another read's batch", other)
				kvs = other
			}

			// Replace every key, in this transaction and in a committed one.
			held := kvs
			for _, k := range keys {
				mustSet(t, tr, k, "later")
			}
			w := db.CreateTransaction()
			for _, k := range keys {
				mustSet(t, w, k, "committed later")
			}
			mustCommit(t, w)
			same("bytes read before the later sets", held)
			undo := db.CreateTransaction()
			mustSet(t, undo, "a", "1")
			mustSet(t, undo, "c", "\x01\x00")
			if err := undo.ClearRange([]byte("b"), []byte("c")); err != nil {
				t.Fatal(err)
			}
			if err := undo.Clear([]byte("d")); err != nil {
				t.Fatal(err)
			}
			mustCommit(t, undo)
		})
	}
}

func TestClearRange(t *testing.T) {
	db := Open(nil)
	tr := db.CreateTransaction()
	for i := 0; i < 10; i++ {
		mustSet(t, tr, fmt.Sprintf("k%d", i), "v")
	}
	mustCommit(t, tr)

	tr2 := db.CreateTransaction()
	if err := tr2.ClearRange([]byte("k2"), []byte("k7")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tr2)

	tr3 := db.CreateTransaction()
	kvs, _, _ := tr3.GetRange([]byte("k"), []byte("l"), RangeOptions{})
	if len(kvs) != 5 {
		t.Fatalf("after clear: %d keys", len(kvs))
	}
}

func TestClearThenSetWithinTxn(t *testing.T) {
	db := Open(nil)
	tr := db.CreateTransaction()
	mustSet(t, tr, "k5", "old")
	mustCommit(t, tr)

	tr2 := db.CreateTransaction()
	if err := tr2.ClearRange([]byte("k"), []byte("l")); err != nil {
		t.Fatal(err)
	}
	mustSet(t, tr2, "k5", "new")
	if got := mustGet(t, tr2, "k5"); string(got) != "new" {
		t.Fatalf("set after clear: %q", got)
	}
	mustCommit(t, tr2)
	tr3 := db.CreateTransaction()
	if got := mustGet(t, tr3, "k5"); string(got) != "new" {
		t.Fatalf("committed set after clear: %q", got)
	}
}

func TestAtomicAdd(t *testing.T) {
	db := Open(nil)
	one := make([]byte, 8)
	binary.LittleEndian.PutUint64(one, 1)

	for i := 0; i < 3; i++ {
		tr := db.CreateTransaction()
		if err := tr.Atomic(MutationAdd, []byte("ctr"), one); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tr)
	}
	tr := db.CreateTransaction()
	got := mustGet(t, tr, "ctr")
	if binary.LittleEndian.Uint64(got) != 3 {
		t.Fatalf("counter = %d", binary.LittleEndian.Uint64(got))
	}
}

func TestAtomicAddNoConflict(t *testing.T) {
	db := Open(nil)
	one := make([]byte, 8)
	binary.LittleEndian.PutUint64(one, 1)

	// Two concurrent transactions increment the same key: neither conflicts,
	// and both increments take effect (the property §7 aggregate indexes use).
	t1 := db.CreateTransaction()
	t2 := db.CreateTransaction()
	if err := t1.Atomic(MutationAdd, []byte("ctr"), one); err != nil {
		t.Fatal(err)
	}
	if err := t2.Atomic(MutationAdd, []byte("ctr"), one); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, t1)
	mustCommit(t, t2)

	tr := db.CreateTransaction()
	got := mustGet(t, tr, "ctr")
	if binary.LittleEndian.Uint64(got) != 2 {
		t.Fatalf("both adds should apply: %d", binary.LittleEndian.Uint64(got))
	}
}

func TestAtomicReadYourWrite(t *testing.T) {
	db := Open(nil)
	seed := db.CreateTransaction()
	five := make([]byte, 8)
	binary.LittleEndian.PutUint64(five, 5)
	if err := seed.Set([]byte("ctr"), five); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, seed)

	one := make([]byte, 8)
	binary.LittleEndian.PutUint64(one, 1)
	tr := db.CreateTransaction()
	if err := tr.Atomic(MutationAdd, []byte("ctr"), one); err != nil {
		t.Fatal(err)
	}
	got := mustGet(t, tr, "ctr")
	if binary.LittleEndian.Uint64(got) != 6 {
		t.Fatalf("RYW of atomic add: %d", binary.LittleEndian.Uint64(got))
	}
}

func TestAtomicByteMaxMin(t *testing.T) {
	db := Open(nil)
	put := func(typ MutationType, key, v string) {
		tr := db.CreateTransaction()
		if err := tr.Atomic(typ, []byte(key), []byte(v)); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tr)
	}
	put(MutationByteMax, "max", "b")
	put(MutationByteMax, "max", "a")
	put(MutationByteMax, "max", "c")
	put(MutationByteMin, "min", "b")
	put(MutationByteMin, "min", "c")
	put(MutationByteMin, "min", "a")

	tr := db.CreateTransaction()
	if got := mustGet(t, tr, "max"); string(got) != "c" {
		t.Fatalf("byte max: %q", got)
	}
	if got := mustGet(t, tr, "min"); string(got) != "a" {
		t.Fatalf("byte min: %q", got)
	}
}

func TestCompareAndClear(t *testing.T) {
	db := Open(nil)
	tr := db.CreateTransaction()
	mustSet(t, tr, "k", "v")
	mustCommit(t, tr)

	tr2 := db.CreateTransaction()
	if err := tr2.Atomic(MutationCompareAndClear, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tr2)
	tr3 := db.CreateTransaction()
	if got := mustGet(t, tr3, "k"); got != nil {
		t.Fatalf("key should be cleared, got %q", got)
	}
}

func TestVersionstampedKey(t *testing.T) {
	db := Open(nil)
	// Key: "idx/" + 10-byte placeholder + 2-byte user version, offset suffix.
	mk := func(user uint16) []byte {
		key := append([]byte("idx/"), bytes.Repeat([]byte{0xFF}, 10)...)
		var uv [2]byte
		binary.BigEndian.PutUint16(uv[:], user)
		key = append(key, uv[:]...)
		var off [4]byte
		binary.LittleEndian.PutUint32(off[:], 4)
		return append(key, off[:]...)
	}
	var stamps [][]byte
	for i := 0; i < 3; i++ {
		tr := db.CreateTransaction()
		if err := tr.Atomic(MutationSetVersionstampedKey, mk(uint16(i)), []byte("payload")); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tr)
		st, err := tr.Versionstamp()
		if err != nil {
			t.Fatal(err)
		}
		stamps = append(stamps, st)
	}
	tr := db.CreateTransaction()
	kvs, _, err := tr.GetRange([]byte("idx/"), []byte("idx0"), RangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 3 {
		t.Fatalf("versionstamped keys: %d", len(kvs))
	}
	for i, kv := range kvs {
		if !bytes.Equal(kv.Key[4:14], stamps[i]) {
			t.Errorf("key %d stamp mismatch", i)
		}
	}
	// Monotonically increasing with commit order.
	if !(bytes.Compare(kvs[0].Key, kvs[1].Key) < 0 && bytes.Compare(kvs[1].Key, kvs[2].Key) < 0) {
		t.Error("versionstamps not increasing")
	}
}

func TestVersionstampedValue(t *testing.T) {
	db := Open(nil)
	val := append(bytes.Repeat([]byte{0xFF}, 10), []byte{0, 7}...)
	var off [4]byte
	binary.LittleEndian.PutUint32(off[:], 0)
	val = append(val, off[:]...)

	tr := db.CreateTransaction()
	if err := tr.Atomic(MutationSetVersionstampedValue, []byte("k"), val); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tr)
	stamp, _ := tr.Versionstamp()

	tr2 := db.CreateTransaction()
	got := mustGet(t, tr2, "k")
	if len(got) != 12 || !bytes.Equal(got[:10], stamp) {
		t.Fatalf("versionstamped value: %x (stamp %x)", got, stamp)
	}
}

func TestSizeLimits(t *testing.T) {
	db := Open(&Options{Limits: Limits{
		MaxKeySize: 10, MaxValueSize: 20, MaxTxnSize: 100, TxnTimeout: time.Minute,
	}})
	tr := db.CreateTransaction()
	if err := tr.Set(bytes.Repeat([]byte("k"), 11), []byte("v")); err == nil {
		t.Fatal("oversized key accepted")
	}
	if err := tr.Set([]byte("k"), bytes.Repeat([]byte("v"), 21)); err == nil {
		t.Fatal("oversized value accepted")
	}
	for i := 0; i < 10; i++ {
		_ = tr.Set([]byte(fmt.Sprintf("key%d", i)), bytes.Repeat([]byte("v"), 15))
	}
	if err := tr.Commit(); err == nil {
		t.Fatal("oversized transaction accepted")
	} else if fe, ok := err.(*Error); !ok || fe.Code != CodeTransactionTooLarge {
		t.Fatalf("wrong error: %v", err)
	}
}

func TestTransactionTimeout(t *testing.T) {
	now := time.Unix(0, 0)
	db := Open(&Options{
		Limits: Limits{MaxKeySize: 100, MaxValueSize: 100, MaxTxnSize: 1000, TxnTimeout: 5 * time.Second},
		Clock:  func() time.Time { return now },
	})
	tr := db.CreateTransaction()
	mustSet(t, tr, "a", "1")
	now = now.Add(6 * time.Second)
	if err := tr.Commit(); err == nil {
		t.Fatal("expired transaction committed")
	} else if fe := err.(*Error); fe.Code != CodeTransactionTimedOut || !fe.Retryable() {
		t.Fatalf("wrong error: %v", err)
	}
}

func TestTransactRetriesOnConflict(t *testing.T) {
	db := Open(nil)
	seed := db.CreateTransaction()
	mustSet(t, seed, "k", "0")
	mustCommit(t, seed)

	first := true
	_, err := db.Transact(func(tr *Transaction) (interface{}, error) {
		v, err := tr.Get([]byte("k"))
		if err != nil {
			return nil, err
		}
		if first {
			first = false
			// Interleave a conflicting commit.
			other := db.CreateTransaction()
			if err := other.Set([]byte("k"), []byte("x")); err != nil {
				return nil, err
			}
			if err := other.Commit(); err != nil {
				return nil, err
			}
		}
		return nil, tr.Set([]byte("k"), append(v, '1'))
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.Metrics().Retries.Load() == 0 {
		t.Fatal("expected a retry")
	}
	got, _ := db.Transact(func(tr *Transaction) (interface{}, error) { return tr.Get([]byte("k")) })
	if string(got.([]byte)) != "x1" {
		t.Fatalf("final value: %q", got)
	}
}

func TestSetReadVersionCaching(t *testing.T) {
	db := Open(nil)
	for i := 0; i < 3; i++ {
		tr := db.CreateTransaction()
		mustSet(t, tr, "k", fmt.Sprintf("v%d", i))
		mustCommit(t, tr)
	}
	grvBefore := db.Metrics().GRVCalls.Load()
	cached := db.ReadVersion() - 1 // deliberately stale by one commit

	tr := db.CreateTransaction()
	tr.SetReadVersion(cached)
	got := mustGet(t, tr, "k")
	if string(got) != "v1" {
		t.Fatalf("stale snapshot read: %q", got)
	}
	if db.Metrics().GRVCalls.Load() != grvBefore {
		t.Fatal("SetReadVersion should not perform a GRV call")
	}
}

func TestStaleReadVersionConflictsOnWrite(t *testing.T) {
	db := Open(nil)
	seed := db.CreateTransaction()
	mustSet(t, seed, "k", "0")
	mustCommit(t, seed)
	staleVersion := db.ReadVersion()

	// Another commit advances the database.
	w := db.CreateTransaction()
	mustSet(t, w, "k", "1")
	mustCommit(t, w)

	// A writer using the stale version must fail validation (§4: transactions
	// that modify state never return stale data unvalidated).
	tr := db.CreateTransaction()
	tr.SetReadVersion(staleVersion)
	mustGet(t, tr, "k")
	mustSet(t, tr, "k", "2")
	if err := tr.Commit(); !IsConflict(err) {
		t.Fatalf("stale writer should conflict: %v", err)
	}
}

func TestManualConflictRanges(t *testing.T) {
	db := Open(nil)
	t1 := db.CreateTransaction()
	if _, err := t1.Snapshot().Get([]byte("k")); err != nil {
		t.Fatal(err)
	}
	t1.AddReadConflictKey([]byte("k"))
	mustSet(t, t1, "other", "x")

	t2 := db.CreateTransaction()
	mustSet(t, t2, "k", "1")
	mustCommit(t, t2)

	if err := t1.Commit(); !IsConflict(err) {
		t.Fatalf("manual read conflict not honored: %v", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	db := Open(nil)
	tr := db.CreateTransaction()
	mustSet(t, tr, "abc", "defg")
	mustGet(t, tr, "zzz")
	mustCommit(t, tr)
	st := tr.Stats()
	if st.KeysWritten != 1 || st.KeysRead != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.BytesWritten != len("abc")+len("defg") {
		t.Fatalf("bytes written: %d", st.BytesWritten)
	}
}

func TestConcurrentTransactions(t *testing.T) {
	db := Open(nil)
	var wg sync.WaitGroup
	one := make([]byte, 8)
	binary.LittleEndian.PutUint64(one, 1)
	const workers, perWorker = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				_, err := db.Transact(func(tr *Transaction) (interface{}, error) {
					if err := tr.Atomic(MutationAdd, []byte("ctr"), one); err != nil {
						return nil, err
					}
					return nil, tr.Set([]byte(fmt.Sprintf("w%d/%d", w, i)), []byte("x"))
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got, err := db.Transact(func(tr *Transaction) (interface{}, error) { return tr.Get([]byte("ctr")) })
	if err != nil {
		t.Fatal(err)
	}
	if n := binary.LittleEndian.Uint64(got.([]byte)); n != workers*perWorker {
		t.Fatalf("atomic counter lost updates: %d", n)
	}
	if db.Size() != workers*perWorker+1 {
		t.Fatalf("size: %d", db.Size())
	}
}

// TestRandomizedAgainstModel cross-checks the transactional store against a
// plain map model under a serial workload of sets, clears, range clears and
// range reads.
func TestRandomizedAgainstModel(t *testing.T) {
	db := Open(nil)
	model := map[string]string{}
	rng := rand.New(rand.NewSource(42))
	key := func() string { return fmt.Sprintf("k%03d", rng.Intn(200)) }

	for step := 0; step < 2000; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // set
			k, v := key(), fmt.Sprintf("v%d", step)
			_, err := db.Transact(func(tr *Transaction) (interface{}, error) {
				return nil, tr.Set([]byte(k), []byte(v))
			})
			if err != nil {
				t.Fatal(err)
			}
			model[k] = v
		case 5, 6: // clear
			k := key()
			_, err := db.Transact(func(tr *Transaction) (interface{}, error) {
				return nil, tr.Clear([]byte(k))
			})
			if err != nil {
				t.Fatal(err)
			}
			delete(model, k)
		case 7: // range clear
			a, b := key(), key()
			if a > b {
				a, b = b, a
			}
			_, err := db.Transact(func(tr *Transaction) (interface{}, error) {
				return nil, tr.ClearRange([]byte(a), []byte(b))
			})
			if err != nil {
				t.Fatal(err)
			}
			for k := range model {
				if k >= a && k < b {
					delete(model, k)
				}
			}
		default: // verify range read
			a, b := key(), key()
			if a > b {
				a, b = b, a
			}
			res, err := db.Transact(func(tr *Transaction) (interface{}, error) {
				kvs, _, err := tr.GetRange([]byte(a), []byte(b), RangeOptions{})
				return kvs, err
			})
			if err != nil {
				t.Fatal(err)
			}
			kvs := res.([]KeyValue)
			want := 0
			for k, v := range model {
				if k >= a && k < b {
					want++
					found := false
					for _, kv := range kvs {
						if string(kv.Key) == k && string(kv.Value) == v {
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("step %d: model has %s=%s, store missing", step, k, v)
					}
				}
			}
			if len(kvs) != want {
				t.Fatalf("step %d: store has %d keys in [%s,%s), model %d", step, len(kvs), a, b, want)
			}
		}
	}
}
