// Package overlay resolves reads that were issued before later writes of the
// same transaction, so structures that pipeline their probe reads (the RANK
// skip list, the TEXT bunched map) still see exactly what a serial
// read-then-write interleaving would have read.
//
// A simulated future resolves its data at issue time: it sees the
// transaction's writes up to its issue and none after. Ops are applied
// strictly in issue order (Issue/Turn enforce it), so when an op resolves a
// probe every earlier op has already written. The probe's answer is then
// stale only on keys written through the overlay, and for those the latest
// written value is the truth. The overlay therefore keeps just that: the
// latest value of every key it wrote, in one slice sorted by key. It uses only
// the public transaction API, as a real client would have to.
package overlay

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"recordlayer/internal/fdb"
)

// Overlay writes through to one transaction and remembers what it wrote.
// Every mutation of the keys its owner probes must go through it; a write
// made around it would be missing from the answers.
type Overlay struct {
	tr      *fdb.Transaction
	writes  []write // the latest write of each key, sorted by key
	issued  int
	applied int
}

// write is the latest value written to key; nil means cleared.
type write struct {
	key, val []byte
}

// New creates an empty overlay over one transaction.
func New(tr *fdb.Transaction) *Overlay {
	return &Overlay{tr: tr}
}

// Issue hands out the next op's place in the issue order.
func (o *Overlay) Issue() int {
	o.issued++
	return o.issued - 1
}

// Turn admits the op holding seq to apply, and fails unless every op issued
// before it has applied and none after: the resolvers are exact only then.
func (o *Overlay) Turn(seq int) error {
	if seq != o.applied {
		return fmt.Errorf("overlay: op issued %d applied out of order (expect %d)", seq, o.applied)
	}
	o.applied++
	return nil
}

// find returns where key's write is, or would be inserted, and whether it is
// there.
func (o *Overlay) find(key []byte) (int, bool) {
	return slices.BinarySearchFunc(o.writes, key, func(w write, key []byte) int {
		return bytes.Compare(w.key, key)
	})
}

func (o *Overlay) record(key, val []byte) {
	i, found := o.find(key)
	if found {
		o.writes[i].val = val
		return
	}
	o.writes = slices.Insert(o.writes, i, write{key: key, val: val})
}

// Set writes key = val. The overlay keeps key and val; the caller must not
// modify either.
func (o *Overlay) Set(key, val []byte) error {
	if err := o.tr.Set(key, val); err != nil {
		return err
	}
	o.record(key, val)
	return nil
}

// Clear removes key. The overlay keeps key; the caller must not modify it.
func (o *Overlay) Clear(key []byte) error {
	if err := o.tr.Clear(key); err != nil {
		return err
	}
	o.record(key, nil)
	return nil
}

// Add applies an atomic little-endian ADD of delta to key, whose resolved
// value the caller has just read as cur (0 when absent), and remembers the
// sum. The write stays an atomic mutation, so it adds no read conflict. The
// overlay keeps key; the caller must not modify it.
func (o *Overlay) Add(key []byte, cur, delta int64) error {
	if err := o.tr.Atomic(fdb.MutationAdd, key, le64(delta)); err != nil {
		return err
	}
	o.record(key, le64(cur+delta))
	return nil
}

func le64(n int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(n))
	return b
}

// Value resolves a point probe of key: what was written since, else what the
// probe read. Nil means absent. The result must not be modified.
func (o *Overlay) Value(key []byte, fut *fdb.FutureValue) ([]byte, error) {
	raw, err := fut.Get()
	if err != nil {
		return nil, err
	}
	if i, ok := o.find(key); ok {
		return o.writes[i].val, nil
	}
	return raw, nil
}

// Boundary resolves a Limit-1 probe over [begin, end): the greatest live key
// when reverse, else the least; ok is false when the range is empty. The
// probe's pair was the boundary when it was issued, so every written key
// beyond it (toward the end the scan started from) was absent then and is
// exactly as written; the nearest live one wins. Failing that, the probe's
// own pair stands, with its written value if it has one. Only when that pair
// has since been cleared does the boundary lie where the probe never looked:
// a fresh read finds it, exact because every earlier write is by now in the
// transaction. snapshot says which kind of read the probe was.
func (o *Overlay) Boundary(fut *fdb.FutureRange, begin, end []byte, reverse, snapshot bool) (kv fdb.KeyValue, ok bool, err error) {
	pairs, _, err := fut.Get()
	if err != nil {
		return fdb.KeyValue{}, false, err
	}
	// writes[i:j] are the keys beyond the probe's pair, toward the end the
	// scan started from; k is where the pair's own key is, if written.
	i, _ := o.find(begin)
	j, _ := o.find(end)
	var k int
	var written bool
	var probe fdb.KeyValue
	if pairs.Len() > 0 {
		probe = pairs.At(0)
		k, written = o.find(probe.Key)
		switch {
		case !reverse:
			j = k
		case written:
			i = k + 1
		default:
			i = k
		}
	}
	for i < j {
		w := o.writes[i]
		if reverse {
			j--
			w = o.writes[j]
		} else {
			i++
		}
		if w.val != nil {
			return fdb.KeyValue{Key: w.key, Value: w.val}, true, nil
		}
	}
	if pairs.Len() == 0 {
		return fdb.KeyValue{}, false, nil
	}
	if !written {
		return probe, true, nil
	}
	if v := o.writes[k].val; v != nil {
		return fdb.KeyValue{Key: probe.Key, Value: v}, true, nil
	}
	var kvs []fdb.KeyValue
	opts := fdb.RangeOptions{Limit: 1, Reverse: reverse}
	if snapshot {
		kvs, _, err = o.tr.Snapshot().GetRange(begin, end, opts)
	} else {
		kvs, _, err = o.tr.GetRange(begin, end, opts)
	}
	if err != nil || len(kvs) == 0 {
		return fdb.KeyValue{}, false, err
	}
	return kvs[0], true, nil
}
