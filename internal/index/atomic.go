package index

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/metadata"
	"recordlayer/internal/tuple"
)

// AtomicMaintainer implements the atomic-mutation index types of §7: COUNT,
// COUNT_UPDATES, COUNT_NON_NULL, SUM, MAX_EVER and MIN_EVER. The index holds
// one small entry per grouping key, updated with FoundationDB atomic
// mutations so concurrent record writes never conflict on the aggregate.
type AtomicMaintainer struct {
	ix  *metadata.Index
	typ metadata.IndexType
	// packer splits each key into its group (Head) and its aggregated
	// columns (Tail).
	packer *keyexpr.Packer
}

func newAtomicMaintainer(typ metadata.IndexType) Factory {
	return func(ix *metadata.Index) (Maintainer, error) {
		m := &AtomicMaintainer{ix: ix, typ: typ}
		g, ok := ix.Expression.(keyexpr.GroupingExpression)
		switch {
		case ok:
			m.packer = ix.Packer()
		case typ == metadata.IndexCount || typ == metadata.IndexCountUpdates:
			// COUNT-style indexes may use a plain expression: every column
			// is a grouping column, the aggregate is the record count.
			g = keyexpr.GroupBy(keyexpr.Empty(), ix.Expression)
			m.packer = keyexpr.Compile(g)
		default:
			return nil, fmt.Errorf("index %q: %s indexes need a GroupBy/Ungrouped expression", ix.Name, typ)
		}
		switch typ {
		case metadata.IndexSum, metadata.IndexCountNonNull,
			metadata.IndexMaxEver, metadata.IndexMinEver:
			if g.GroupedCount() != 1 {
				return nil, fmt.Errorf("index %q: %s indexes aggregate exactly one column", ix.Name, typ)
			}
		}
		return m, nil
	}
}

// UpdateAsync implements Maintainer. Atomic indexes never read — every
// mutation buffers immediately — so the whole update happens at issue time
// and the returned Pending is Done.
func (m *AtomicMaintainer) UpdateAsync(ctx *Context, old, new *Record) (Pending, error) {
	if err := m.update(ctx, old, new); err != nil {
		return nil, err
	}
	return Done, nil
}

func (m *AtomicMaintainer) update(ctx *Context, old, new *Record) error {
	var oldBuf, newBuf, buf [keyStackLen]byte
	var oldSpans, newSpans [keyStackSpans]keyexpr.KeySpan
	oldKeys, err := keysFor(m.ix, m.packer, old, keyexpr.NewKeys(oldBuf[:], oldSpans[:]))
	if err != nil {
		return err
	}
	newKeys, err := keysFor(m.ix, m.packer, new, keyexpr.NewKeys(newBuf[:], newSpans[:]))
	if err != nil {
		return err
	}
	switch m.typ {
	case metadata.IndexCount:
		// Count of records per group: +1 on insert into a group, -1 on
		// leaving it. Dedupe groups within one record.
		for i := 0; i < oldKeys.Len(); i++ {
			if g := oldKeys.Head(i); firstGroup(oldKeys, i) && !hasGroup(newKeys, g) {
				if err := add(ctx, buf[:0], g, -1); err != nil {
					return err
				}
			}
		}
		for i := 0; i < newKeys.Len(); i++ {
			if g := newKeys.Head(i); firstGroup(newKeys, i) && !hasGroup(oldKeys, g) {
				if err := add(ctx, buf[:0], g, 1); err != nil {
					return err
				}
			}
		}
		return nil
	case metadata.IndexCountUpdates:
		// Number of times the group was written: +1 per save, never -1.
		for i := 0; i < newKeys.Len(); i++ {
			if firstGroup(newKeys, i) {
				if err := add(ctx, buf[:0], newKeys.Head(i), 1); err != nil {
					return err
				}
			}
		}
		return nil
	case metadata.IndexCountNonNull, metadata.IndexSum:
		return m.applyCounted(ctx, buf[:0], oldKeys, newKeys)
	case metadata.IndexMaxEver, metadata.IndexMinEver:
		// Max/min value ever assigned since index creation: updated on
		// writes, never reverted on deletes (§7). Tuple encoding preserves
		// order, so lexicographic byte min/max is tuple min/max.
		mut := fdb.MutationByteMax
		if m.typ == metadata.IndexMinEver {
			mut = fdb.MutationByteMin
		}
		for i := 0; i < newKeys.Len(); i++ {
			v := newKeys.Tail(i)
			if v[0] == nullCode {
				continue
			}
			if err := ctx.Tr.Atomic(mut, appendKey(buf[:0], ctx.Space, newKeys.Head(i), nil), v); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("index %q: unsupported atomic type %s", m.ix.Name, m.typ)
}

// add adds n to a group's aggregate, an 8-byte little-endian counter, with
// the group's key built in buf.
func add(ctx *Context, buf, group []byte, n int64) error {
	var param [8]byte
	binary.LittleEndian.PutUint64(param[:], uint64(n))
	return ctx.Tr.Atomic(fdb.MutationAdd, appendKey(buf, ctx.Space, group, nil), param[:])
}

// nullCode is a packed null column: the aggregated column of a record whose
// field is unset.
const nullCode = 0x00

// firstGroup reports whether key i's group is the first of k's keys to have
// that group.
func firstGroup(k keyexpr.Keys, i int) bool {
	for j := 0; j < i; j++ {
		if bytes.Equal(k.Head(j), k.Head(i)) {
			return false
		}
	}
	return true
}

// hasGroup reports whether one of k's keys has group g.
func hasGroup(k keyexpr.Keys, g []byte) bool {
	for i := 0; i < k.Len(); i++ {
		if bytes.Equal(k.Head(i), g) {
			return true
		}
	}
	return false
}

// applyCounted subtracts the contribution of each old key the record no
// longer has, then adds that of each new key it did not have: a key kept
// whole, group and value, is left alone.
func (m *AtomicMaintainer) applyCounted(ctx *Context, buf []byte, oldKeys, newKeys keyexpr.Keys) error {
	for i := 0; i < oldKeys.Len(); i++ {
		if newKeys.Has(oldKeys.Key(i)) {
			continue
		}
		if n, ok := m.contribution(oldKeys, i); ok && n != 0 {
			if err := add(ctx, buf, oldKeys.Head(i), -n); err != nil {
				return err
			}
		}
	}
	for i := 0; i < newKeys.Len(); i++ {
		if oldKeys.Has(newKeys.Key(i)) {
			continue
		}
		if n, ok := m.contribution(newKeys, i); ok && n != 0 {
			if err := add(ctx, buf, newKeys.Head(i), n); err != nil {
				return err
			}
		}
	}
	return nil
}

// contribution is what key i adds to its group's aggregate, if anything: 1
// for a non-null column under COUNT_NON_NULL, an int64 column's value under
// SUM.
func (m *AtomicMaintainer) contribution(k keyexpr.Keys, i int) (int64, bool) {
	if m.typ == metadata.IndexCountNonNull {
		return 1, k.Tail(i)[0] != nullCode
	}
	return k.TailInt64(i)
}

// GetInt64 reads an integer aggregate (COUNT, SUM, ...) for a group key. A
// stored counter is 8 bytes, as the scrub's compareGroup expects; any other
// length is an error that names the key.
func (m *AtomicMaintainer) GetInt64(ctx *Context, group tuple.Tuple) (int64, error) {
	key := ctx.Space.Pack(group)
	raw, err := ctx.Tr.Get(key)
	if err != nil || raw == nil {
		return 0, err
	}
	if len(raw) != 8 {
		return 0, fmt.Errorf("index %s: counter at %s is %d bytes, not 8", m.ix.Name, tuple.Describe(key), len(raw))
	}
	return int64(binary.LittleEndian.Uint64(raw)), nil
}

// GetTuple reads a MAX_EVER/MIN_EVER aggregate for a group key; ok=false
// when no value was ever written.
func (m *AtomicMaintainer) GetTuple(ctx *Context, group tuple.Tuple) (tuple.Tuple, bool, error) {
	raw, err := ctx.Tr.Get(ctx.Space.Pack(group))
	if err != nil || raw == nil {
		return nil, false, err
	}
	t, err := tuple.Unpack(raw)
	if err != nil {
		return nil, false, err
	}
	return t, true, nil
}

// Scrub runs one batch of a scrub of COUNT, COUNT_NON_NULL and SUM, which are
// compared group by group. Phase 0 rebuilds every record into Scratch, which
// the batches keep, and phase 1 compares each group's total with the live
// one, an absent group counting as 0. Every batch reads at the first one's
// read version, so the totals are those of one snapshot. A repair adds the
// difference, which commutes with concurrent writers' own additions; a value
// that is no counter is overwritten. COUNT_UPDATES, MAX_EVER and MIN_EVER
// refuse.
func (m *AtomicMaintainer) Scrub(b *ScrubBatch) error {
	switch m.typ {
	case metadata.IndexCount, metadata.IndexCountNonNull, metadata.IndexSum:
	default:
		return fmt.Errorf("index %q: %s values count past writes, which no stored state records", m.ix.Name, m.typ)
	}
	b.Pinned = true
	if b.Phase == 0 {
		n, next, done, err := b.Records(b.Cont)
		b.Read += n
		b.Keep = true
		b.advance(next, done)
		return err
	}
	// An ungrouped total lives at the index's own key, before its range.
	_, end := b.Live.Space.Range()
	begin := afterCont(b.Cont, b.Live.Space.Bytes())
	live, _, err := b.Live.Tr.Snapshot().GetRange(begin, end, fdb.RangeOptions{Limit: b.Limit})
	if err != nil {
		return err
	}
	rebuilt, _, err := b.Scratch.Tr.GetRange(begin, end, fdb.RangeOptions{Limit: b.Limit})
	if err != nil {
		return err
	}
	// The batch covers the groups of both reads up to where the first of
	// them to fill its limit stopped.
	done := true
	for _, kvs := range [][]fdb.KeyValue{live, rebuilt} {
		if len(kvs) == b.Limit {
			if last := fdb.KeyAfter(kvs[len(kvs)-1].Key); bytes.Compare(last, end) < 0 {
				end = last
			}
			done = false
		}
	}
	var next []byte
	for i, j := 0, 0; ; {
		var key, have, want []byte
		switch {
		case i < len(live) && bytes.Compare(live[i].Key, end) < 0 &&
			(j == len(rebuilt) || bytes.Compare(live[i].Key, rebuilt[j].Key) <= 0):
			key, have = live[i].Key, live[i].Value
			if j < len(rebuilt) && bytes.Equal(rebuilt[j].Key, key) {
				want = rebuilt[j].Value
				j++
			}
			i++
		case j < len(rebuilt) && bytes.Compare(rebuilt[j].Key, end) < 0:
			key, want = rebuilt[j].Key, rebuilt[j].Value
			j++
		default:
			b.advance(next, done)
			b.Done = b.Phase == 2
			return nil
		}
		next = key
		b.Entries++
		if err := m.compareGroup(b, key, have, want); err != nil {
			return err
		}
	}
}

// compareGroup checks one group's live counter, have, against its rebuilt
// one, want; nil is an absent counter, worth 0.
func (m *AtomicMaintainer) compareGroup(b *ScrubBatch, key, have, want []byte) error {
	counter := func(v []byte) (int64, bool) {
		var n [8]byte
		copy(n[:], v)
		return int64(binary.LittleEndian.Uint64(n[:])), v == nil || len(v) == 8
	}
	l, ok := counter(have)
	r, _ := counter(want)
	if ok && l == r {
		return nil
	}
	kind := IssueMismatch
	switch {
	case r == 0:
		kind = IssueDangling
	case ok && l == 0:
		kind = IssueMissing
	}
	b.found(kind, key)
	switch {
	case !b.Repair:
		return nil
	case ok:
		var param [8]byte
		binary.LittleEndian.PutUint64(param[:], uint64(r-l))
		return b.Live.Tr.Atomic(fdb.MutationAdd, key, param[:])
	case r == 0:
		return b.Live.Tr.Clear(key)
	}
	return b.Live.Tr.Set(key, want)
}
