// Package rankedset implements the RANK index substrate (Appendix B): a
// probabilistic augmented skip list persisted in the key-value store that
// supports efficient rank-of-key and key-of-rank queries.
//
// Each level has a distinct subspace prefix; the lowest level contains every
// member, and each entry stores the number of level-0 members in the
// half-open interval from itself to the next entry on the same level.
// Following a same-level "finger" accumulates that count, yielding the rank
// — FoundationDB's key ordering supplies the fingers for free (the paper's
// Figure 5).
//
// Per §10.1, navigation reads the skip list at snapshot isolation and adds
// read conflicts only on the distinguished keys that would actually
// invalidate the operation; counts are updated with atomic ADDs so
// concurrent inserts sharing a finger do not conflict.
package rankedset

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"recordlayer/internal/fdb"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// Config parameterizes a ranked set.
type Config struct {
	// Levels is the number of skip-list levels (default 6).
	Levels int
	// LevelFunc decides whether a key appears on the given level (level 0 is
	// implicit). The default hashes the key so that each level keeps roughly
	// 1/16 of the level below, deterministically.
	LevelFunc func(key []byte, level int) bool
}

// DefaultLevels is the default number of skip-list levels.
const DefaultLevels = 6

// hashLevelFunc is the default deterministic level assignment: a key appears
// on level l iff the top bits of its hash have l leading zero hex digits.
func hashLevelFunc(key []byte, level int) bool {
	h := fnv.New64a()
	h.Write(key)
	v := h.Sum64()
	for i := 0; i < level; i++ {
		if v&0xF != 0 {
			return false
		}
		v >>= 4
	}
	return true
}

// RankedSet is a persistent ordered set with rank queries. The zero value is
// not usable; construct with New.
type RankedSet struct {
	space  subspace.Subspace
	levels int
	inLvl  func(key []byte, level int) bool
}

// New creates a ranked set over the given subspace.
func New(space subspace.Subspace, cfg *Config) *RankedSet {
	levels := DefaultLevels
	inLvl := hashLevelFunc
	if cfg != nil {
		if cfg.Levels > 0 {
			levels = cfg.Levels
		}
		if cfg.LevelFunc != nil {
			inLvl = cfg.LevelFunc
		}
	}
	return &RankedSet{space: space, levels: levels, inLvl: inLvl}
}

// head is the pseudo-entry of every level >= 1, with the empty key; its count
// covers members preceding the first real entry of that level. It is the
// smallest key of its level, so a floor probe that comes back empty says the
// level has no head yet: the first write creates it (Op.resolveFloor) and
// reads take the level as empty. Nothing is set up in advance.
var head = []byte{}

func (rs *RankedSet) levelKey(level int, key []byte) []byte {
	return rs.space.Pack(tuple.Tuple{int64(level), key})
}

func (rs *RankedSet) levelRange(level int) (begin, end []byte) {
	return rs.space.RangeForTuple(tuple.Tuple{int64(level)})
}

func encodeCount(n int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(n))
	return b
}

func decodeCount(b []byte) int64 {
	if len(b) < 8 {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

func sumCounts(kvs []fdb.KeyValue) (sum int64) {
	for _, kv := range kvs {
		sum += decodeCount(kv.Value)
	}
	return sum
}

// memberOf extracts the member from one of its level keys.
func (rs *RankedSet) memberOf(levelKey []byte) ([]byte, error) {
	t, err := rs.space.Unpack(levelKey)
	if err != nil {
		return nil, err
	}
	return t[1].([]byte), nil
}

// Contains reports membership. The read conflicts only on the member's own
// level-0 key.
func (rs *RankedSet) Contains(tr *fdb.Transaction, key []byte) (bool, error) {
	if len(key) == 0 {
		return false, fmt.Errorf("rankedset: empty key is reserved")
	}
	v, err := tr.Get(rs.levelKey(0, key))
	if err != nil {
		return false, err
	}
	return v != nil, nil
}

// sumBelow sums, at the given level, the counts of entries in [from, to) —
// the number of level-0 members in that key interval, provided both bounds
// are entries of this level (or head).
func (rs *RankedSet) sumBelow(tr *fdb.Transaction, level int, from, to []byte) (int64, error) {
	kvs, _, err := tr.Snapshot().GetRange(rs.levelKey(level, from), rs.levelKey(level, to), fdb.RangeOptions{})
	return sumCounts(kvs), err
}

// Insert adds a member; it is a no-op if already present (first return
// false). Built on the pipelined Async path: the membership probe and every
// level's floor read go out together, so one insert costs ~1 latency window
// plus any finger-split sums, instead of one window per level.
func (rs *RankedSet) Insert(tr *fdb.Transaction, key []byte) (bool, error) {
	op, err := rs.Async(tr).IssueInsert(key)
	if err != nil {
		return false, err
	}
	return op.Apply()
}

// Delete removes a member; no-op when absent (first return false). Pipelined
// like Insert.
func (rs *RankedSet) Delete(tr *fdb.Transaction, key []byte) (bool, error) {
	op, err := rs.Async(tr).IssueDelete(key)
	if err != nil {
		return false, err
	}
	return op.Apply()
}

// Rank returns the 0-based ordinal rank of key. The second result is false
// when the key is not a member. The membership probe overlaps the descent
// instead of gating it, saving its latency window; a non-member pays the
// descent's snapshot reads (the serial check skipped them), which add no
// conflict ranges.
func (rs *RankedSet) Rank(tr *fdb.Transaction, key []byte) (int64, bool, error) {
	if len(key) == 0 {
		return 0, false, fmt.Errorf("rankedset: empty key is reserved")
	}
	fut := tr.GetAsync(rs.levelKey(0, key))
	r, rerr := rs.countLess(tr, key)
	v, err := fut.Get()
	if err != nil {
		return 0, false, err
	}
	if v == nil {
		return 0, false, nil
	}
	if rerr != nil {
		return 0, false, rerr
	}
	return r, true, nil
}

// CountLess returns how many members sort strictly before key (key need not
// be a member) — the rank a new member would take.
func (rs *RankedSet) CountLess(tr *fdb.Transaction, key []byte) (int64, error) {
	return rs.countLess(tr, key)
}

// floorRange is the range a level's floor probe scans in reverse: every entry
// with entryKey <= key (inclusive) or < key (exclusive).
func (rs *RankedSet) floorRange(level int, key []byte, inclusive bool) (begin, end []byte) {
	begin, _ = rs.levelRange(level)
	end = rs.levelKey(level, key)
	if inclusive {
		end = fdb.KeyAfter(end)
	}
	return begin, end
}

func (rs *RankedSet) issueFloor(tr *fdb.Transaction, level int, key []byte, inclusive bool) *fdb.FutureRange {
	begin, end := rs.floorRange(level, key, inclusive)
	return tr.Snapshot().GetRangeAsync(begin, end, fdb.RangeOptions{Limit: 1, Reverse: true})
}

// countLess is the skip-list descent of Figure 5(b) at its dependency depth,
// two windows. The descent's position on level l is the floor of key there,
// and key order finds that without the levels above, so every level's floor
// is probed at once. The members passed on level l are then the counts in
// [floor(l+1), floor(l)) — on level 0, where each entry is one member, in
// [floor(1), key) — and those ranges are read together. A level-by-level scan
// reads the same pairs: each floor here is the last pair of that level's scan.
func (rs *RankedSet) countLess(tr *fdb.Transaction, key []byte) (int64, error) {
	floors := make([]*fdb.FutureRange, rs.levels)
	for l := 1; l < rs.levels; l++ {
		floors[l] = rs.issueFloor(tr, l, key, false)
	}
	sums := make([]*fdb.FutureRange, rs.levels)
	from := head
	for l := rs.levels - 1; l >= 0; l-- {
		to := key
		if l > 0 {
			kvs, _, err := floors[l].Get()
			if err != nil {
				return 0, err
			}
			to = head // nothing below key, or no head yet: the level adds nothing
			if kvs.Len() > 0 {
				if to, err = rs.memberOf(kvs.At(0).Key); err != nil {
					return 0, err
				}
			}
		}
		sums[l] = tr.Snapshot().GetRangeAsync(rs.levelKey(l, from), rs.levelKey(l, to), fdb.RangeOptions{})
		from = to
	}
	var rank int64
	for _, fut := range sums {
		kvs, _, err := fut.Get()
		if err != nil {
			return 0, err
		}
		for i := range kvs.Len() {
			rank += decodeCount(kvs.At(i).Value)
		}
	}
	return rank, nil
}

// selectBatch is the most entries Select reads of a level above 0 at a time:
// twice the default fan-out of 16, so one read per level is the common case.
const selectBatch = 32

// Select returns the member with the given 0-based rank; ok=false when rank
// is out of range. Each level is read forward from the finger the level above
// chose until the finger covering rank is found: one window per level, plus
// one per batch that ends short of it. That finger is among the level's next
// rank-passed+2 entries — each one passed holds at least one member, a head
// possibly none — so no read asks for more: level 0 reads exactly that far,
// the levels above it at most a batch at a time.
func (rs *RankedSet) Select(tr *fdb.Transaction, rank int64) ([]byte, bool, error) {
	if rank < 0 {
		return nil, false, nil
	}
	var passed int64
	cur := head
	for l := rs.levels - 1; l >= 0; l-- {
		begin := rs.levelKey(l, cur)
		_, end := rs.levelRange(l)
	level:
		for {
			limit := selectBatch
			if rem := rank - passed; l == 0 || rem < selectBatch-2 {
				limit = int(rem) + 2
			}
			kvs, more, err := tr.Snapshot().GetRange(begin, end, fdb.RangeOptions{Limit: limit})
			if err != nil {
				return nil, false, err
			}
			for _, kv := range kvs {
				count := decodeCount(kv.Value)
				if passed+count > rank {
					// The target lies within this finger; at level 0 it is the target.
					if cur, err = rs.memberOf(kv.Key); err != nil {
						return nil, false, err
					}
					break level
				}
				passed += count
			}
			if !more {
				return nil, false, nil // past the level's last finger: rank >= size
			}
			begin = fdb.KeyAfter(kvs[len(kvs)-1].Key)
		}
	}
	return cur, true, nil
}

// Size returns the number of members.
func (rs *RankedSet) Size(tr *fdb.Transaction) (int64, error) {
	begin, end := rs.levelRange(rs.levels - 1)
	kvs, _, err := tr.Snapshot().GetRange(begin, end, fdb.RangeOptions{})
	return sumCounts(kvs), err
}

// Clear removes all state, including head entries.
func (rs *RankedSet) Clear(tr *fdb.Transaction) error {
	begin, end := rs.space.Range()
	return tr.ClearRange(begin, end)
}
