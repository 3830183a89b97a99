package rankedset

import (
	"bytes"

	"recordlayer/internal/fdb"
)

// FaultKind says what is wrong with a skip-list entry.
type FaultKind int

// The faults Check finds.
const (
	Miscount FaultKind = iota // the entry holds another count than its span's
	Ghost                     // the entry should not exist
	Missing                   // the entry should exist and does not
)

// Fault is one skip-list entry that Check found wrong.
type Fault struct {
	Kind  FaultKind
	Key   []byte // the entry's key
	Count int64  // the count it should hold (Miscount, Missing)
}

// Checked is one batch of Check.
type Checked struct {
	Faults []Fault
	// Members lists the members a level-0 batch read.
	Members [][]byte
	// Next is where the level's next batch starts; Done says there is none.
	Next []byte
	Done bool
}

// Key returns the key of a member's entry on a level.
func (rs *RankedSet) Key(level int, member []byte) []byte { return rs.levelKey(level, member) }

// Levels returns the number of levels.
func (rs *RankedSet) Levels() int { return rs.levels }

// decodeMember returns the member of one of level's keys, and false for a key
// no write of that level makes: only levels above 0 have a head.
func (rs *RankedSet) decodeMember(key []byte, level int) ([]byte, bool) {
	t, err := rs.space.Unpack(key)
	if err != nil || len(t) != 2 || t[0] != int64(level) {
		return nil, false
	}
	m, ok := t[1].([]byte)
	return m, ok && (level > 0 || len(m) > 0)
}

// holds reports whether an entry's value is exactly count.
func holds(value []byte, count int64) bool {
	return len(value) == 8 && decodeCount(value) == count
}

// Check checks one batch of a level's entries, reading at snapshot isolation;
// from is the Next of the level's previous batch, nil for its first. Levels
// are hash-determined, so the structure a set of members builds is unique,
// and Check finds every way a level departs from it:
//
//   - on level 0, every entry is a member holding count 1; Members lists
//     them, and Check reads up to limit of them;
//   - on level l >= 1, the fingers are the head and every member of level
//     l-1 that the level function puts on l, each holding the sum of level
//     l-1's counts from itself to the next finger. Check recounts up to limit
//     of them; an entry that is none of them is a ghost. A level whose level
//     below is empty may keep its head, at 0, or not.
//
// A batch of level l reads the entries of level l-1 that its fingers span, so
// the recount trusts level l-1: check the levels in order, and either repair
// one level before checking the next, or pass fixes, the faults the checks of
// level l-1 found, in key order: the recount then reads level l-1 as they
// correct it, and a finger miscounted there is not reported again here.
func (rs *RankedSet) Check(tr *fdb.Transaction, level int, from []byte, limit int, fixes []Fault) (Checked, error) {
	if level == 0 {
		return rs.checkMembers(tr, from, limit)
	}
	type span struct {
		member []byte
		count  int64
	}
	var spans []span
	if from == nil {
		spans = append(spans, span{member: head})
	}
	// Read level-1 from the first finger until the finger after the batch's
	// last. Entries before the first finger belong to one of an earlier
	// batch (from left the set since it ended that batch).
	below := level - 1
	begin, end := rs.levelRange(below)
	if from != nil {
		begin = rs.levelKey(below, from)
	}
	for len(fixes) > 0 && bytes.Compare(fixes[0].Key, begin) < 0 {
		fixes = fixes[1:] // an earlier batch's
	}
	var boundary []byte
	nonEmpty := false
scan:
	for {
		kvs, more, err := tr.Snapshot().GetRange(begin, end, fdb.RangeOptions{Limit: 16 * limit})
		if err != nil {
			return Checked{}, err
		}
		for _, kv := range corrected(kvs, &fixes, !more) {
			nonEmpty = true
			m, ok := rs.decodeMember(kv.Key, below)
			if !ok {
				continue // level-1's own check reports it
			}
			if len(m) > 0 && rs.inLvl(m, level) {
				if len(spans) == limit {
					boundary = m
					break scan
				}
				spans = append(spans, span{member: m})
			}
			if len(spans) > 0 {
				spans[len(spans)-1].count += decodeCount(kv.Value)
			}
		}
		if !more {
			break
		}
		begin = fdb.KeyAfter(kvs[len(kvs)-1].Key)
	}

	begin, end = rs.levelRange(level)
	if from != nil {
		begin = rs.levelKey(level, from)
	}
	if boundary != nil {
		end = rs.levelKey(level, boundary)
	}
	kvs, _, err := tr.Snapshot().GetRange(begin, end, fdb.RangeOptions{})
	if err != nil {
		return Checked{}, err
	}
	c := Checked{Next: boundary, Done: boundary == nil}
	i := 0 // spans and entries are both in key order
	for _, kv := range kvs {
		m, ok := rs.decodeMember(kv.Key, level)
		for ok && i < len(spans) && bytes.Compare(spans[i].member, m) < 0 {
			c.missing(rs, level, spans[i].member, spans[i].count, nonEmpty)
			i++
		}
		switch {
		case !ok || i == len(spans) || !bytes.Equal(spans[i].member, m):
			c.Faults = append(c.Faults, Fault{Kind: Ghost, Key: kv.Key})
		default:
			if !holds(kv.Value, spans[i].count) {
				c.Faults = append(c.Faults, Fault{Kind: Miscount, Key: kv.Key, Count: spans[i].count})
			}
			i++
		}
	}
	for ; i < len(spans); i++ {
		c.missing(rs, level, spans[i].member, spans[i].count, nonEmpty)
	}
	return c, nil
}

// corrected returns kvs, a page of a level's entries, as faults found on that
// level correct them: a ghost dropped, a miscount holding its count, a missing
// entry in its place holding its. It takes from *faults those up to the
// page's last key, or all on the last page.
func corrected(kvs []fdb.KeyValue, faults *[]Fault, last bool) []fdb.KeyValue {
	fs := *faults
	if len(fs) == 0 {
		return kvs
	}
	out := make([]fdb.KeyValue, 0, len(kvs))
	missing := func(f Fault) {
		if f.Kind == Missing {
			out = append(out, fdb.KeyValue{Key: f.Key, Value: encodeCount(f.Count)})
		}
	}
	for _, kv := range kvs {
		for ; len(fs) > 0 && bytes.Compare(fs[0].Key, kv.Key) < 0; fs = fs[1:] {
			missing(fs[0])
		}
		if len(fs) > 0 && bytes.Equal(fs[0].Key, kv.Key) {
			f := fs[0]
			if fs = fs[1:]; f.Kind == Ghost {
				continue
			}
			kv.Value = encodeCount(f.Count)
		}
		out = append(out, kv)
	}
	for ; last && len(fs) > 0; fs = fs[1:] {
		missing(fs[0])
	}
	*faults = fs
	return out
}

// missing records a finger with no entry, unless it is the head of a level
// whose level below is empty.
func (c *Checked) missing(rs *RankedSet, level int, member []byte, count int64, nonEmpty bool) {
	if len(member) > 0 || nonEmpty {
		c.Faults = append(c.Faults, Fault{Kind: Missing, Key: rs.levelKey(level, member), Count: count})
	}
}

// checkMembers is Check of level 0, from the last key of the previous batch.
func (rs *RankedSet) checkMembers(tr *fdb.Transaction, from []byte, limit int) (Checked, error) {
	begin, end := rs.levelRange(0)
	if from != nil {
		begin = fdb.KeyAfter(from)
	}
	kvs, _, err := tr.Snapshot().GetRange(begin, end, fdb.RangeOptions{Limit: limit})
	if err != nil {
		return Checked{}, err
	}
	c := Checked{Done: len(kvs) < limit}
	for _, kv := range kvs {
		c.Next = kv.Key
		m, ok := rs.decodeMember(kv.Key, 0)
		switch {
		case !ok:
			c.Faults = append(c.Faults, Fault{Kind: Ghost, Key: kv.Key})
			continue
		case !holds(kv.Value, 1):
			c.Faults = append(c.Faults, Fault{Kind: Miscount, Key: kv.Key, Count: 1})
		}
		c.Members = append(c.Members, m)
	}
	return c, nil
}

// Fix repairs what Check found: it clears ghosts and writes every other
// faulty entry's count. Each fixed entry's key becomes a read conflict, so a
// concurrent insert or delete that moves its count turns the repair away
// instead of being overwritten by it.
func (rs *RankedSet) Fix(tr *fdb.Transaction, faults []Fault) error {
	for _, f := range faults {
		tr.AddReadConflictKey(f.Key)
		var err error
		if f.Kind == Ghost {
			err = tr.Clear(f.Key)
		} else {
			err = tr.Set(f.Key, encodeCount(f.Count))
		}
		if err != nil {
			return err
		}
	}
	return nil
}
