package fdb

import (
	"bytes"
	"sort"
)

// KeyRange is a half-open key interval [Begin, End).
type KeyRange struct {
	Begin, End []byte
}

// singleKeyRange returns the range covering exactly one key.
func singleKeyRange(key []byte) KeyRange {
	end := make([]byte, len(key)+1)
	copy(end, key)
	return KeyRange{Begin: append([]byte(nil), key...), End: end}
}

// rangeSet maintains a sorted list of disjoint, coalesced key ranges. It is
// used both for transaction conflict ranges and for the cleared-range overlay
// in the read-your-writes buffer.
type rangeSet struct {
	ranges []KeyRange // sorted by Begin; disjoint and non-adjacent
}

// Add inserts [begin, end), merging with any overlapping or adjacent ranges.
func (s *rangeSet) Add(begin, end []byte) {
	if bytes.Compare(begin, end) >= 0 {
		return
	}
	nr := KeyRange{Begin: append([]byte(nil), begin...), End: append([]byte(nil), end...)}
	// Find the first range whose End >= nr.Begin: candidates for merging.
	i := sort.Search(len(s.ranges), func(i int) bool {
		return bytes.Compare(s.ranges[i].End, nr.Begin) >= 0
	})
	j := i
	for j < len(s.ranges) && bytes.Compare(s.ranges[j].Begin, nr.End) <= 0 {
		if bytes.Compare(s.ranges[j].Begin, nr.Begin) < 0 {
			nr.Begin = s.ranges[j].Begin
		}
		if bytes.Compare(s.ranges[j].End, nr.End) > 0 {
			nr.End = s.ranges[j].End
		}
		j++
	}
	out := make([]KeyRange, 0, len(s.ranges)-(j-i)+1)
	out = append(out, s.ranges[:i]...)
	out = append(out, nr)
	out = append(out, s.ranges[j:]...)
	s.ranges = out
}

// AddKey inserts the single-key range for key.
func (s *rangeSet) AddKey(key []byte) {
	r := singleKeyRange(key)
	s.Add(r.Begin, r.End)
}

// ContainsKey reports whether any range contains key.
func (s *rangeSet) ContainsKey(key []byte) bool {
	i := sort.Search(len(s.ranges), func(i int) bool {
		return bytes.Compare(s.ranges[i].End, key) > 0
	})
	return i < len(s.ranges) && bytes.Compare(s.ranges[i].Begin, key) <= 0
}

// Overlaps reports whether any stored range intersects [begin, end).
func (s *rangeSet) Overlaps(begin, end []byte) bool {
	if bytes.Compare(begin, end) >= 0 {
		return false
	}
	i := sort.Search(len(s.ranges), func(i int) bool {
		return bytes.Compare(s.ranges[i].End, begin) > 0
	})
	return i < len(s.ranges) && bytes.Compare(s.ranges[i].Begin, end) < 0
}

// All returns the stored ranges. The returned slice must not be modified.
func (s *rangeSet) All() []KeyRange { return s.ranges }

// Len returns the number of disjoint ranges.
func (s *rangeSet) Len() int { return len(s.ranges) }
