package cluster

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

// RangeSet maintains a sorted list of disjoint, coalesced key ranges. It is
// used both for transaction conflict ranges and for the cleared-range overlay
// in the read-your-writes buffer.
type RangeSet struct {
	ranges []KeyRange // sorted by Begin; disjoint and non-adjacent
}

// Add inserts [begin, end), merging with any overlapping or adjacent ranges.
func (s *RangeSet) Add(begin, end []byte) { s.AddOwned(begin, end, false, false) }

// AddOwned is Add; ownBegin and ownEnd say which bounds are the set's to keep
// without a copy: bytes built for it, or bytes nothing writes again. It edits
// the slice in place — a transaction adds one range per read, and rebuilding
// the slice each time was a third of index_write's allocated bytes — but
// never the bytes of a stored bound: commit copies KeyRange values out of All.
func (s *RangeSet) AddOwned(begin, end []byte, ownBegin, ownEnd bool) {
	if bytes.Compare(begin, end) >= 0 {
		return
	}
	// ranges[i:j] are the ones the new range overlaps or touches.
	i := sort.Search(len(s.ranges), func(i int) bool {
		return bytes.Compare(s.ranges[i].End, begin) >= 0
	})
	j := i
	for j < len(s.ranges) && bytes.Compare(s.ranges[j].Begin, end) <= 0 {
		j++
	}
	nr := KeyRange{Begin: begin, End: end}
	keepLo := j > i && bytes.Compare(s.ranges[i].Begin, begin) <= 0
	keepHi := j > i && bytes.Compare(s.ranges[j-1].End, end) >= 0
	if keepLo && keepHi && j == i+1 {
		return // already covered
	}
	if keepLo {
		nr.Begin = s.ranges[i].Begin
	} else if !ownBegin {
		nr.Begin = append([]byte(nil), begin...)
	}
	if keepHi {
		nr.End = s.ranges[j-1].End
	} else if !ownEnd {
		nr.End = append([]byte(nil), end...)
	}
	if j == i {
		s.ranges = append(s.ranges, KeyRange{})
		copy(s.ranges[i+1:], s.ranges[i:])
	} else {
		s.ranges = append(s.ranges[:i+1], s.ranges[j:]...)
	}
	s.ranges[i] = nr
}

// AddKey inserts the single-key range for key.
func (s *RangeSet) AddKey(key []byte) {
	if s.ContainsKey(key) {
		return // its range ends at key's successor, so it is covered
	}
	r := singleKeyRange(key)
	s.AddOwned(r.Begin, r.End, true, true)
}

// ContainsKey reports whether any range contains key.
func (s *RangeSet) ContainsKey(key []byte) bool {
	i := sort.Search(len(s.ranges), func(i int) bool {
		return bytes.Compare(s.ranges[i].End, key) > 0
	})
	return i < len(s.ranges) && bytes.Compare(s.ranges[i].Begin, key) <= 0
}

// Overlaps reports whether any stored range intersects [begin, end).
func (s *RangeSet) Overlaps(begin, end []byte) bool {
	if bytes.Compare(begin, end) >= 0 {
		return false
	}
	i := sort.Search(len(s.ranges), func(i int) bool {
		return bytes.Compare(s.ranges[i].End, begin) > 0
	})
	return i < len(s.ranges) && bytes.Compare(s.ranges[i].Begin, end) < 0
}

// from returns the first range that ends past key: the one holding key, else
// the first after it. The resolver calls it to name the range a write hit.
func (s *RangeSet) from(key []byte) KeyRange {
	return s.ranges[sort.Search(len(s.ranges), func(i int) bool {
		return bytes.Compare(s.ranges[i].End, key) > 0
	})]
}

// All returns the stored ranges, to be read before the next Add and not modified.
func (s *RangeSet) All() []KeyRange { return s.ranges }

// Len returns the number of disjoint ranges.
func (s *RangeSet) Len() int { return len(s.ranges) }
