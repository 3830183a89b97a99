package subspace

import (
	"bytes"
	"testing"

	"recordlayer/internal/tuple"
)

func TestPackUnpack(t *testing.T) {
	s := FromTuple(tuple.Tuple{"app", int64(1)})
	key := s.Pack(tuple.Tuple{"rec", int64(42)})
	got, err := s.Unpack(key)
	if err != nil {
		t.Fatal(err)
	}
	if !tuple.Equal(got, tuple.Tuple{"rec", int64(42)}) {
		t.Fatalf("unpack: %v", got)
	}
}

func TestUnpackOutside(t *testing.T) {
	s := FromTuple(tuple.Tuple{"a"})
	o := FromTuple(tuple.Tuple{"b"})
	if _, err := s.Unpack(o.Pack(tuple.Tuple{int64(1)})); err == nil {
		t.Fatal("unpack of foreign key should fail")
	}
}

func TestContainsAndRange(t *testing.T) {
	s := FromTuple(tuple.Tuple{"store", int64(7)})
	inner := s.Pack(tuple.Tuple{"x"})
	if !s.Contains(inner) {
		t.Fatal("contains failed")
	}
	begin, end := s.Range()
	if !(bytes.Compare(begin, inner) <= 0 && bytes.Compare(inner, end) < 0) {
		t.Fatal("inner key outside range")
	}
	other := FromTuple(tuple.Tuple{"store", int64(8)}).Pack(tuple.Tuple{"x"})
	if bytes.Compare(other, end) < 0 && bytes.Compare(other, begin) >= 0 {
		t.Fatal("foreign key inside range")
	}
}

func TestSubNesting(t *testing.T) {
	root := FromBytes([]byte{0x15})
	child := root.Sub("idx", int64(3))
	if !root.Contains(child.Bytes()) {
		t.Fatal("child prefix not under parent")
	}
	key := child.Pack(tuple.Tuple{"entry"})
	got, err := child.Unpack(key)
	if err != nil || !tuple.Equal(got, tuple.Tuple{"entry"}) {
		t.Fatalf("nested unpack: %v %v", got, err)
	}
}

func TestDisjointSiblings(t *testing.T) {
	parent := FromTuple(tuple.Tuple{"p"})
	a := parent.Sub(int64(1))
	b := parent.Sub(int64(2))
	ab, ae := a.Range()
	k := b.Pack(tuple.Tuple{"x"})
	if bytes.Compare(k, ab) >= 0 && bytes.Compare(k, ae) < 0 {
		t.Fatal("sibling subspaces overlap")
	}
}

func TestPackWithVersionstamp(t *testing.T) {
	s := FromTuple(tuple.Tuple{"version-index"})
	key, err := s.PackWithVersionstamp(tuple.Tuple{tuple.IncompleteVersionstamp(1), int64(5)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(key, s.Bytes()) {
		t.Fatal("prefix missing")
	}
}

func TestAllRange(t *testing.T) {
	s := FromBytes([]byte{0x01, 0x02})
	begin, end := s.AllRange()
	if !bytes.Equal(begin, []byte{0x01, 0x02}) || !bytes.Equal(end, []byte{0x01, 0x03}) {
		t.Fatalf("all range: %x %x", begin, end)
	}
}

// TestKeysMatchCopyingPack holds Pack, Sub and RangeForTuple, which pack into
// one buffer, to the copying construction they replaced: prefix, then the
// packed tuple, then 0x00 or 0xFF, each step a fresh copy. The tuples cover
// every element type, including the worst case of PackedCap's bound (nested
// nulls and zero bytes), and the keys must not share memory: appending to one
// never changes another.
func TestKeysMatchCopyingPack(t *testing.T) {
	var u tuple.UUID
	u[3] = 0x00
	tuples := []tuple.Tuple{
		{},
		{nil},
		{int64(0), int64(-1), int64(1 << 40), int64(-1 << 62), uint64(1) << 63},
		{"a\x00b", []byte{0x00, 0xFF, 0x00}, ""},
		{tuple.Tuple{nil, tuple.Tuple{nil, "\x00"}, int64(5)}},
		{float32(1.5), 2.5, true, false, u},
		{tuple.Versionstamp{UserVersion: 7}},
	}
	for _, prefix := range []Subspace{FromBytes(nil), FromTuple(tuple.Tuple{"tenant", int64(9)})} {
		for _, tt := range tuples {
			p := append(append([]byte(nil), prefix.prefix...), tt.Pack()...)
			if got := prefix.Pack(tt); !bytes.Equal(got, p) {
				t.Fatalf("Pack(%v) = %x, want %x", tt, got, p)
			}
			if got := prefix.Sub(tt...).Bytes(); !bytes.Equal(got, p) {
				t.Fatalf("Sub(%v) = %x, want %x", tt, got, p)
			}
			begin, end := prefix.RangeForTuple(tt)
			wantBegin := append(append([]byte(nil), p...), 0x00)
			wantEnd := append(append([]byte(nil), p...), 0xFF)
			if !bytes.Equal(begin, wantBegin) || !bytes.Equal(end, wantEnd) {
				t.Fatalf("RangeForTuple(%v) = %x, %x, want %x, %x", tt, begin, end, wantBegin, wantEnd)
			}
			_ = append(begin, 0xAA)
			if !bytes.Equal(end, wantEnd) {
				t.Fatalf("RangeForTuple(%v): appending to begin changed end to %x", tt, end)
			}
		}
	}
}
