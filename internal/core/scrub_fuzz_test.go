package core

import (
	"bytes"
	"context"
	"testing"

	"recordlayer/internal/tuple"
)

// FuzzScrubCorruptIndex writes one fuzzed pair into the subspace of one index
// of a small store with an index of every type a scrub checks. A report-only
// scrub must neither panic nor fail: a pair that does not decode is an issue,
// not an error. A Repair pass must then leave a clean re-scrub.
func FuzzScrubCorruptIndex(f *testing.F) {
	md := scrubSchema()
	ixs := md.Indexes()
	for i := range ixs {
		f.Add(uint8(i), []byte{0x02, 'x', 0x00}, []byte{})
		f.Add(uint8(i), tuple.Tuple{int64(1), int64(0), []byte("m")}.Pack(), []byte{1, 0, 0, 0, 0, 0, 0, 0})
		f.Add(uint8(i), tuple.Tuple{"u03", "User", int64(3)}.Pack(), tuple.Tuple{int64(5)}.Pack())
		f.Add(uint8(i), tuple.Tuple{"boat", tuple.Tuple{"User", int64(2)}}.Pack(), tuple.Tuple{tuple.Tuple{int64(0)}}.Pack())
	}
	f.Add(uint8(4), tuple.Tuple{int64(1), int64(1), []byte{}}.Pack(), []byte{9, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(4), tuple.Tuple{int64(1), int64(9)}.Pack(), []byte{})
	f.Fuzz(func(t *testing.T, which uint8, key, value []byte) {
		if len(key) > 1000 || len(value) > 10000 {
			t.Skip()
		}
		db, md, sp := scrubStore(t, 8)
		name := ixs[int(which)%len(ixs)].Name
		withStore(t, db, md, sp, func(s *Store) error {
			return s.tr.Set(append(bytes.Clone(s.IndexSubspace(name).Bytes()), key...), value)
		})
		scr := &Scrubber{DB: db, MetaData: md, Space: sp, IndexName: name, BatchSize: 3}
		if _, err := scr.Scrub(context.Background()); err != nil {
			t.Fatalf("report-only scrub of %s: %v", name, err)
		}
		scr.Repair = true
		if _, err := scr.Scrub(context.Background()); err != nil {
			t.Fatalf("repair of %s: %v", name, err)
		}
		scr.Repair = false
		rep, err := scr.Scrub(context.Background())
		if err != nil || !rep.Clean() {
			t.Fatalf("re-scrub of %s after repair: %v, %v", name, rep.Issues, err)
		}
	})
}
