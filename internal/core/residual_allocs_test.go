package core

import (
	"fmt"
	"math"
	"testing"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/query"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// TestResidualScanAllocs: a full scan whose residual filter rejects every
// record builds none of them. Per record it allocates the pairs the range read
// returns and the box of the one field the filter reads (a score of 256 or
// more), and no StoredRecord, primary key, Message, slots or boxes of the
// fields the filter does not read.
func TestResidualScanAllocs(t *testing.T) {
	// Before the filter ran inside the scan, building each record and
	// filtering it above the scan cost 1427 allocations for 100 records, 14
	// per record: here a record's two pairs are 4, and the score's box 1.
	const want100, wantPerRecord = 540, 5
	db, md := fdb.Open(nil), testSchema(t)
	stores := map[int]subspace.Subspace{}
	for _, size := range []int{100, 200} {
		sp := subspace.FromTuple(tuple.Tuple{"tenant", int64(size)})
		stores[size] = sp
		for i := int64(0); i < int64(size); i++ {
			saveUsers(t, db, md, sp, mkUser(i, fmt.Sprintf("user-%03d", i), 1000+i))
		}
	}
	tr := db.CreateTransaction()
	rejectAll := query.Field("score").GreaterOrEqual(int64(1) << 40)
	scan := func(size int) float64 {
		s, err := Open(tr, md, stores[size], OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			c := s.ScanRecords(ScanOptions{Filter: &RecordFilter{
				Types: []string{"User"}, Fields: []string{"score"}, Keep: rejectAll.Eval,
			}})
			if recs, reason, _, err := cursor.Collect(c); err != nil || len(recs) != 0 || reason != cursor.SourceExhausted {
				t.Fatalf("scan: %d records, %v, %v", len(recs), reason, err)
			}
		})
	}
	n100, n200 := scan(100), scan(200)
	perRecord := math.Round((n200 - n100) / 100)
	if n100 > want100 || perRecord > wantPerRecord {
		t.Fatalf("a 100-record scan dropping every record: %v allocations, want <= %d; %v per record, want <= %d",
			n100, want100, perRecord, wantPerRecord)
	}
	t.Logf("a 100-record scan dropping every record: %v allocations, %v per record", n100, perRecord)
}
