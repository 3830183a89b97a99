package plan

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"recordlayer/internal/core"
	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// TestIndexFetchAllocs pins what a query allocates per row it fetches through
// index entries, apart from decoding the record's message, whose count belongs
// to the message package: an index scan, and a union and an intersection of
// two scans that merge on the entries' primary keys and fetch once above. Every
// Item has a = b = 1, so each scan matches every record and each merge step
// takes one entry from both children.
func TestIndexFetchAllocs(t *testing.T) {
	const n = 20
	db := fdb.Open(nil)
	field := func(name string) *metadata.Index {
		return &metadata.Index{Name: "by_" + name, Type: metadata.IndexValue, Expression: keyexpr.Field(name)}
	}
	md := metadata.NewBuilder(1).
		AddRecordType(itemDesc(), keyexpr.Field("id")).
		AddIndex(field("a"), "Item").AddIndex(field("b"), "Item").
		MustBuild()
	spaces := map[int]subspace.Subspace{}
	var wire []byte
	for _, size := range []int{n, 2 * n} {
		spaces[size] = subspace.FromTuple(tuple.Tuple{"items", int64(size)})
		_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
			s, err := core.Open(tr, md, spaces[size], core.OpenOptions{CreateIfMissing: true})
			if err != nil {
				return nil, err
			}
			for i := 0; i < size; i++ {
				m := message.New(itemDesc()).MustSet("id", int64(1000+i)).MustSet("a", int64(1)).MustSet("b", int64(1))
				if wire, err = m.Marshal(); err != nil {
					return nil, err
				}
				if _, err := s.SaveRecord(m); err != nil {
					return nil, err
				}
			}
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rt, _ := md.RecordType("Item")
	decode := allocsPerRun(func() {
		if _, err := message.Unmarshal(rt.Descriptor, wire); err != nil {
			t.Fatal(err)
		}
	})
	eq := func(name string) Plan {
		v := tuple.Tuple{int64(1)}
		return &IndexScanPlan{IndexName: "by_" + name, FullyBound: true,
			Range: index.TupleRange{Low: v, High: v, LowInclusive: true, HighInclusive: true}}
	}
	tr := db.CreateTransaction()
	// perRow is what one more row of p allocates, beyond decoding its message.
	perRow := func(p Plan) allocs {
		run := func(size int) allocs {
			s, err := core.Open(tr, md, spaces[size], core.OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return allocsPerRun(func() {
				c, err := p.Execute(s, ExecuteOptions{PipelineDepth: 8})
				if err != nil {
					t.Fatal(err)
				}
				if recs, _, _, err := cursor.Collect(c); err != nil || len(recs) != size {
					t.Fatalf("%s: %d records, %v", p, len(recs), err)
				}
			})
		}
		small, large := run(n), run(2*n)
		return allocs{
			count: math.Round((large.count-small.count)/n) - decode.count,
			bytes: math.Round((large.bytes-small.bytes)/n) - decode.bytes,
		}
	}
	for _, tc := range []struct {
		plan Plan
		want allocs
	}{
		// 11 allocs, 983 B when each entry was unpacked into three tuples
		// and its primary key packed again to build the record range; 6
		// allocs, 504 B (and 741 B, 619 B below) when each range read's
		// reply copied two slice headers per pair.
		{eq("a"), allocs{6, 400}},
		// 15 allocs, 1043 B when each merged row's continuation was a JSON
		// array of child slots with base64 keys, marshalled through
		// reflection; the frame is one slice sized before it is written.
		// 23 allocs, 1573 B, and 21, 1537 B, when each merge comparison also
		// packed the head's primary key again and each peek put the head on
		// the heap.
		{&UnionPlan{Children: []Plan{eq("a"), eq("b")}}, allocs{7, 600}},
		{&IntersectionPlan{Children: []Plan{eq("a"), eq("b")}}, allocs{7, 475}},
	} {
		got := perRow(tc.plan)
		if got.count > tc.want.count || got.bytes > tc.want.bytes {
			t.Errorf("%s: per row, beyond decoding the message (%v): %v, want <= %v", tc.plan, decode, got, tc.want)
		}
		t.Logf("%s: per row, beyond decoding the message (%v): %v", tc.plan, decode, got)
	}
}

// allocs is what a run allocates: objects, and their bytes.
type allocs struct{ count, bytes float64 }

func (a allocs) String() string { return fmt.Sprintf("%v allocs, %v B", a.count, a.bytes) }

// allocsPerRun is testing.AllocsPerRun counting bytes too: the average over
// 20 runs of f, after one to warm it up. Run it at GOMAXPROCS 1.
func allocsPerRun(f func()) allocs {
	const runs = 20
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return allocs{float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs}
}
