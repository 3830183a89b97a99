package recordlayer

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"recordlayer/internal/core"
	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/keyspace"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/plan"
	"recordlayer/internal/tuple"
)

// pipelinedScan executes an index scan plan as FetchIndexedPipelined over its
// scan: the reference a mapped execution must match.
type pipelinedScan struct{ *plan.IndexScanPlan }

func (p pipelinedScan) Execute(s *core.Store, opts plan.ExecuteOptions) (cursor.Cursor[*core.StoredRecord], error) {
	entries, err := s.ScanIndex(p.IndexName, p.Range, index.ScanOptions{
		Reverse: p.Reverse, Limiter: opts.Limiter, Continuation: opts.Continuation, Snapshot: opts.Snapshot})
	if err != nil {
		return nil, err
	}
	return s.FetchIndexedPipelined(entries, opts.Snapshot, opts.PipelineDepth), nil
}

// TestMappedScanMatchesPipelinedFetch: an IndexScanPlan, which reads each
// batch's records with its entries, returns byte for byte the records,
// continuations and halt reasons FetchIndexedPipelined over the same scan
// does, page by page, under RowLimit, Skip, ScanRecordLimit and
// ScanByteLimit, forward and reverse, serializable and snapshot, over split
// records, and in a transaction whose own buffered saves and deletes the scan
// must see.
func TestMappedScanMatchesPipelinedFetch(t *testing.T) {
	doc := message.MustDescriptor("Doc",
		message.Field("id", 1, message.TypeInt64),
		message.Field("tag", 2, message.TypeString),
		message.Field("body", 3, message.TypeString),
	)
	md := metadata.NewBuilder(1).
		AddRecordType(doc, keyexpr.Field("id")).
		AddIndex(&metadata.Index{Name: "by_tag", Type: metadata.IndexValue, Expression: keyexpr.Field("tag")}, "Doc").
		MustBuild()
	ks, err := keyspace.New(nil, keyspace.NewConstant("app", "mapped").Add(keyspace.NewDirectory("user", keyspace.TypeInt64)))
	if err != nil {
		t.Fatal(err)
	}
	// A 40-byte chunk splits every record with a long body.
	p, err := NewStoreProvider(md, ks, []string{"app", "user"}, ProviderOptions{Config: core.Config{SplitChunkSize: 40}})
	if err != nil {
		t.Fatal(err)
	}
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{})
	ctx := context.Background()
	docOf := func(id int64, tag string) *message.Message {
		return message.New(doc).MustSet("id", id).MustSet("tag", tag).
			MustSet("body", strings.Repeat(fmt.Sprint(id), int(id%5)*12))
	}
	_, err = r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := p.Open(ctx, tr, int64(1))
		if err != nil {
			return nil, err
		}
		for id := int64(0); id < 60; id++ {
			if _, err := s.SaveRecord(docOf(id, []string{"a", "b", "c"}[id%3])); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// drain pages pl under props until it is exhausted, rendering every record
	// and continuation and each page's halt.
	drain := func(s *Store, pl plan.Plan, props ExecuteProperties) (string, error) {
		var b strings.Builder
		for page := 0; page < 100; page++ {
			cur, err := s.ExecutePlan(ctx, pl, props)
			if err != nil {
				return "", err
			}
			for {
				rec, ok, err := cur.Next()
				if err != nil {
					return "", err
				}
				if !ok {
					break
				}
				wire, err := rec.Message.Marshal()
				if err != nil {
					return "", err
				}
				fmt.Fprintf(&b, "%v %s %x %v %d %d | %x\n", rec.PrimaryKey, rec.Type.Name, wire, rec.Version, rec.Size,
					rec.SplitChunks, cur.Continuation())
			}
			fmt.Fprintf(&b, "halt %s %x\n", cur.NoNextReason(), cur.Continuation())
			if cur.Exhausted() {
				return b.String(), nil
			}
			props = props.WithContinuation(cur.Continuation())
		}
		return "", fmt.Errorf("no end after 100 pages")
	}
	scans := []*plan.IndexScanPlan{
		{IndexName: "by_tag", Range: index.TupleRange{Low: tuple.Tuple{"b"}, LowInclusive: true, High: tuple.Tuple{"b"}, HighInclusive: true}},
		{IndexName: "by_tag", Range: index.TupleRange{Low: tuple.Tuple{"a"}, LowInclusive: true, High: tuple.Tuple{"b"}, HighInclusive: true}, Reverse: true},
		{IndexName: "by_tag"},
	}
	propsCases := []ExecuteProperties{
		{},
		{RowLimit: 7},
		{Skip: 5, RowLimit: 4},
		{ScanRecordLimit: 6},
		{ScanByteLimit: 50},
		{RowLimit: 3, Snapshot: true},
		{ScanRecordLimit: 9, Snapshot: true},
	}
	var seen strings.Builder // every rendering, to check what the cases covered
	for _, buffered := range []bool{false, true} {
		_, err := r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			s, err := p.Open(ctx, tr, int64(1))
			if err != nil {
				return nil, err
			}
			if buffered {
				// The reading transaction's own writes: a new record in each
				// tag, a retag, a grown record and deletes.
				for _, m := range []*message.Message{docOf(100, "a"), docOf(101, "b"), docOf(102, "c"),
					docOf(4, "a"), docOf(9, "b").MustSet("body", strings.Repeat("x", 200))} {
					if _, err := s.SaveRecord(m); err != nil {
						return nil, err
					}
				}
				for _, id := range []int64{7, 10, 11} {
					if _, err := s.DeleteRecord(tuple.Tuple{id}); err != nil {
						return nil, err
					}
				}
			}
			for _, scan := range scans {
				for _, props := range propsCases {
					what := fmt.Sprintf("buffered=%v %s %+v", buffered, scan, props)
					got, err := drain(s, scan, props)
					if err != nil {
						return nil, fmt.Errorf("%s: mapped: %w", what, err)
					}
					want, err := drain(s, pipelinedScan{scan}, props)
					if err != nil {
						return nil, fmt.Errorf("%s: pipelined: %w", what, err)
					}
					seen.WriteString(got)
					if got != want {
						t.Errorf("%s: mapped execution\n%s\npipelined fetch\n%s", what, got, want)
					}
					if strings.Count(got, "\n") < 3 {
						t.Errorf("%s: too little to compare:\n%s", what, got)
					}
				}
			}
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{"return-limit-reached", "scan-limit-reached", "byte-limit-reached", " 3 | "} {
		if !strings.Contains(seen.String(), want) {
			t.Errorf("no case rendered %q (a halt, or a record split in 3 chunks)", want)
		}
	}
}
