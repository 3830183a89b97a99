package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/message"
	"recordlayer/internal/obs"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// TestRankReadSpans: each rank read operation records exactly one
// index.<name> span covering the whole skip-list descent — its boundaries are
// exact virtual-clock readings taken around the call, and the multiple
// per-level read windows the descent pays all land inside that single span
// rather than producing one span per level.
func TestRankReadSpans(t *testing.T) {
	const window = time.Millisecond
	db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{PerRead: window, Virtual: true}})
	md := testSchema(t)
	sp := subspace.FromTuple(tuple.Tuple{"t"})
	saveUsers(t, db, md, sp,
		mkUser(1, "a", 100), mkUser(2, "b", 200), mkUser(3, "c", 300), mkUser(4, "d", 400))

	trace := obs.NewTrace()
	_, err := db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) {
		tr.SetTrace(trace)
		s, err := Open(tr, md, sp, OpenOptions{})
		if err != nil {
			return nil, err
		}
		type op struct {
			attr string
			call func() error
		}
		ops := []op{
			{"op=rank", func() error {
				_, _, err := s.Rank("score_rank", tuple.Tuple{int64(300)}, tuple.Tuple{"User", int64(3)})
				return err
			}},
			{"op=rank_of_value", func() error {
				_, err := s.RankOfValue("score_rank", tuple.Tuple{int64(250)})
				return err
			}},
			{"op=by_rank", func() error {
				_, _, err := s.ByRank("score_rank", 2)
				return err
			}},
			{"op=scan_by_rank", func() error {
				_, err := s.ScanByRank("score_rank", 1, index.ScanOptions{})
				return err
			}},
		}
		for i, o := range ops {
			readsBefore := len(trace.Named(obs.SpanRead))
			t0 := tr.LatencyNow()
			if err := o.call(); err != nil {
				return nil, fmt.Errorf("%s: %v", o.attr, err)
			}
			t1 := tr.LatencyNow()
			spans := trace.Named(obs.SpanIndexPrefix + "score_rank")
			if len(spans) != i+1 {
				t.Fatalf("after %s: %d index spans, want %d (one per operation, not per level)",
					o.attr, len(spans), i+1)
			}
			sp := spans[i]
			if sp.Start != t0 || sp.End != t1 {
				t.Fatalf("%s span [%d,%d], want exact clock readings [%d,%d]",
					o.attr, sp.Start, sp.End, t0, t1)
			}
			if sp.End <= sp.Start {
				t.Fatalf("%s span has no duration: %+v", o.attr, sp)
			}
			if sp.Attr != o.attr {
				t.Fatalf("span attr %q, want %q", sp.Attr, o.attr)
			}
			// The descent reads more than one key range; all of those windows
			// belong to this one span.
			levelReads := trace.Named(obs.SpanRead)[readsBefore:]
			if len(levelReads) < 2 {
				t.Fatalf("%s: descent recorded %d read windows, expected several under one span",
					o.attr, len(levelReads))
			}
			for _, r := range levelReads {
				if r.Start < sp.Start || r.End > sp.End {
					t.Fatalf("%s: read window [%d,%d] escapes index span [%d,%d]",
						o.attr, r.Start, r.End, sp.Start, sp.End)
				}
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIndexerBatchSpan: an online build with a trace on its context records one
// indexer.batch span per batch transaction, carrying the batch limit and the
// records actually indexed, with exact virtual-clock boundaries that contain
// the batch's read windows.
func TestIndexerBatchSpan(t *testing.T) {
	const window = time.Millisecond
	db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{PerRead: window, Virtual: true}})
	sp := subspace.FromTuple(tuple.Tuple{"t"})
	v1 := baseSchemaV1(t)
	var users []*message.Message
	for i := int64(1); i <= 20; i++ {
		users = append(users, mkUser(i, fmt.Sprintf("u%d", i), i*10))
	}
	saveUsers(t, db, v1, sp, users...)

	v2 := evolveSchema(t)
	cfg := Config{InlineBuildLimit: 5}
	trace := obs.NewTrace()
	indexer := &OnlineIndexer{DB: db, MetaData: v2, Space: sp, IndexName: "by_score",
		BatchSize: 7, Config: cfg}
	n, err := indexer.Build(obs.WithTrace(context.Background(), trace))
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("indexed %d records", n)
	}
	spans := trace.Named(obs.SpanIndexerBatch)
	if len(spans) != 3 { // 20 records in batches of 7: 7+7+6
		t.Fatalf("batch spans: %d, want 3 (%+v)", len(spans), spans)
	}
	for i, s := range spans {
		wantRecords := 7
		if i == 2 {
			wantRecords = 6
		}
		want := fmt.Sprintf("batch=7 records=%d", wantRecords)
		if s.Attr != want {
			t.Fatalf("batch span %d attr %q, want %q", i, s.Attr, want)
		}
		if s.End <= s.Start {
			t.Fatalf("batch span %d has no duration: %+v", i, s)
		}
		if i > 0 && s.Start < spans[i-1].End {
			t.Fatalf("batch spans overlap across transactions: %+v", spans)
		}
	}
	// Every read window recorded during the build that falls inside a batch
	// transaction's span is priced by the same virtual clock.
	if !strings.Contains(trace.Summary(), obs.SpanIndexerBatch) {
		t.Fatalf("summary missing batch spans: %s", trace.Summary())
	}
}

// TestTextSaveSpansRepeat: a save that touches many tokens of a TEXT index
// records the same span sequence on every run. Each token's boundary read
// returns a bunch of a different size, so the sequence is a fingerprint of the
// order the reads were issued in — which must come from the tokens, not from
// map iteration.
func TestTextSaveSpansRepeat(t *testing.T) {
	const bio = "a bb ccc dddd eeeee ffffff ggggggg hhhhhhhh iiiiiiiii jjjjjjjjjj kkkkkkkkkkk llllllllllll"
	md := testSchema(t)
	sp := subspace.FromTuple(tuple.Tuple{"t"})
	run := func() []obs.Span {
		db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{PerRead: time.Millisecond, Virtual: true}})
		saveUsers(t, db, md, sp, mkUser(1, "a", 100).MustSet("bio", bio))
		trace := obs.NewTrace()
		_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
			tr.SetTrace(trace)
			s, err := Open(tr, md, sp, OpenOptions{})
			if err != nil {
				return nil, err
			}
			// One record gains every token, the other loses every second one.
			if _, err := s.SaveRecord(mkUser(2, "b", 200).MustSet("bio", bio)); err != nil {
				return nil, err
			}
			_, err = s.SaveRecord(mkUser(1, "a", 100).MustSet("bio", "a ccc eeeee ggggggg iiiiiiiii kkkkkkkkkkk"))
			return nil, err
		})
		if err != nil {
			t.Fatal(err)
		}
		return trace.Spans()
	}
	want := run()
	if len(want) == 0 {
		t.Fatal("no spans recorded")
	}
	for i := 0; i < 5; i++ {
		got := run()
		if len(got) != len(want) {
			t.Fatalf("run %d: %d spans, first run %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("run %d: span %d is %+v, first run %+v", i, j, got[j], want[j])
			}
		}
	}
}
