// Leaderboard example (Appendix B): the RANK index answers "what place am I
// in?" and "who is at rank k?" without scanning — the paper's leaderboard
// and scrollbar use cases — driven through the public recordlayer façade.
package main

import (
	"context"
	"fmt"
	"log"

	"recordlayer"
	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/keyspace"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/tuple"
)

func main() {
	player := message.MustDescriptor("Player",
		message.Field("handle", 1, message.TypeString),
		message.Field("score", 2, message.TypeInt64),
	)
	md := metadata.NewBuilder(1).
		AddRecordType(player, keyexpr.Field("handle")).
		AddIndex(&metadata.Index{Name: "by_score", Type: metadata.IndexRank,
			Expression: keyexpr.Field("score")}, "Player").
		MustBuild()

	db := fdb.Open(nil)
	runner := recordlayer.NewRunner(db, recordlayer.RunnerOptions{})
	ks, err := keyspace.New(nil,
		keyspace.NewConstant("game", "leaderboard").Add(
			keyspace.NewDirectory("season", keyspace.TypeInt64)))
	if err != nil {
		log.Fatal(err)
	}
	provider, err := recordlayer.NewStoreProvider(md, ks,
		[]string{"game", "season"}, recordlayer.ProviderOptions{})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	const season = int64(2026)

	scores := map[string]int64{
		"ahab": 4200, "ishmael": 1250, "queequeg": 3800,
		"starbuck": 2900, "stubb": 1900, "flask": 800,
		"pip": 3100, "fedallah": 2200,
	}
	_, err = runner.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := provider.Open(ctx, tr, season)
		if err != nil {
			return nil, err
		}
		for h, s := range scores {
			rec := message.New(player).MustSet("handle", h).MustSet("score", s)
			if _, err := store.SaveRecord(rec); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		log.Fatal(err)
	}

	_, err = runner.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := provider.Open(ctx, tr, season)
		if err != nil {
			return nil, err
		}
		// "What place is queequeg in?" — one skip-list descent, not a scan.
		rank, ok, err := store.Rank("by_score", tuple.Tuple{scores["queequeg"]}, tuple.Tuple{"queequeg"})
		if err != nil || !ok {
			return nil, fmt.Errorf("rank: %v %v", ok, err)
		}
		size, _ := store.ScanByRank("by_score", 0, index.ScanOptions{})
		all, _, _, err := cursor.Collect(size)
		if err != nil {
			return nil, err
		}
		fmt.Printf("queequeg is #%d of %d (0 = lowest score)\n\n", rank, len(all))

		// "Show the podium" — top three by rank, via a reverse-ish walk:
		// ranks n-1, n-2, n-3 resolved by Select.
		fmt.Println("podium:")
		n := int64(len(all))
		for i := int64(1); i <= 3; i++ {
			e, ok, err := store.ByRank("by_score", n-i)
			if err != nil || !ok {
				return nil, fmt.Errorf("byRank: %v %v", ok, err)
			}
			fmt.Printf("  %d. %-10v score %v\n", i, e.PrimaryKey()[0], e.Key()[0])
		}

		// Scrollbar: jump straight to the middle of the result list (App. B:
		// "skip to the middle of a long page of results").
		mid := n / 2
		c, err := store.ScanByRank("by_score", mid, index.ScanOptions{})
		if err != nil {
			return nil, err
		}
		page, _, _, err := cursor.Collect(cursor.Limit(c, 3))
		if err != nil {
			return nil, err
		}
		fmt.Printf("\nscrollbar jump to rank %d:\n", mid)
		for _, e := range page {
			fmt.Printf("  %-10v score %v\n", e.PrimaryKey()[0], e.Key()[0])
		}
		return nil, nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// A score update moves the player atomically: old rank entry out, new in.
	_, err = runner.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := provider.Open(ctx, tr, season)
		if err != nil {
			return nil, err
		}
		rec := message.New(player).MustSet("handle", "flask").MustSet("score", int64(5000))
		_, err = store.SaveRecord(rec)
		return nil, err
	})
	if err != nil {
		log.Fatal(err)
	}
	_, err = runner.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := provider.Open(ctx, tr, season)
		if err != nil {
			return nil, err
		}
		rank, _, err := store.Rank("by_score", tuple.Tuple{int64(5000)}, tuple.Tuple{"flask"})
		if err != nil {
			return nil, err
		}
		fmt.Printf("\nafter flask's 5000-point game: rank #%d (top!)\n", rank)
		return nil, nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
