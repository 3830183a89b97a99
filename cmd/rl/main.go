// Command rl is a guided tour of the Record Layer through its public
// façade: it walks the paper's feature set — record stores opened via a
// multi-tenant StoreProvider, schema evolution, declarative queries under
// ExecuteProperties, continuations and resource limits, and the Runner's
// bounded retry loop — narrating each step. Useful as a smoke test and as
// living documentation.
//
//	go run ./cmd/rl                        # the tour
//	go run ./cmd/rl tenants                # per-tenant usage snapshots
//	go run ./cmd/rl tenants set-limits t1 -rate 50 -bytes 65536
//	                                       # persist quotas in the database
//	go run ./cmd/rl tenants show           # the persisted limits table
//	go run ./cmd/rl usage                  # metering export + billing report
//	go run ./cmd/rl metrics                # Prometheus text-format dump
//	go run ./cmd/rl plans                  # cached plans, one per query shape
//	go run ./cmd/rl scrub                  # index consistency scrubber demo
package main

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"recordlayer"
	"recordlayer/internal/bunched"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/keyspace"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/query"
	"recordlayer/internal/rankedset"
	"recordlayer/internal/tuple"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "tour":
		case "tenants":
			if len(os.Args) > 2 {
				switch os.Args[2] {
				case "set-limits":
					setLimitsCmd(os.Args[3:])
					return
				case "show":
					showLimitsCmd()
					return
				default:
					fmt.Fprintf(os.Stderr, "usage: rl tenants [set-limits <tenant> [flags]|show]\n")
					os.Exit(2)
				}
			}
			tenantsCmd()
			return
		case "usage":
			usageCmd()
			return
		case "metrics":
			metricsCmd()
			return
		case "plans":
			plansCmd()
			return
		case "scrub":
			scrubCmd()
			return
		default:
			fmt.Fprintf(os.Stderr, "usage: rl [tour|tenants|usage|metrics|plans|scrub]\n")
			os.Exit(2)
		}
	}
	tour()
}

// setLimitsCmd persists one tenant's quotas through the LimitsStore, then
// proves the paper-shaped flow: two independent Governors — two "stateless
// servers" — load the same table and enforce identical limits with no
// in-process SetLimits call. (The bundled FoundationDB simulator is
// in-memory, so the whole flow runs in one process; against a real cluster
// the write and the loads would happen on different machines.)
func setLimitsCmd(args []string) {
	fs := flag.NewFlagSet("set-limits", flag.ExitOnError)
	rate := fs.Float64("rate", 0, "transactions per second (0 = unlimited)")
	burst := fs.Int("burst", 0, "txn token-bucket depth (0 = default)")
	bytes := fs.Float64("bytes", 0, "read+write bytes per second (0 = unlimited)")
	byteBurst := fs.Int64("byteburst", 0, "byte token-bucket depth (0 = default)")
	concurrent := fs.Int("concurrent", 0, "max in-flight transactions (0 = unlimited)")
	weight := fs.Int("weight", 0, "fair-share weight (0 = 1)")
	if len(args) < 1 || args[0] == "" || args[0][0] == '-' {
		fmt.Fprintln(os.Stderr, "usage: rl tenants set-limits <tenant> [-rate N] [-burst N] [-bytes N] [-byteburst N] [-concurrent N] [-weight N]")
		os.Exit(2)
	}
	tenant := args[0]
	must(fs.Parse(args[1:]))

	db := fdb.Open(nil)
	store := recordlayer.NewLimitsStore(db)
	lim := recordlayer.TenantLimits{
		TxnPerSecond:   *rate,
		Burst:          *burst,
		BytesPerSecond: *bytes,
		ByteBurst:      *byteBurst,
		MaxConcurrent:  *concurrent,
		Weight:         *weight,
	}
	must(store.Set(tenant, lim))
	fmt.Printf("persisted limits for %q under /__system__/limits:\n", tenant)
	printLimitsTable(store)

	// Two stateless servers load the same table.
	govA := recordlayer.NewGovernor(nil, recordlayer.GovernorOptions{})
	govB := recordlayer.NewGovernor(nil, recordlayer.GovernorOptions{})
	nA, err := govA.LoadLimits(store)
	must(err)
	_, err = govB.LoadLimits(store)
	must(err)
	fmt.Printf("\ntwo governors loaded %d persisted tenant(s); no SetLimits call anywhere:\n", nA)
	for i, gov := range []*recordlayer.Governor{govA, govB} {
		l := gov.LimitsFor(tenant)
		fmt.Printf("  server %d LimitsFor(%q) = {rate %.0f/s burst %d bytes %.0f/s byteburst %d concurrent %d weight %d}\n",
			i+1, tenant, l.TxnPerSecond, l.Burst, l.BytesPerSecond, l.ByteBurst, l.MaxConcurrent, l.Weight)
	}
}

// showLimitsCmd prints the persisted limits table. The in-memory simulator
// starts empty, so a few example rows are seeded first (clearly marked) to
// show the encoding round-trip and the operator's view.
func showLimitsCmd() {
	db := fdb.Open(nil)
	store := recordlayer.NewLimitsStore(db)
	all, err := store.All()
	must(err)
	if len(all) == 0 {
		fmt.Println("(limits table empty; seeding example rows — an in-memory simulator starts blank)")
		must(store.Set("acme", recordlayer.TenantLimits{TxnPerSecond: 100, MaxConcurrent: 8}))
		must(store.Set("freeloader", recordlayer.TenantLimits{TxnPerSecond: 10, Burst: 2, BytesPerSecond: 64 << 10}))
	}
	printLimitsTable(store)
}

func printLimitsTable(store *recordlayer.LimitsStore) {
	all, err := store.All()
	must(err)
	fmt.Printf("  %-12s %8s %6s %10s %10s %6s %6s\n",
		"TENANT", "TXN/S", "BURST", "BYTES/S", "BYTEBURST", "CONC", "WEIGHT")
	names := make([]string, 0, len(all))
	for t := range all {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, t := range names {
		l := all[t]
		fmt.Printf("  %-12s %8.0f %6d %10.0f %10d %6d %6d\n",
			t, l.TxnPerSecond, l.Burst, l.BytesPerSecond, l.ByteBurst, l.MaxConcurrent, l.Weight)
	}
}

// tenantsCmd drives a short governed multi-tenant workload and prints each
// tenant's usage snapshot from the Accountant — the operator's view of who
// is consuming the cluster.
func tenantsCmd() {
	db := fdb.Open(nil)
	acct := recordlayer.NewAccountant()
	gov := recordlayer.NewGovernor(acct, recordlayer.GovernorOptions{})
	gov.SetLimits("freeloader", recordlayer.TenantLimits{TxnPerSecond: 25, Burst: 5})
	runner := recordlayer.NewRunner(db, recordlayer.RunnerOptions{Governor: gov})
	ctx := context.Background()

	note := message.MustDescriptor("Note",
		message.Field("id", 1, message.TypeInt64),
		message.Field("zone", 2, message.TypeString),
	)
	md := metadata.NewBuilder(1).
		AddRecordType(note, keyexpr.Field("id")).
		AddIndex(&metadata.Index{Name: "by_zone", Type: metadata.IndexValue,
			Expression: keyexpr.Then(keyexpr.Field("zone"), keyexpr.Field("id"))}, "Note").
		MustBuild()
	ks, err := keyspace.New(nil,
		keyspace.NewConstant("app", "tenants-demo").Add(
			keyspace.NewDirectory("tenant", keyspace.TypeString)))
	must(err)
	provider, err := recordlayer.NewStoreProvider(md, ks, []string{"app", "tenant"},
		recordlayer.ProviderOptions{})
	must(err)

	// Tenants with very different appetites; the rate-limited one keeps
	// going until its quota rejects it.
	rejected := map[string]int{}
	for _, load := range []struct {
		tenant string
		txns   int
		writes int
		reads  int
	}{
		{"acme", 8, 12, 3},
		{"initech", 3, 4, 1},
		{"freeloader", 40, 2, 0},
	} {
		tctx := recordlayer.WithTenant(ctx, load.tenant)
		id := int64(0)
		for t := 0; t < load.txns; t++ {
			recs := make([]*message.Message, load.writes)
			for j := range recs {
				recs[j] = message.New(note).MustSet("id", id).MustSet("zone", "z")
				id++
			}
			_, err := runner.Run(tctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
				s, err := provider.Open(ctx, tr, load.tenant)
				if err != nil {
					return nil, err
				}
				for _, rec := range recs {
					if _, err := s.SaveRecord(rec); err != nil {
						return nil, err
					}
				}
				return nil, nil
			})
			if recordlayer.IsQuotaExceeded(err) {
				rejected[load.tenant]++
				continue // a real client would back off for err.RetryAfter
			}
			must(err)
		}
		for t := 0; t < load.reads; t++ {
			_, err := runner.ReadRun(tctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
				s, err := provider.Open(ctx, tr, load.tenant)
				if err != nil {
					return nil, err
				}
				cur, err := s.ExecuteQuery(ctx, recordlayer.Query{
					RecordTypes: []string{"Note"},
					Filter:      query.Field("zone").Equals("z"),
				}, recordlayer.ExecuteProperties{RowLimit: 50, Snapshot: true})
				if err != nil {
					return nil, err
				}
				return nil, cur.ForEach(func(*recordlayer.Record) error { return nil })
			})
			must(err)
		}
	}

	fmt.Println("Per-tenant usage (Accountant snapshot):")
	fmt.Printf("  %-12s %6s %9s %13s %13s %9s %6s %6s %9s\n",
		"TENANT", "TXNS", "MEAN-LAT", "READ(rows/B)", "WRITE(rows/B)", "CONFLICTS", "ADMIT", "REJECT", "QUOTA")
	for _, u := range acct.Snapshot() {
		quota := "-"
		if l := gov.LimitsFor(u.Tenant); l.TxnPerSecond > 0 {
			quota = fmt.Sprintf("%.0f/s", l.TxnPerSecond)
		}
		fmt.Printf("  %-12s %6d %9s %5d/%-7d %5d/%-7d %9d %6d %6d %9s\n",
			u.Tenant, u.Transactions, u.MeanTxnTime().Round(1000).String(),
			u.ReadRecords, u.ReadBytes, u.WriteRecords, u.WriteBytes,
			u.Conflicts, u.Admitted, u.Rejected, quota)
	}
	fmt.Printf("\n  (freeloader hit its %0.f txn/s quota %d times and was told to back off)\n",
		gov.LimitsFor("freeloader").TxnPerSecond, rejected["freeloader"])
}

// usageCmd demonstrates the billing-grade export pipeline: two "servers"
// (independent Accountants sharing one database) run multi-tenant traffic,
// their UsageExporters append per-tenant windows to the shared metering
// subspace, and the final report aggregates the rows per tenant and
// cross-tenant — the MTBase-style queries a billing pipeline runs. The
// printed totals are checked against the live Accountant snapshots.
func usageCmd() {
	db := fdb.Open(nil)
	metering := recordlayer.NewMeteringStore(db)
	ctx := context.Background()

	note := message.MustDescriptor("Note",
		message.Field("id", 1, message.TypeInt64),
		message.Field("zone", 2, message.TypeString),
	)
	md := metadata.NewBuilder(1).
		AddRecordType(note, keyexpr.Field("id")).
		MustBuild()
	ks, err := keyspace.New(nil,
		keyspace.NewConstant("app", "usage-demo").Add(
			keyspace.NewDirectory("tenant", keyspace.TypeString)))
	must(err)
	provider, err := recordlayer.NewStoreProvider(md, ks, []string{"app", "tenant"},
		recordlayer.ProviderOptions{})
	must(err)

	// Each server runs its own traffic mix and exports two windows, so rows
	// from both servers interleave under each tenant.
	accts := make([]*recordlayer.Accountant, 2)
	id := int64(0)
	for si, server := range []string{"srv-1", "srv-2"} {
		acct := recordlayer.NewAccountant()
		accts[si] = acct
		runner := recordlayer.NewRunner(db, recordlayer.RunnerOptions{Accountant: acct})
		exp := recordlayer.NewUsageExporter(acct, db, server)
		for window := 0; window < 2; window++ {
			for _, load := range []struct {
				tenant string
				txns   int
			}{{"acme", 4 + 2*si}, {"initech", 2}, {"freeloader", 1 + window}} {
				tctx := recordlayer.WithTenant(ctx, load.tenant)
				for t := 0; t < load.txns; t++ {
					base := id // a conflict retry reuses the same ids, not fresh ones
					_, err := runner.Run(tctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
						s, err := provider.Open(ctx, tr, load.tenant)
						if err != nil {
							return nil, err
						}
						for j := 0; j < 3; j++ {
							rec := message.New(note).MustSet("id", base+int64(j)).MustSet("zone", "z")
							if _, err := s.SaveRecord(rec); err != nil {
								return nil, err
							}
						}
						return nil, nil
					})
					must(err)
					id += 3
				}
			}
			n, err := exp.Export(ctx)
			must(err)
			fmt.Printf("%s window %d: exported %d tenant row(s)\n", server, window+1, n)
		}
	}

	rows, err := metering.Records()
	must(err)
	fmt.Printf("\n/__system__/metering holds %d versionstamped window rows\n", len(rows))

	perTenant, total, err := metering.Report()
	must(err)
	fmt.Println("\nPer-tenant totals (all servers, all windows):")
	fmt.Printf("  %-12s %6s %13s %13s %9s\n",
		"TENANT", "TXNS", "READ(rows/B)", "WRITE(rows/B)", "MEAN-LAT")
	for _, u := range perTenant {
		fmt.Printf("  %-12s %6d %5d/%-7d %5d/%-7d %9s\n",
			u.Tenant, u.Transactions, u.ReadRecords, u.ReadBytes,
			u.WriteRecords, u.WriteBytes, u.MeanTxnTime().Round(1000).String())
	}
	fmt.Printf("\nCross-tenant total: %d txns, %d rows read, %d rows written\n",
		total.Transactions, total.ReadRecords, total.WriteRecords)

	// The report must equal what the live accountants have seen — nothing
	// lost or double-counted on the way through the export pipeline.
	var live recordlayer.TenantUsage
	for _, acct := range accts {
		for _, u := range acct.Snapshot() {
			live = live.Accumulate(u)
		}
	}
	if live.Transactions == total.Transactions &&
		live.ReadRecords == total.ReadRecords && live.ReadBytes == total.ReadBytes &&
		live.WriteRecords == total.WriteRecords && live.WriteBytes == total.WriteBytes {
		fmt.Println("report matches the live Accountant snapshots: consistent")
	} else {
		fmt.Printf("REPORT MISMATCH: live=%+v total=%+v\n", live, total)
		os.Exit(1)
	}
}

// scrubCmd demonstrates the index consistency scrubber (§6 defense in
// depth): build a small store, corrupt its indexes behind its back — a VALUE
// index three ways with raw key surgery (a dangling entry, a missing entry, a
// mismatched covering value), a RANK skip-list finger off by one, and a TEXT
// posting at the wrong offsets — then detect everything with report-only
// scrubs, repair in place, and prove final scrubs come back clean. Every
// transaction, scrub batches included, runs through one metered Runner as
// background work of tenant acme, so the scrubs' cost shows in acme's usage.
// Exits non-zero if any stage disagrees with the script or the scrubs billed
// nothing.
func scrubCmd() {
	db := fdb.Open(nil)
	acct := recordlayer.NewAccountant()
	runner := recordlayer.NewRunner(db, recordlayer.RunnerOptions{Accountant: acct})
	ctx := recordlayer.WithPriority(recordlayer.WithTenant(context.Background(), "acme"),
		recordlayer.PriorityBackground)

	note := message.MustDescriptor("Note",
		message.Field("id", 1, message.TypeInt64),
		message.Field("zone", 2, message.TypeString),
		message.Field("score", 3, message.TypeInt64),
		message.Field("body", 4, message.TypeString),
	)
	md := metadata.NewBuilder(1).
		AddRecordType(note, keyexpr.Field("id")).
		AddIndex(&metadata.Index{Name: "by_zone", Type: metadata.IndexValue,
			Expression: keyexpr.Then(keyexpr.Field("zone"), keyexpr.Field("id"))}, "Note").
		AddIndex(&metadata.Index{Name: "by_score", Type: metadata.IndexRank,
			Expression: keyexpr.Field("score")}, "Note").
		AddIndex(&metadata.Index{Name: "body_text", Type: metadata.IndexText,
			Expression: keyexpr.Field("body")}, "Note").
		MustBuild()
	ks, err := keyspace.New(nil,
		keyspace.NewConstant("app", "scrub-demo").Add(
			keyspace.NewDirectory("tenant", keyspace.TypeString)))
	must(err)
	provider, err := recordlayer.NewStoreProvider(md, ks, []string{"app", "tenant"},
		recordlayer.ProviderOptions{})
	must(err)
	indexes := []string{"by_zone", "by_score", "body_text"}

	section("1. A healthy store")
	zones := []string{"personal", "work", "shared"}
	words := []string{"call", "me", "ishmael", "some", "years", "ago"}
	_, err = runner.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := provider.Open(ctx, tr, "acme")
		if err != nil {
			return nil, err
		}
		for i := int64(1); i <= 24; i++ {
			rec := message.New(note).MustSet("id", i).MustSet("zone", zones[i%3]).
				MustSet("score", i*7%31).MustSet("body", words[i%6]+" "+words[(i+2)%6])
			if _, err := s.SaveRecord(rec); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	must(err)
	space, err := ks.MustPath("app").MustAdd("tenant", "acme").ToSubspaceStatic()
	must(err)
	scrubber := func(name string) *recordlayer.Scrubber {
		return &recordlayer.Scrubber{DB: runner, MetaData: md, Space: space, IndexName: name, BatchSize: 8}
	}
	// scrub runs one pass and adds what acme was billed for it to billed.
	var billed recordlayer.TenantUsage
	scrubs := 0
	scrub := func(s *recordlayer.Scrubber) *recordlayer.ScrubReport {
		before := acct.Tenant("acme").Snapshot()
		rep, err := s.Scrub(ctx)
		must(err)
		billed = billed.Accumulate(acct.Tenant("acme").Snapshot().Delta(before))
		scrubs++
		return rep
	}
	for _, name := range indexes {
		rep := scrub(scrubber(name))
		fmt.Printf("  saved 24 Notes; scrub of %s verified %d entries + %d records: clean=%v\n",
			name, rep.EntriesScanned, rep.RecordsScanned, rep.Clean())
		if !rep.Clean() {
			log.Fatalf("expected a clean %s, got %d issue(s)", name, len(rep.Issues))
		}
	}

	section("2. Corrupting the indexes behind the store's back")
	var finger string
	_, err = runner.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := provider.Open(ctx, tr, "acme")
		if err != nil {
			return nil, err
		}
		ispace := s.IndexSubspace("by_zone")
		begin, end := ispace.Range()
		kvs, _, err := tr.GetRange(begin, end, fdb.RangeOptions{})
		if err != nil {
			return nil, err
		}
		if len(kvs) < 8 {
			return nil, fmt.Errorf("expected at least 8 physical entries, got %d", len(kvs))
		}
		// A dangling entry: a physical key whose primary key names a record
		// that does not exist (a lost delete, in real life).
		t, err := ispace.Unpack(kvs[0].Key)
		if err != nil {
			return nil, err
		}
		ghost := append(tuple.Tuple{}, t...)
		ghost[len(ghost)-1] = int64(999) // the trailing element is the primary key
		if err := tr.Set(ispace.Pack(ghost), nil); err != nil {
			return nil, err
		}
		// A missing entry: delete one a record legitimately produces (a lost
		// index write).
		if err := tr.Clear(kvs[3].Key); err != nil {
			return nil, err
		}
		// A mismatched value: the entry key is right but its stored value is
		// not what the record produces.
		if err := tr.Set(kvs[7].Key, tuple.Tuple{"stale-covering-value"}.Pack()); err != nil {
			return nil, err
		}
		// A RANK finger off by one: the head of the skip list's top level,
		// which counts every member, counts one more, as a concurrency bug
		// in an older skip list could leave it.
		set := rankedset.New(s.IndexSubspace("by_score").Sub(1), nil)
		top := set.Key(set.Levels()-1, []byte{})
		v, err := tr.Get(top)
		if err != nil || len(v) != 8 {
			return nil, fmt.Errorf("no top-level head: %v", err)
		}
		finger = tuple.Describe(top)
		if err := tr.Set(top, binary.LittleEndian.AppendUint64(nil, binary.LittleEndian.Uint64(v)+1)); err != nil {
			return nil, err
		}
		// A TEXT posting at the wrong offsets: Note 1's "me".
		m := bunched.New(s.IndexSubspace("body_text"), bunched.DefaultBunchSize)
		return nil, m.Insert(tr, "me", tuple.Tuple{int64(1)}, []int64{99})
	})
	must(err)
	fmt.Println("  by_zone: planted 1 dangling entry, cleared 1 legitimate entry, corrupted 1 value")
	fmt.Println("  by_score: added 1 to a skip-list finger; body_text: moved 1 posting's offsets")

	section("3. Detection (report-only)")
	for _, name := range indexes {
		rep := scrub(scrubber(name))
		for _, issue := range rep.Issues {
			fmt.Printf("  found %s\n", issue)
		}
		switch {
		case name == "by_zone" && (rep.Count(recordlayer.ScrubDangling) != 1 ||
			rep.Count(recordlayer.ScrubMissing) != 1 || rep.Count(recordlayer.ScrubMismatch) != 1):
			log.Fatalf("expected 1 issue of each kind in by_zone, got %d dangling / %d missing / %d mismatch",
				rep.Count(recordlayer.ScrubDangling), rep.Count(recordlayer.ScrubMissing),
				rep.Count(recordlayer.ScrubMismatch))
		case name == "by_score" && (len(rep.Issues) != 1 || rep.Issues[0].Key != finger):
			log.Fatalf("expected the miscounted finger %s, got %v", finger, rep.Issues)
		case name == "body_text" && (len(rep.Issues) != 1 || rep.Count(recordlayer.ScrubMismatch) != 1):
			log.Fatalf("expected 1 mismatched posting, got %v", rep.Issues)
		}
	}

	section("4. Repair in place")
	for _, name := range indexes {
		fix := scrubber(name)
		fix.Repair = true
		rep := scrub(fix)
		fmt.Printf("  %s: repaired %d issue(s) inside the scan's own batch transactions\n", name, rep.Repaired)
		if rep.Repaired == 0 {
			log.Fatalf("expected repairs in %s", name)
		}
	}

	section("5. Clean bill of health")
	for _, name := range indexes {
		rep := scrub(scrubber(name))
		fmt.Printf("  re-scrub of %s: %d entries + %d records verified, %d issue(s)\n",
			name, rep.EntriesScanned, rep.RecordsScanned, len(rep.Issues))
		if !rep.Clean() {
			log.Fatalf("%s still inconsistent after repair: %v", name, rep.Issues)
		}
	}

	section("6. What the scrubs cost acme")
	fmt.Printf("  %d scrubs billed to acme at background priority: %d transactions, %d keys read (%d B), %d keys written (%d B)\n",
		scrubs, billed.Transactions, billed.ReadRecords, billed.ReadBytes, billed.WriteRecords, billed.WriteBytes)
	if billed.Transactions == 0 || billed.ReadRecords == 0 {
		log.Fatalf("the scrubs billed acme nothing: %+v", billed)
	}
	fmt.Println("\nscrub demo passed: corruption detected, repaired, verified gone, and billed")
}

func tour() {
	db := fdb.Open(nil)
	runner := recordlayer.NewRunner(db, recordlayer.RunnerOptions{})
	ctx := context.Background()
	ks, err := keyspace.New(nil,
		keyspace.NewConstant("app", "tour").Add(
			keyspace.NewDirectory("tenant", keyspace.TypeString)))
	must(err)

	section("1. Schema and record store (via StoreProvider)")
	task := message.MustDescriptor("Task",
		message.Field("id", 1, message.TypeInt64),
		message.Field("title", 2, message.TypeString),
		message.Field("done", 3, message.TypeBool),
	)
	v1 := metadata.NewBuilder(1).
		AddRecordType(task, keyexpr.Field("id")).
		MustBuild()
	p1, err := recordlayer.NewStoreProvider(v1, ks, []string{"app", "tenant"}, recordlayer.ProviderOptions{})
	must(err)
	_, err = runner.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := p1.Open(ctx, tr, "acme")
		if err != nil {
			return nil, err
		}
		for i := int64(1); i <= 30; i++ {
			rec := message.New(task).
				MustSet("id", i).
				MustSet("title", fmt.Sprintf("task %02d", i)).
				MustSet("done", i%3 == 0)
			if _, err := s.SaveRecord(rec); err != nil {
				return nil, err
			}
		}
		fmt.Println("  created tenant \"acme\"'s record store and saved 30 Task records")
		return nil, nil
	})
	must(err)

	section("2. Schema evolution: add a field and an index (§5)")
	taskV2 := message.MustDescriptor("Task",
		message.Field("id", 1, message.TypeInt64),
		message.Field("title", 2, message.TypeString),
		message.Field("done", 3, message.TypeBool),
		message.Field("priority", 4, message.TypeInt64), // added
	)
	v2 := metadata.NewBuilder(2).
		AddRecordType(taskV2, keyexpr.Field("id")).
		AddIndex(&metadata.Index{Name: "by_title", Type: metadata.IndexValue,
			Expression: keyexpr.Field("title"), AddedVersion: 2}, "Task").
		MustBuild()
	must(metadata.ValidateEvolution(v1, v2))
	fmt.Println("  evolution validated: field added, index added, nothing removed")
	p2, err := recordlayer.NewStoreProvider(v2, ks, []string{"app", "tenant"}, recordlayer.ProviderOptions{})
	must(err)
	_, err = runner.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		// Opening with v2 builds the new index inline (store is small).
		s, err := p2.Open(ctx, tr, "acme")
		if err != nil {
			return nil, err
		}
		fmt.Printf("  store reopened with v2; by_title is %v (built inline on open)\n", s.IndexState("by_title"))
		return nil, nil
	})
	must(err)

	section("3. Continuations: stateless paging (§3.1)")
	q := recordlayer.Query{RecordTypes: []string{"Task"}}
	props := recordlayer.ExecuteProperties{RowLimit: 12}
	type page struct {
		cur  *recordlayer.RecordCursor
		rows int
	}
	pages := 0
	for {
		res, err := runner.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			s, err := p2.Open(ctx, tr, "acme")
			if err != nil {
				return nil, err
			}
			cur, err := s.ExecuteQuery(ctx, q, props)
			if err != nil {
				return nil, err
			}
			recs, err := cur.ToList()
			if err != nil {
				return nil, err
			}
			return page{cur, len(recs)}, nil
		})
		must(err)
		pg := res.(page)
		pages++
		fmt.Printf("  page %d: %d records (%v)\n", pages, pg.rows, pg.cur.NoNextReason())
		if pg.cur.Exhausted() {
			break
		}
		props = props.WithContinuation(pg.cur.Continuation())
	}

	section("4. Resource limits: bounded work per request (§8.2)")
	_, err = runner.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := p2.Open(ctx, tr, "acme")
		if err != nil {
			return nil, err
		}
		cur, err := s.ExecuteQuery(ctx, q, recordlayer.ExecuteProperties{ScanRecordLimit: 10})
		if err != nil {
			return nil, err
		}
		recs, err := cur.ToList()
		if err != nil {
			return nil, err
		}
		fmt.Printf("  scan halted after %d records: %v; continuation of %d bytes returned to client\n",
			len(recs), cur.NoNextReason(), len(cur.Continuation()))
		return nil, nil
	})
	must(err)

	section("5. Index scan with range (§7)")
	_, err = runner.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := p2.Open(ctx, tr, "acme")
		if err != nil {
			return nil, err
		}
		// Indexed range via the fluent query path: title in [task 10, task 13).
		cur, err := s.ExecuteQuery(ctx, recordlayer.Query{
			RecordTypes: []string{"Task"},
			Filter:      qTitleRange(),
			Sort:        keyexpr.Field("title"),
		}, recordlayer.ExecuteProperties{})
		if err != nil {
			return nil, err
		}
		err = cur.ForEach(func(r *recordlayer.Record) error {
			title, _ := r.Message.Get("title")
			fmt.Printf("  %v -> record %v\n", title, r.PrimaryKey)
			return nil
		})
		if err != nil {
			return nil, err
		}
		// The same data is reachable as a raw index scan when you want
		// entries rather than records.
		c, err := s.ScanIndex("by_title", index.TupleRange{
			Low: tuple.Tuple{"task 10"}, LowInclusive: true,
			High: tuple.Tuple{"task 11"}, HighInclusive: false,
		}, index.ScanOptions{})
		if err != nil {
			return nil, err
		}
		e, err := c.Next()
		if err != nil {
			return nil, err
		}
		fmt.Printf("  (raw index entry: %v -> %v)\n", e.Value.Key(), e.Value.PrimaryKey())
		return nil, nil
	})
	must(err)

	section("6. The record store is one key range (§3)")
	_, err = runner.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := p2.Open(ctx, tr, "acme")
		if err != nil {
			return nil, err
		}
		b, e := s.Subspace().Range()
		fmt.Printf("  every record, index entry, and the store header live in\n  [%x, %x)\n", b, e)
		fmt.Printf("  keys in cluster: %d — moving this tenant = copying that range\n", db.Size())
		return nil, nil
	})
	must(err)

	section("7. The runner under the hood")
	m := runner.Metrics()
	fmt.Printf("  %d transactions run, %d retried, %d failed; plan cache %+v\n",
		m.Runs, m.Retries, m.Failures, p2.PlanCacheStats())
}

func qTitleRange() query.Component {
	return query.And(
		query.Field("title").GreaterOrEqual("task 10"),
		query.Field("title").LessThan("task 13"),
	)
}

func section(title string) { fmt.Printf("\n%s\n", title) }

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
