package recordlayer

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"recordlayer/internal/cursor"
	"recordlayer/internal/directory"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/keyspace"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/query"
	"recordlayer/internal/tuple"
)

// billingSchema has one index of every maintainer family the façade bills
// through: VALUE, RANK, TEXT, VERSION and two atomic aggregates.
func billingSchema() (*message.Descriptor, *metadata.MetaData) {
	doc := message.MustDescriptor("Doc",
		message.Field("id", 1, message.TypeInt64),
		message.Field("tag", 2, message.TypeString),
		message.Field("score", 3, message.TypeInt64),
		message.Field("body", 4, message.TypeString),
	)
	md := metadata.NewBuilder(1).
		SetStoreRecordVersions(true).
		AddRecordType(doc, keyexpr.Field("id")).
		AddIndex(&metadata.Index{Name: "by_tag", Type: metadata.IndexValue,
			Expression: keyexpr.Then(keyexpr.Field("tag"), keyexpr.Field("id"))}, "Doc").
		AddIndex(&metadata.Index{Name: "by_score", Type: metadata.IndexRank,
			Expression: keyexpr.Field("score")}, "Doc").
		AddIndex(&metadata.Index{Name: "body_text", Type: metadata.IndexText,
			Expression: keyexpr.Field("body")}, "Doc").
		AddIndex(&metadata.Index{Name: "by_version", Type: metadata.IndexVersion,
			Expression: keyexpr.Version()}, "Doc").
		AddIndex(&metadata.Index{Name: "score_sum", Type: metadata.IndexSum,
			Expression: keyexpr.Ungrouped(keyexpr.Field("score"))}, "Doc").
		AddIndex(&metadata.Index{Name: "tag_count", Type: metadata.IndexCount,
			Expression: keyexpr.GroupBy(keyexpr.Empty(), keyexpr.Field("tag"))}, "Doc").
		MustBuild()
	return doc, md
}

// billingOp is one façade operation of a history, run in one transaction.
type billingOp struct {
	name  string
	write bool
	body  func(ctx context.Context, s *Store) error
}

// drain reads a cursor to its end.
func drain[T any](c cursor.Cursor[T], err error) error {
	if err != nil {
		return err
	}
	for {
		r, err := c.Next()
		if err != nil || !r.OK {
			return err
		}
	}
}

// pageState is a tenant's query in progress: the next page resumes it.
type pageState struct {
	q     Query
	props ExecuteProperties
	cont  []byte
}

// randomBillingOp draws one operation; a paged query keeps its state in pg
// across operations, so a history resumes it in later transactions.
func randomBillingOp(rng *rand.Rand, doc *message.Descriptor, pg *pageState) billingOp {
	words := []string{"ahab", "boat", "call", "dick", "east", "fish"}
	rec := func() *message.Message {
		body := ""
		for i := rng.Intn(4); i >= 0; i-- {
			body += words[rng.Intn(len(words))] + " "
		}
		return message.New(doc).
			MustSet("id", int64(rng.Intn(24))).
			MustSet("tag", fmt.Sprintf("t%d", rng.Intn(3))).
			MustSet("score", int64(rng.Intn(50))).
			MustSet("body", body)
	}
	switch k := rng.Intn(11); k {
	case 0, 1:
		m := rec()
		return billingOp{"save", true, func(_ context.Context, s *Store) error {
			_, err := s.SaveRecord(m)
			return err
		}}
	case 2:
		ms := make([]*message.Message, 1+rng.Intn(6))
		for i := range ms {
			ms[i] = rec()
		}
		return billingOp{"save-records", true, func(_ context.Context, s *Store) error {
			_, err := s.SaveRecords(ms)
			return err
		}}
	case 3:
		id := int64(rng.Intn(24))
		return billingOp{"delete", true, func(_ context.Context, s *Store) error {
			_, err := s.DeleteRecord(tuple.Tuple{id})
			return err
		}}
	case 4:
		if rng.Intn(3) > 0 {
			return randomBillingOp(rng, doc, pg)
		}
		return billingOp{"delete-all", true, func(_ context.Context, s *Store) error {
			return s.DeleteAllRecords()
		}}
	case 5, 6:
		if pg.cont == nil {
			pg.q = Query{RecordTypes: []string{"Doc"}}
			if rng.Intn(2) == 0 {
				pg.q.Filter = query.Field("tag").Equals(fmt.Sprintf("t%d", rng.Intn(3)))
			}
			pg.props = ExecuteProperties{RowLimit: 1 + rng.Intn(5), Snapshot: rng.Intn(2) == 0}
		}
		q, props := pg.q, pg.props.WithContinuation(pg.cont)
		return billingOp{"query-page", false, func(ctx context.Context, s *Store) error {
			cur, err := s.ExecuteQuery(ctx, q, props)
			if err != nil {
				return err
			}
			if _, err := cur.ToList(); err != nil {
				return err
			}
			pg.cont = nil
			if !cur.Exhausted() {
				pg.cont = cur.Continuation()
			}
			return nil
		}}
	case 7:
		score, rank := int64(rng.Intn(50)), int64(rng.Intn(12))
		return billingOp{"rank", false, func(_ context.Context, s *Store) error {
			if _, err := s.RankOfValue("by_score", tuple.Tuple{score}); err != nil {
				return err
			}
			if _, _, err := s.ByRank("by_score", rank); err != nil {
				return err
			}
			return drain(s.ScanByRank("by_score", rank, index.ScanOptions{}))
		}}
	case 8:
		a, b := words[rng.Intn(len(words))], words[rng.Intn(len(words))]
		return billingOp{"text", false, func(_ context.Context, s *Store) error {
			if _, err := s.TextSearchToken("body_text", a); err != nil {
				return err
			}
			if _, err := s.TextSearchPrefix("body_text", a[:2]); err != nil {
				return err
			}
			if _, err := s.TextSearchAll("body_text", []string{a, b}, 3); err != nil {
				return err
			}
			_, err := s.TextSearchPhrase("body_text", a+" "+b)
			return err
		}}
	case 9:
		tag := fmt.Sprintf("t%d", rng.Intn(3))
		return billingOp{"aggregate", false, func(_ context.Context, s *Store) error {
			if _, err := s.AggregateInt64("score_sum", tuple.Tuple{}); err != nil {
				return err
			}
			_, err := s.AggregateInt64("tag_count", tuple.Tuple{tag})
			return err
		}}
	default:
		return billingOp{"scan-index", false, func(_ context.Context, s *Store) error {
			return drain(s.ScanIndex("by_version", index.TupleRange{}, index.ScanOptions{}))
		}}
	}
}

// billed is what a tenant's usage and the transactions' stats are compared on.
type billed struct{ readRows, readBytes, writeRows, writeBytes int64 }

func (b billed) minus(o billed) billed {
	return billed{b.readRows - o.readRows, b.readBytes - o.readBytes, b.writeRows - o.writeRows, b.writeBytes - o.writeBytes}
}

func usageBilled(u TenantUsage) billed {
	return billed{u.ReadRecords, u.ReadBytes, u.WriteRecords, u.WriteBytes}
}

// TestMeterEqualsTransactionStats: a tenant is billed exactly what the
// simulator counted for the transactions run on its behalf. Seeded histories
// of façade operations run for three tenants through a Runner, with and
// without injected conflicts; after every operation the tenant's usage must
// have grown by the KeysRead, BytesRead, Mutations and Size of every attempt
// the closure saw, and every other tenant's not at all. Every fourth history
// bills through ProviderOptions.Accountant instead, with no tenant on the
// context.
func TestMeterEqualsTransactionStats(t *testing.T) {
	doc, md := billingSchema()
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var opts *fdb.Options
		if seed%2 == 1 {
			opts = &fdb.Options{Faults: fdb.NewFaultInjector(fdb.FaultConfig{Seed: seed, PCommitNotCommitted: 0.3})}
		}
		db := fdb.Open(opts)
		acct := NewAccountant()
		fallback := seed%4 == 3
		ropts := RunnerOptions{Accountant: acct, Sleep: func(context.Context, time.Duration) error { return nil }}
		var popts ProviderOptions
		if fallback {
			ropts.Accountant, popts.Accountant = nil, acct
		}
		r := NewRunner(db, ropts)
		ks, err := keyspace.New(directory.NewLayer(),
			keyspace.NewInterned("app").Add(keyspace.NewDirectory("user", keyspace.TypeInt64)))
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewStoreProvider(md, ks, []string{"app", "user"}, popts)
		if err != nil {
			t.Fatal(err)
		}
		tenants := []int64{7, 8, 9}
		for _, user := range tenants {
			acct.Tenant(fmt.Sprintf("billing/%d", user)) // every snapshot lists all three, in this order
		}
		pages := make([]pageState, len(tenants))
		for step := 0; step < 12; step++ {
			ti := rng.Intn(len(tenants))
			user := tenants[ti]
			op := randomBillingOp(rng, doc, &pages[ti])
			ctx := context.Background()
			if !fallback {
				ctx = WithTenant(ctx, fmt.Sprintf("billing/%d", user)) // the name the fallback derives from the path
			}
			before := acct.Snapshot()
			var attempts []*fdb.Transaction
			run := r.ReadRun
			if op.write {
				run = r.Run
			}
			_, err := run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
				attempts = append(attempts, tr)
				s, err := p.Open(ctx, tr, "billing", user)
				if err != nil {
					return nil, err
				}
				return nil, op.body(ctx, s)
			})
			if err != nil {
				t.Fatalf("seed %d step %d (%s, tenant %d): %v", seed, step, op.name, user, err)
			}
			var counted billed
			for _, tr := range attempts {
				st := tr.Stats()
				counted.readRows += int64(st.KeysRead)
				counted.readBytes += int64(st.BytesRead)
				counted.writeRows += int64(st.Mutations)
				counted.writeBytes += int64(st.Size)
			}
			for i, u := range acct.Snapshot() {
				got, expect := usageBilled(u).minus(usageBilled(before[i])), billed{}
				if i == ti {
					expect = counted
				}
				if got != expect {
					t.Fatalf("seed %d step %d (%s, tenant %d, %d attempts): tenant %s billed %+v, transactions counted %+v",
						seed, step, op.name, user, len(attempts), u.Tenant, got, expect)
				}
			}
		}
	}
}
