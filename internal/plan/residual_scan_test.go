package plan

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"recordlayer/internal/core"
	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/obs"
	"recordlayer/internal/query"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// refFilteredScan is a FilterPlan over a FullScanPlan, or with a nil filter the
// FullScanPlan alone, as this package ran them before the scan took its type
// check and filter: the scan built every record, and a cursor.Filter above it
// dropped the other types, another what the filter rejected. It is the
// reference TestResidualScanMatchesFilterAbove holds the scan to.
type refFilteredScan struct {
	scan   *FullScanPlan
	filter query.Component
}

func (p refFilteredScan) Execute(s *core.Store, opts ExecuteOptions) (cursor.Cursor[*core.StoredRecord], error) {
	if p.filter == nil {
		return refScan(s, opts, p.scan), nil
	}
	c := refScan(s, childOptions(opts, 0, p.scan, opts.Continuation), p.scan)
	return observe(opts.Stats, s, false, cursor.Filter(c, func(r *core.StoredRecord) (bool, error) {
		return p.filter.Eval(r.Message)
	})), nil
}

func refScan(s *core.Store, opts ExecuteOptions, p *FullScanPlan) cursor.Cursor[*core.StoredRecord] {
	c := s.ScanRecords(core.ScanOptions{
		Reverse:      p.Reverse,
		Limiter:      opts.Limiter,
		Continuation: opts.Continuation,
		Snapshot:     opts.Snapshot,
	})
	if len(p.Types) == 0 {
		return observe(opts.Stats, s, true, c)
	}
	c = observeIn(opts.Stats, c)
	want := map[string]bool{}
	for _, t := range p.Types {
		want[t] = true
	}
	return observe(opts.Stats, s, true, cursor.Filter(c, func(r *core.StoredRecord) (bool, error) {
		return want[r.Type.Name], nil
	}))
}

func (p refFilteredScan) plan() Plan {
	if p.filter == nil {
		return p.scan
	}
	return &FilterPlan{Child: p.scan, Filter: p.filter}
}
func (p refFilteredScan) OrderedByPrimaryKey() bool { return p.scan.OrderedByPrimaryKey() }
func (p refFilteredScan) String() string            { return p.plan().String() }
func (p refFilteredScan) Label() string             { return p.plan().Label() }

// residualEnv is a store of Recs and Alts interleaved in one primary-key
// extent. The two types share field names with different types (a), and
// each has a field the other lacks (s, tags; b), so a filter over both can
// fail on one of them.
type residualEnv struct {
	db  *fdb.Database
	md  *metadata.MetaData
	sp  subspace.Subspace
	cfg core.Config
}

func residualTypes() (rec, alt, sub *message.Descriptor) {
	sub = message.MustDescriptor("Sub",
		message.Field("x", 1, message.TypeInt64),
		message.Field("t", 2, message.TypeString),
	)
	rec = message.MustDescriptor("Rec",
		message.Field("id", 1, message.TypeInt64),
		message.Field("a", 2, message.TypeInt64),
		message.Field("s", 3, message.TypeString),
		message.RepeatedField("tags", 4, message.TypeInt64),
		message.MessageField("sub", 5, sub),
	)
	alt = message.MustDescriptor("Alt",
		message.Field("id", 1, message.TypeInt64),
		message.Field("a", 2, message.TypeString),
		message.Field("b", 3, message.TypeInt64),
		message.MessageField("sub", 4, sub),
	)
	return rec, alt, sub
}

// seededResidualStore writes up to 30 records with fields set or unset at
// random. A small chunk size splits most records in a third of the seeds;
// in the others one seed in four has a corrupt record, whose wire bytes only a
// walk of the whole message finds wrong, or whose type the metadata lacks.
func seededResidualStore(t *testing.T, r *rand.Rand) (*residualEnv, string) {
	t.Helper()
	rec, alt, sub := residualTypes()
	env := &residualEnv{sp: subspace.FromTuple(tuple.Tuple{"residual"})}
	env.db = fdb.Open(nil)
	if r.Intn(2) == 0 {
		env.db = fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{PerRead: time.Millisecond, Virtual: true}})
	}
	env.md = metadata.NewBuilder(1).SetStoreRecordVersions(r.Intn(2) == 0).
		AddMessageType(sub).
		AddRecordType(rec, keyexpr.Field("id")).
		AddRecordType(alt, keyexpr.Field("id")).
		MustBuild()
	split := r.Intn(3) == 0
	if split {
		env.cfg.SplitChunkSize = 8 + r.Intn(24)
	}
	small := func() int64 {
		if r.Intn(4) == 0 {
			return 250 + r.Int63n(20) // boxed when decoded
		}
		return r.Int63n(7) - 3
	}
	strs := []string{"", "a", "ab", "b", "a\x00b", "z"}
	var corrupt string
	_, err := env.db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
		s, err := core.Open(tr, env.md, env.sp, core.OpenOptions{CreateIfMissing: true, Config: env.cfg})
		if err != nil {
			return nil, err
		}
		var saved []*message.Message
		for _, id := range r.Perm(60)[:r.Intn(31)] {
			var m *message.Message
			if r.Intn(3) == 0 {
				m = message.New(alt)
				if r.Intn(4) != 0 {
					m.MustSet("a", strs[r.Intn(len(strs))])
				}
				if r.Intn(4) != 0 {
					m.MustSet("b", small())
				}
			} else {
				m = message.New(rec)
				if r.Intn(4) != 0 {
					m.MustSet("a", small())
				}
				if r.Intn(4) != 0 {
					m.MustSet("s", strs[r.Intn(len(strs))])
				}
				for i := r.Intn(4); i > 0; i-- {
					m.MustAdd("tags", small())
				}
			}
			m.MustSet("id", int64(id))
			if r.Intn(2) == 0 {
				sm := message.New(sub)
				if r.Intn(3) != 0 {
					sm.MustSet("x", small())
				}
				if r.Intn(3) != 0 {
					sm.MustSet("t", strs[r.Intn(len(strs))])
				}
				m.MustSet("sub", sm)
			}
			if _, err := s.SaveRecord(m); err != nil {
				return nil, err
			}
			saved = append(saved, m)
		}
		if split || len(saved) == 0 || r.Intn(4) != 0 {
			return nil, nil
		}
		// Rewrite one record's envelope in place: the pair whose value is it.
		victim := saved[r.Intn(len(saved))]
		wire, err := victim.Marshal()
		if err != nil {
			return nil, err
		}
		name := victim.Descriptor().Name
		envelope := tuple.Tuple{name, wire}.Pack()
		switch r.Intn(3) {
		case 0: // an unknown field whose length is missing
			corrupt, wire = "truncated field", append(wire, 15<<3|2)
		case 1: // a sub message holding a truncated varint
			f, _ := victim.Descriptor().FieldByName("sub")
			corrupt, wire = "corrupt sub message", append(wire, byte(f.Number)<<3|2, 2, 1<<3, 0x80)
		default:
			corrupt, name = "unknown type", "Gone"
		}
		b, e := env.sp.Range()
		kvs, _, err := tr.GetRange(b, e, fdb.RangeOptions{})
		if err != nil {
			return nil, err
		}
		for _, kv := range kvs {
			if bytes.Equal(kv.Value, envelope) {
				return nil, tr.Set(kv.Key, tuple.Tuple{name, wire}.Pack())
			}
		}
		return nil, fmt.Errorf("no pair holds the envelope of %v", victim)
	})
	if err != nil {
		t.Fatal(err)
	}
	return env, corrupt
}

// residualRun is everything a consumer sees of one execution: the rows with
// the continuation after each, the halt or the error, the transaction's stats
// and the EXPLAIN ANALYZE tree.
type residualRun struct {
	rows    []string
	conts   [][]byte
	reason  cursor.NoNextReason
	cont    []byte
	err     string
	stats   fdb.TxnStats
	explain string
}

func (r residualRun) String() string {
	return fmt.Sprintf("rows %v, continuations %x, halted %v at %x, error %q, stats %+v\n%s",
		r.rows, r.conts, r.reason, r.cont, r.err, r.stats, r.explain)
}

// run executes p in a fresh transaction, under a limiter when scan or bytes
// is set and a row limit when rows is, adding to the stats tree st.
func (env *residualEnv) run(t *testing.T, p Plan, cont []byte, scan, nbytes, rows int, st *obs.PlanStats) residualRun {
	t.Helper()
	tr := env.db.CreateTransaction()
	s, err := core.Open(tr, env.md, env.sp, core.OpenOptions{Config: env.cfg})
	if err != nil {
		t.Fatal(err)
	}
	opts := ExecuteOptions{Continuation: cont, Stats: st}
	if scan > 0 || nbytes > 0 {
		opts.Limiter = cursor.NewLimiter(scan, nbytes, time.Time{}, nil)
	}
	var out residualRun
	c, err := p.Execute(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	c = cursor.Limit(c, rows)
	for {
		r, err := c.Next()
		if err != nil {
			out.err = err.Error()
			break
		}
		if !r.OK {
			out.reason, out.cont = r.Reason, r.Continuation
			break
		}
		out.rows = append(out.rows, r.Value.Message.String())
		out.conts = append(out.conts, r.Continuation)
	}
	out.stats = tr.Stats()
	out.explain = st.Render()
	return out
}

// residualFilter draws a random And/Or/Not filter over the two types' fields:
// comparisons of set and unset fields, null checks, In, prefixes, one-of-them
// and nested paths, and now and then a leaf that fails on some record.
func residualFilter(r *rand.Rand, depth int) query.Component {
	if depth < 2 && r.Intn(3) == 0 {
		n := 2 + r.Intn(2)
		kids := make([]query.Component, n)
		for i := range kids {
			kids[i] = residualFilter(r, depth+1)
		}
		switch r.Intn(3) {
		case 0:
			return query.And(kids...)
		case 1:
			return query.Or(kids...)
		}
		return query.Not(kids[0])
	}
	num := func() int64 { return r.Int63n(7) - 3 }
	cmp := func(f query.FieldPath, v interface{}) query.Component {
		switch r.Intn(8) {
		case 0:
			return f.Equals(v)
		case 1:
			return f.NotEquals(v)
		case 2:
			return f.LessThan(v)
		case 3:
			return f.LessOrEqual(v)
		case 4:
			return f.GreaterThan(v)
		case 5:
			return f.GreaterOrEqual(v)
		case 6:
			return f.Null()
		}
		return f.NotNullC()
	}
	switch r.Intn(14) {
	case 0, 1, 2:
		return cmp(query.Field("a"), num()) // fails on an Alt whose a is set
	case 3:
		return query.Field("a").OneOf(num(), num())
	case 4, 5:
		return cmp(query.Field("s"), []string{"", "a", "b"}[r.Intn(3)]) // fails on an Alt
	case 6:
		return query.Field("s").BeginsWith([]string{"", "a"}[r.Intn(2)])
	case 7, 8:
		return cmp(query.Field("b"), num()) // fails on a Rec
	case 9:
		return cmp(query.Field("id"), int64(r.Intn(60)))
	case 10:
		return cmp(query.Field("tags").OneOfThem(), num())
	case 11:
		return cmp(query.Field("sub").Nest("x"), num())
	case 12:
		return query.Field("sub").Null()
	}
	return cmp(query.Field("id"), "one") // fails on every record
}

// TestResidualScanMatchesFilterAbove holds a full scan that runs its type
// check and residual filter on each record's wire bytes to refFilteredScan,
// which built every record and filtered above, over 300 seeded stores of two
// interleaved record types: random filters (unset fields, null checks,
// one-of-them and nested paths, filters that fail), type sets, both
// directions, version slots or not, split records, with and without read
// latency, and the odd corrupt record. Drained whole, resumed at every row,
// and paged under a row limit, a scanned-record limit and a byte limit, both
// must return the same rows and continuations, halt the same way or fail with
// the same error, read the same keys and bytes in the same windows, and fill
// the same EXPLAIN ANALYZE tree.
func TestResidualScanMatchesFilterAbove(t *testing.T) {
	covered := map[string]int{}
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		env, corrupt := seededResidualStore(t, r)
		for k := 0; k < 3; k++ {
			scan := &FullScanPlan{Reverse: r.Intn(2) == 0}
			scan.Types = [][]string{nil, {"Rec"}, {"Alt"}, {"Rec", "Alt"}}[r.Intn(4)]
			ref := refFilteredScan{scan: scan}
			if r.Intn(5) != 0 {
				ref.filter = residualFilter(r, 0)
			} else if len(scan.Types) == 0 {
				scan.Types = []string{"Rec"}
			}
			p := ref.plan()
			_, pushed := componentFields(ref.filter)
			what := fmt.Sprintf("seed %d: %s", seed, p)
			same := func(how string, got, want residualRun) {
				t.Helper()
				if got.String() != want.String() {
					t.Fatalf("%s, %s:\n got %s\nwant %s", what, how, got, want)
				}
				switch {
				case strings.HasPrefix(want.err, "query:"):
					covered["filter error"]++
				case want.err != "":
					covered["corrupt: "+corrupt]++
				default:
					covered[want.reason.String()]++
				}
			}
			newStats := func() *obs.PlanStats { return obs.NewPlanStats(p.Label()) }
			whole := env.run(t, ref, nil, 0, 0, 0, newStats())
			same("drained", env.run(t, p, nil, 0, 0, 0, newStats()), whole)
			if pushed && ref.filter != nil {
				covered["filter in the scan"]++
			} else if ref.filter != nil {
				covered["filter above the scan"]++
			}
			for i, cont := range whole.conts {
				same(fmt.Sprintf("resumed after row %d", i+1),
					env.run(t, p, cont, 0, 0, 0, newStats()), env.run(t, ref, cont, 0, 0, 0, newStats()))
				covered["resumed"]++
			}
			limits := []struct {
				name              string
				scan, bytes, rows int
			}{
				{"row limit", 0, 0, 1 + r.Intn(4)},
				{"scanned-record limit", 1 + r.Intn(5), 0, 0},
				{"byte limit", 0, 1 + r.Intn(200), 0},
			}
			for _, lim := range limits {
				gotStats, wantStats := newStats(), newStats()
				var cont []byte
				for page := 1; ; page++ {
					want := env.run(t, ref, cont, lim.scan, lim.bytes, lim.rows, wantStats)
					same(fmt.Sprintf("page %d under a %s", page, lim.name),
						env.run(t, p, cont, lim.scan, lim.bytes, lim.rows, gotStats), want)
					if want.err != "" || want.reason == cursor.SourceExhausted {
						break
					}
					if page > 100 {
						t.Fatalf("%s: paging under a %s makes no progress", what, lim.name)
					}
					cont = want.cont
				}
			}
		}
	}
	for _, c := range []string{"filter in the scan", "filter above the scan", "filter error", "resumed",
		"corrupt: truncated field", "corrupt: corrupt sub message", "corrupt: unknown type",
		cursor.SourceExhausted.String(), cursor.ReturnLimitReached.String(),
		cursor.ScanLimitReached.String(), cursor.ByteLimitReached.String()} {
		if covered[c] == 0 {
			t.Errorf("no %q in any seed: %v", c, covered)
		}
	}
}
