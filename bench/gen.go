package main

import (
	"fmt"
	"math"
	"math/rand"

	"recordlayer"
	"recordlayer/internal/message"
	"recordlayer/internal/query"
)

// The seeded workload generator. It emits everything the driver will hand to
// the library — preload batches, then the full op list with pre-built
// messages, query literals and interference flags — before any timing starts.
// The seed is the only input that changes what it emits; the library only
// ever sees generated inputs.

// noteDesc is the one record type all four workloads store. The workloads
// differ in which fields they index, so per-layer probe inputs harvested from
// any workload's ops fit every probe.
var noteDesc = message.MustDescriptor("Note",
	message.Field("id", 1, message.TypeInt64),
	message.Field("zone", 2, message.TypeString),
	message.Field("cat", 3, message.TypeString),
	message.Field("tag", 4, message.TypeString),
	message.Field("score", 5, message.TypeInt64),
	message.Field("bytes", 6, message.TypeInt64),
	message.Field("body", 7, message.TypeString),
)

type opKind uint8

const (
	opZoneQuery    opKind = iota // ck_mix: zone = Z, RowLimit 20
	opPointLoad                  // load one record by primary key
	opSyncPage                   // ck_mix: newest 20 entries of a zone's VERSION index, fetched
	opSave                       // SaveRecords of 1-4 records (update or insert)
	opDelete                     // DeleteRecord of 1-4 records
	opPagedRange                 // query_scan: index range + fetch, 4 pages x 50 via continuations
	opCovering                   // query_scan: covering projection
	opUnion                      // query_scan: 2-way ordered union
	opIntersection               // query_scan: 2-way intersection
	opFullScan                   // query_scan: full scan + residual filter under ScanRecordLimit
	opRankOf                     // index_write: RankOfValue
	opTextToken                  // index_write: text token search
	opSumAgg                     // index_write: SUM aggregate of one zone
)

func (k opKind) isWrite() bool { return k == opSave || k == opDelete }

type writeKind uint8

const (
	wUpdate writeKind = iota
	wInsert
	wDelete
)

// op is one generated request. Everything the façade call needs is built
// here, ahead of timing.
type op struct {
	kind opKind
	// interfere marks a write whose first attempt gets one committed
	// conflicting writer nested inside it, saving intf.
	interfere bool
	tenant    int64
	ids       []int64            // point load, deletes; ids of msgs for saves
	msgs      []*message.Message // saves
	intf      *message.Message
	payload   int // marshaled bytes of every message this op commits
	*lits         // set on every read but the point load
}

// lits is a read's literals. It sits behind a pointer because most ops of
// the largest op list (tenant_fanout's) have none.
type lits struct {
	q      recordlayer.Query // planner-driven reads
	zone   string            // zone query, sync page, covering, sum aggregate
	token  string            // text search
	lo, hi int64             // range literals (score or bytes), kept for the model
	cats   [2]string         // union / intersection literals, kept for the model
}

// tenantBatch is the records one preload transaction saves into one tenant.
type tenantBatch struct {
	tenant int64
	msgs   []*message.Message
}

// generated is everything one run feeds the library.
type generated struct {
	seed    int64
	preload [][]tenantBatch // one element per preload transaction
	ops     []op            // warm-up slice, then the timed slices
	warm    int             // ops[:warm] is the discarded warm-up slice
	// interfered counts the timed ops carrying an interfering writer; the
	// Runner must report exactly this many retries.
	interfered int
	// model is the state the stores must be in once every op has run.
	model *model
}

func (g *generated) timed() []op { return g.ops[g.warm:] }

const (
	scoreSpace = 1_000_000
	numCats    = 500
	numTags    = 250
	vocabSize  = 2000
	// fullScanLimit is the ScanRecordLimit of the full-scan shape.
	fullScanLimit = 200
	pageRows      = 25
	pageCount     = 4
)

var (
	catNames = nameTable("c", numCats)
	tagNames = nameTable("t", numTags)
	vocab    = buildVocab()
)

func nameTable(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%03d", prefix, i)
	}
	return out
}

// buildVocab is the fixed token vocabulary of record bodies. It does not
// depend on the run's seed: only which words a body draws does.
func buildVocab() []string {
	rng := rand.New(rand.NewSource(0x5eed))
	seen := map[string]bool{}
	out := make([]string, 0, vocabSize)
	for len(out) < vocabSize {
		b := make([]byte, 4+rng.Intn(6))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		if w := string(b); !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

func catOf(id int64) string { return catNames[id%numCats] }

// tagOf makes tag t the union of cats 2t and 2t+1, so the intersection shape
// cat = c AND tag = tagOf(c) returns cat c's rows after merging a stream
// twice as long.
func tagOf(id int64) string { return tagNames[(id/2)%numTags] }

type gen struct {
	w   *workload
	rng *rand.Rand
	// live is each tenant's live ids; pos maps id to its index in live for
	// O(1) removal. next is each tenant's next unused id.
	live [][]int64
	pos  []map[int64]int
	next []int64
}

func (g *gen) body() string {
	n := g.w.bodyLen(g.rng)
	b := make([]byte, 0, n+10)
	for len(b) < n {
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = append(b, vocab[g.rng.Intn(vocabSize)]...)
	}
	return string(b)
}

// record builds one record. cat and tag are functions of the id, so the
// merge shapes have fixed result sizes; zone is too, unless the workload
// churns it; score and body are drawn fresh on every save.
func (g *gen) record(id int64) *message.Message {
	body := g.body()
	zone := g.w.zones[id%int64(len(g.w.zones))]
	if g.w.churnZone {
		zone = g.w.zones[g.rng.Intn(len(g.w.zones))]
	}
	return message.New(noteDesc).
		MustSet("id", id).
		MustSet("zone", zone).
		MustSet("cat", catOf(id)).
		MustSet("tag", tagOf(id)).
		MustSet("score", g.rng.Int63n(scoreSpace)).
		MustSet("bytes", int64(len(body))).
		MustSet("body", body)
}

func payloadOf(m *message.Message) int {
	raw, err := m.Marshal()
	if err != nil {
		panic(err) // generated messages always marshal
	}
	return len(raw)
}

func (g *gen) add(t int64, id int64) {
	if g.pos[t] != nil {
		g.pos[t][id] = len(g.live[t])
	}
	g.live[t] = append(g.live[t], id)
}

func (g *gen) remove(t int64, id int64) {
	i := g.pos[t][id]
	last := len(g.live[t]) - 1
	moved := g.live[t][last]
	g.live[t][i] = moved
	g.pos[t][moved] = i
	g.live[t] = g.live[t][:last]
	delete(g.pos[t], id)
}

// pickLive draws k distinct live ids of tenant t.
func (g *gen) pickLive(t int64, k int) []int64 {
	ids := make([]int64, 0, k)
	for len(ids) < k {
		id := g.live[t][g.rng.Intn(len(g.live[t]))]
		dup := false
		for _, have := range ids {
			dup = dup || have == id
		}
		if !dup {
			ids = append(ids, id)
		}
	}
	return ids
}

// mix64 is a splitmix64 step: the hash that picks which writes get an
// interfering writer, from the seed and the op index alone.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// generate builds the preload and nOps timed ops (plus the warm-up slice,
// 10 % of nOps) for workload w from seed.
func generate(w *workload, seed int64, nOps int) *generated {
	g := &gen{w: w, rng: rand.New(rand.NewSource(seed)),
		live: make([][]int64, w.tenants), pos: make([]map[int64]int, w.tenants),
		next: make([]int64, w.tenants)}
	out := &generated{seed: seed, model: newModel(w)}

	churn := false
	for _, k := range w.writeDeck {
		churn = churn || k != wUpdate
	}
	for t := int64(0); t < int64(w.tenants); t++ {
		if churn {
			g.pos[t] = make(map[int64]int, w.perTenant)
		}
		g.live[t] = make([]int64, 0, w.perTenant)
	}
	// Preload: every tenant gets perTenant records, batchRecords per
	// transaction; small tenants share transactions.
	var txn []tenantBatch
	inTxn := 0
	for t := int64(0); t < int64(w.tenants); t++ {
		for lo := 0; lo < w.perTenant; lo += w.batchRecords {
			n := min(w.batchRecords, w.perTenant-lo)
			msgs := make([]*message.Message, n)
			for i := range msgs {
				id := g.next[t]
				g.next[t]++
				g.add(t, id)
				msgs[i] = g.record(id)
				out.model.save(t, msgs[i])
			}
			txn = append(txn, tenantBatch{tenant: t, msgs: msgs})
			inTxn += n
			if inTxn >= w.batchRecords {
				out.preload = append(out.preload, txn)
				txn, inTxn = nil, 0
			}
		}
	}
	if len(txn) > 0 {
		out.preload = append(out.preload, txn)
	}

	out.warm = nOps / 10
	out.ops = make([]op, out.warm+nOps)
	writes, reads := 0, 0
	for i := range out.ops {
		o := &out.ops[i]
		o.tenant = int64(g.rng.Intn(w.tenants))
		if w.writeSlots[i%len(w.writeSlots)] {
			// One batch size per pass over the write deck, cycling through
			// 1..maxBatch, so each kind of write sees every size equally.
			batch := 1 + (writes/len(w.writeDeck))%w.maxBatch
			g.genWrite(o, w.writeDeck[writes%len(w.writeDeck)], batch)
			writes++
			if w.interferePct > 0 && mix64(uint64(seed)<<32^uint64(i))%100 < uint64(w.interferePct) {
				o.interfere = true
				o.intf = g.record(o.ids[0])
				o.payload += payloadOf(o.intf)
				if i >= out.warm {
					out.interfered++
				}
			}
			out.model.apply(o)
			continue
		}
		o.kind = w.readDeck[reads%len(w.readDeck)]
		reads++
		g.genRead(o)
	}
	return out
}

func (g *gen) genWrite(o *op, kind writeKind, k int) {
	t := o.tenant
	switch kind {
	case wUpdate:
		o.kind = opSave
		o.ids = g.pickLive(t, k)
	case wInsert:
		o.kind = opSave
		for i := 0; i < k; i++ {
			o.ids = append(o.ids, g.next[t])
			g.add(t, g.next[t])
			g.next[t]++
		}
	case wDelete:
		o.kind = opDelete
		o.ids = g.pickLive(t, k)
		for _, id := range o.ids {
			g.remove(t, id)
		}
		return
	}
	o.msgs = make([]*message.Message, len(o.ids))
	for i, id := range o.ids {
		o.msgs[i] = g.record(id)
		o.payload += payloadOf(o.msgs[i])
	}
}

func (g *gen) genRead(o *op) {
	w := g.w
	types := []string{"Note"}
	if o.kind != opPointLoad {
		o.lits = &lits{}
	}
	switch o.kind {
	case opZoneQuery:
		o.zone = w.zones[g.rng.Intn(len(w.zones))]
		o.q = recordlayer.Query{RecordTypes: types, Filter: query.Field("zone").Equals(o.zone)}
	case opPointLoad:
		o.ids = g.pickLive(o.tenant, 1)
	case opSyncPage, opSumAgg:
		o.zone = w.zones[g.rng.Intn(len(w.zones))]
	case opPagedRange:
		// Wide enough that four pages of 50 are always there: the expected
		// match count is 1.3 x 200.
		width := min(scoreSpace/2, int64(math.Round(1.3*pageRows*pageCount*scoreSpace/float64(w.perTenant))))
		o.lo = g.rng.Int63n(scoreSpace - width)
		o.hi = o.lo + width
		o.q = recordlayer.Query{RecordTypes: types, Filter: query.And(
			query.Field("score").GreaterOrEqual(o.lo), query.Field("score").LessThan(o.hi))}
	case opCovering:
		// About 100 index entries of one zone, no record fetched.
		perZone := float64(w.perTenant) / float64(len(w.zones))
		width := min(scoreSpace/2, int64(math.Round(100*scoreSpace/perZone)))
		o.zone = w.zones[g.rng.Intn(len(w.zones))]
		o.lo = g.rng.Int63n(scoreSpace - width)
		o.hi = o.lo + width
		o.q = recordlayer.Query{RecordTypes: types, Filter: query.And(
			query.Field("zone").Equals(o.zone),
			query.Field("score").GreaterOrEqual(o.lo), query.Field("score").LessThan(o.hi)),
		}.Select("zone", "score", "id")
	case opUnion:
		a := g.rng.Intn(numCats)
		b := (a + 1 + g.rng.Intn(numCats-1)) % numCats
		o.cats = [2]string{catNames[a], catNames[b]}
		o.q = recordlayer.Query{RecordTypes: types, Filter: query.Or(
			query.Field("cat").Equals(o.cats[0]), query.Field("cat").Equals(o.cats[1]))}
	case opIntersection:
		c := int64(g.rng.Intn(numCats))
		o.cats = [2]string{catOf(c), tagOf(c)}
		o.q = recordlayer.Query{RecordTypes: types, Filter: query.And(
			query.Field("cat").Equals(o.cats[0]), query.Field("tag").Equals(o.cats[1]))}
	case opFullScan:
		o.lo = w.scanBytesLo + g.rng.Int63n(w.scanBytesSpan)
		o.q = recordlayer.Query{RecordTypes: types, Filter: query.Field("bytes").GreaterOrEqual(o.lo)}
	case opRankOf:
		o.lo = g.rng.Int63n(scoreSpace)
	case opTextToken:
		o.token = vocab[g.rng.Intn(vocabSize)]
	}
}
