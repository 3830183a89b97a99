package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"recordlayer"
	"recordlayer/internal/core"
	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/kvcursor"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/plan"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// Per-layer metrics: -trace runs. Two things happen here. The workload runs
// again at a quarter of its op count, once untraced and once traced, which
// gives the span and trace metrics, the tracing overhead, and a check that
// tracing changes no count. Then every layer is probed from outside: a
// fixed-count loop of calls into the layer's public functions, on inputs the
// generator produced for this seed, reported as nanoseconds per call (the
// best of probeReps repetitions, collector off, as for the timed slices) plus
// the exact counts.

const probeReps = 5

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink interface{}

// nsPer times probeReps repetitions of fn, each making calls calls, and
// returns the best repetition's nanoseconds per call. It starts from a forced
// collection; the caller has the collector off.
func nsPer(calls int, fn func()) float64 {
	runtime.GC()
	per := make([]float64, probeReps)
	for r := range per {
		t0 := time.Now()
		fn()
		per[r] = float64(time.Since(t0).Nanoseconds()) / float64(calls)
	}
	return best(per)
}

func best(ns []float64) float64 {
	b := ns[0]
	for _, x := range ns[1:] {
		b = min(b, x)
	}
	return b
}

// mallocsPer returns heap allocations per call of one run of fn.
func mallocsPer(calls int, fn func()) float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	fn()
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-m0) / float64(calls)
}

func bytesAllocated(fn func()) float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a0 := ms.TotalAlloc
	fn()
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc - a0)
}

// fixture is a one-tenant copy of a workload, preloaded, whose generated ops
// feed the probes of layers the traced workload itself may not exercise.
func fixture(name string, perTenant int, seed int64, nOps int) (*env, *generated, error) {
	w := *workloadByName(name)
	w.tenants, w.perTenant, w.interferePct = 1, perTenant, 0
	g := generate(&w, seed, nOps)
	e, _, err := setUp(&w, seed, g, 1)
	return e, g, err
}

// harvest returns up to n distinct messages from the generated preload.
func harvest(g *generated, n int) []*message.Message {
	var out []*message.Message
	for _, txn := range g.preload {
		for _, b := range txn {
			for _, m := range b.msgs {
				if len(out) == n {
					return out
				}
				out = append(out, m)
			}
		}
	}
	return out
}

// runTraced is one -trace run of workload w.
func runTraced(w *workload, seed int64, nOps int) (*result, error) {
	n := max(slices, int(float64(nOps)*traceShare))
	g := generate(w, seed, n)
	res := &result{workload: w.name, seed: seed, defs: perLayer, values: map[string]float64{}}

	// The same ops twice from the same starting state: tracing off, then on.
	plain, _, err := setUp(w, seed, g, 1)
	if err != nil {
		return nil, err
	}
	plain.runOps(g.ops[:g.warm], nil)
	p0 := plain.timedPhase(g.timed())
	plain = nil

	e, _, err := setUp(w, seed, g, 1)
	if err != nil {
		return nil, err
	}
	e.runOps(g.ops[:g.warm], nil)
	e.tr = newTracer(e)
	p1 := e.timedPhase(g.timed())
	tr := e.tr
	e.tr = nil
	res.attempted, res.failed = p1.ops, p1.failed
	if p1.firstErr != nil {
		res.fail("first failed op: %v", p1.firstErr)
	}
	// Tracing must not change what the run does. Total simulated wait is
	// left out of the comparison: on index_write it differs by one
	// nanosecond in five seconds between the two passes.
	io0, io1 := p0.io, p1.io
	io0.SimWaitNanos, io1.SimWaitNanos = 0, 0
	if io0 != io1 || p0.retries != p1.retries {
		res.fail("tracing changed what the run did: I/O %+v vs %+v, retries %d vs %d", io0, io1, p0.retries, p1.retries)
	}
	if _, err := e.check(g, res); err != nil {
		return nil, err
	}
	path, err := tr.write(w.name)
	if err != nil {
		return nil, err
	}
	res.notef("%d spans of %d ops written to %s", len(tr.spans), p1.ops, path)

	ops := float64(p1.ops)
	byName, opSelf := tr.totals()
	res.notef("simulated time per op: %.1f us, of which outside any child span %.1f us",
		float64(byName[spanOp])/ops/1e3, float64(opSelf)/ops/1e3)
	for name := spanOpen; name < numSpanNames; name++ {
		res.set("span."+spanNames[name]+"_us", float64(byName[name])/ops/1e3)
	}
	res.set("trace.admit_ms_per_txn", float64(tr.libNanos("runner.admit"))/ops/1e6)
	res.set("trace.grv_ms_per_txn", float64(tr.libNanos("fdb.grv"))/ops/1e6)
	res.set("trace.read_wait_ms_per_txn", float64(tr.libNanos("fdb.await"))/ops/1e6)
	res.set("trace.commit_ms_per_txn", float64(tr.libNanos("fdb.commit"))/ops/1e6)
	byType := map[metadata.IndexType]int64{}
	for _, ix := range e.md.Indexes() {
		byType[ix.Type] += tr.libNanos("index." + ix.Name)
	}
	for _, t := range []metadata.IndexType{metadata.IndexValue, metadata.IndexSum, metadata.IndexVersion,
		metadata.IndexRank, metadata.IndexText} {
		res.set("trace.index."+string(t)+"_ms_per_txn", float64(byType[t])/ops/1e6)
	}
	windows := tr.libCount("fdb.await")
	res.set("trace.read_windows_per_txn", float64(windows)/ops)
	res.set("trace.reads_per_window", float64(tr.libCount("fdb.read"))/float64(max(windows, 1)))
	res.set("obs.trace_overhead_share", 1-p1.txnPerSecond()/p0.txnPerSecond())
	res.set("recordlayer.plancache_hit_share", float64(p1.planHits)/float64(max(p1.planHits+p1.planMisses, 1)))
	res.set("recordlayer.retries_per_txn", float64(p1.retries)/ops)

	pr := &prober{e: e, g: g, res: res, rng: rand.New(rand.NewSource(seed))}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, probe := range []func() error{
		pr.tupleAndMessage, pr.keyspace, pr.fdb, pr.fdbWrites, pr.kvcursor, pr.cursors,
		pr.indexes, pr.core, pr.planner, pr.facade, pr.resource,
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

type prober struct {
	e   *env
	g   *generated
	res *result
	rng *rand.Rand
}

// scratch is a key prefix no tenant, directory-layer or system key uses.
var scratch = subspace.FromBytes([]byte{0xFD})

func (p *prober) read(fn func(tr *fdb.Transaction) error) error {
	_, err := p.e.db.ReadTransact(func(tr *fdb.Transaction) (interface{}, error) { return nil, fn(tr) })
	return err
}

func (p *prober) tupleAndMessage() error {
	msgs := harvest(p.g, 512)
	tuples := make([]tuple.Tuple, len(msgs))
	packed := make([][]byte, len(msgs))
	raws := make([][]byte, len(msgs))
	for i, m := range msgs {
		tuples[i] = tuple.Tuple{str(m, "zone"), num(m, "score"), num(m, "id")}
		packed[i] = tuples[i].Pack()
		raws[i], _ = m.Marshal()
	}
	n := len(msgs)
	pack := func() {
		for _, t := range tuples {
			sink = t.Pack()
		}
	}
	p.res.set("tuple.pack_ns", nsPer(n, pack))
	p.res.set("tuple.pack_allocs", mallocsPer(n, pack))
	p.res.set("tuple.unpack_ns", nsPer(n, func() {
		for _, b := range packed {
			sink, _ = tuple.Unpack(b)
		}
	}))
	p.res.set("message.marshal_ns", nsPer(n, func() {
		for _, m := range msgs {
			sink, _ = m.Marshal()
		}
	}))
	unmarshal := func() {
		for _, raw := range raws {
			sink, _ = message.Unmarshal(noteDesc, raw)
		}
	}
	p.res.set("message.unmarshal_ns", nsPer(n, unmarshal))
	p.res.set("message.unmarshal_allocs", mallocsPer(n, unmarshal))

	exprs := p.e.md.Indexes()
	p.res.set("keyexpr.eval_ns", nsPer(n*len(exprs), func() {
		for _, m := range msgs {
			ctx := &keyexpr.Context{Message: m, RecordTypeKey: "Note"}
			for _, ix := range exprs {
				sink, _ = ix.Expression.Evaluate(ctx)
			}
		}
	}))
	return nil
}

func (p *prober) keyspace() error {
	const n = 1000
	w := p.e.w
	var keys float64
	ns := nsPer(n, func() {
		err := p.read(func(tr *fdb.Transaction) error {
			for i := 0; i < n; i++ {
				path, err := p.e.ks.PathFor(w.template(), p.e.pathValues(int64(i%w.tenants))...)
				if err != nil {
					return err
				}
				if sink, err = path.ToSubspace(tr); err != nil {
					return err
				}
			}
			keys = float64(tr.Stats().KeysRead) / n
			return nil
		})
		if err != nil {
			panic(err)
		}
	})
	p.res.set("keyspace.resolve_ns", ns)
	p.res.set("keyspace.resolve_keys_read", keys)
	return nil
}

// someKeys returns the first n keys of the cluster.
func (p *prober) someKeys(n int) ([][]byte, error) {
	var keys [][]byte
	err := p.read(func(tr *fdb.Transaction) error {
		kvs, _, err := tr.Snapshot().GetRange([]byte{}, []byte{0xFD}, fdb.RangeOptions{Limit: n})
		for _, kv := range kvs {
			keys = append(keys, kv.Key)
		}
		return err
	})
	return keys, err
}

func (p *prober) fdb() error {
	keys, err := p.someKeys(1000)
	if err != nil {
		return err
	}
	// Point reads, 100 per transaction as a save-heavy request issues them:
	// each adds a read conflict key.
	p.res.set("fdb.get_ns", nsPer(len(keys), func() {
		for lo := 0; lo < len(keys); lo += 100 {
			tr := p.e.db.CreateTransaction()
			for _, k := range keys[lo:min(lo+100, len(keys))] {
				sink, _ = tr.Get(k)
			}
			tr.Cancel()
		}
	}))
	p.res.set("fdb.getrange_ns_per_kv", nsPer(len(keys), func() {
		tr := p.e.db.CreateTransaction()
		kvs, _, _ := tr.GetRange([]byte{}, []byte{0xFD}, fdb.RangeOptions{Limit: len(keys)})
		sink = kvs
		tr.Cancel()
	}))
	return nil
}

func (p *prober) scratchKey() []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], p.rng.Uint64())
	return scratch.Pack(tuple.Tuple{b[:]})
}

// fdbWrites prices the write buffer: the cost of one more Set in a
// transaction already holding 10 or 1000 writes, the commit per mutation,
// and the resolver's check of a transaction's reads against recent commits.
func (p *prober) fdbWrites() error {
	value := make([]byte, 100)
	setsAt := func(held, timed, txns int) (ns, allocB float64) {
		keys := make([][]byte, txns*(held+timed))
		for i := range keys {
			keys[i] = p.scratchKey()
		}
		var total time.Duration
		allocB = bytesAllocated(func() {
			for t := 0; t < txns; t++ {
				tr := p.e.db.CreateTransaction()
				ks := keys[t*(held+timed):]
				for _, k := range ks[:held] {
					_ = tr.Set(k, value)
				}
				t0 := time.Now()
				for _, k := range ks[held : held+timed] {
					_ = tr.Set(k, value)
				}
				total += time.Since(t0)
				tr.Cancel()
			}
		})
		return float64(total.Nanoseconds()) / float64(txns*timed), allocB / float64(txns*(held+timed))
	}
	at10, _ := setsAt(10, 10, 500)
	at1000, allocB := setsAt(1000, 100, 10)
	p.res.set("fdb.set_ns_at_10", at10)
	p.res.set("fdb.set_ns_at_1000", at1000)
	// Bytes allocated per Set averaged over a 1100-write transaction.
	p.res.set("fdb.set_alloc_b_at_1000", allocB)

	// A small range read in a transaction holding 1000 writes, right after
	// one more write: read-your-writes has to merge the write buffer in.
	tr := p.e.db.CreateTransaction()
	for i := 0; i < 1000; i++ {
		_ = tr.Set(p.scratchKey(), value)
	}
	begin, end := scratch.Range()
	const rangeReads = 50
	p.res.set("fdb.rywrange_ns_at_1000", nsPer(rangeReads, func() {
		for i := 0; i < rangeReads; i++ {
			_ = tr.Set(p.scratchKey(), value)
			sink, _, _ = tr.GetRange(begin, end, fdb.RangeOptions{Limit: 10})
		}
	}))
	tr.Cancel()

	const muts = 1000
	commits := make([]float64, probeReps)
	for r := range commits {
		tr := p.e.db.CreateTransaction()
		for i := 0; i < muts; i++ {
			_ = tr.Set(p.scratchKey(), value)
		}
		t0 := time.Now()
		if err := tr.Commit(); err != nil {
			return err
		}
		commits[r] = float64(time.Since(t0).Nanoseconds()) / muts
	}
	p.res.set("fdb.commit_ns_per_mutation", best(commits))

	// One transaction with 100 point reads commits after 100 other
	// transactions each committed one write: the resolver checks each of
	// those writes against the 100 read conflict keys.
	keys, err := p.someKeys(100)
	if err != nil {
		return err
	}
	const recent = 100
	checks := make([]float64, probeReps)
	for r := range checks {
		tr := p.e.db.CreateTransaction()
		for _, k := range keys {
			if _, err := tr.Get(k); err != nil {
				return err
			}
		}
		for i := 0; i < recent; i++ {
			other := p.e.db.CreateTransaction()
			_ = other.Set(p.scratchKey(), value)
			if err := other.Commit(); err != nil {
				return err
			}
		}
		_ = tr.Set(p.scratchKey(), value)
		t0 := time.Now()
		if err := tr.Commit(); err != nil {
			return err
		}
		checks[r] = float64(time.Since(t0).Nanoseconds()) / recent
	}
	// Nanoseconds of commit per recent commit the resolver checked.
	p.res.set("fdb.conflict_check_ns", best(checks))
	b, e := scratch.Range()
	_, err = p.e.db.Transact(func(tr *fdb.Transaction) (interface{}, error) { return nil, tr.ClearRange(b, e) })
	return err
}

func (p *prober) kvcursor() error {
	const limit = 5000
	scan := func(tr *fdb.Transaction) int {
		c := cursor.Limit(kvcursor.New(tr, []byte{}, []byte{0xFD}, kvcursor.Options{Snapshot: true}), limit)
		kvs, _, _, err := cursor.Collect(c)
		if err != nil {
			panic(err)
		}
		return len(kvs)
	}
	n := 0
	ns := nsPer(1, func() {
		tr := p.e.db.CreateTransaction()
		n = scan(tr)
		tr.Cancel()
	})
	p.res.set("kvcursor.scan_ns_per_kv", ns/float64(n))
	// Each batch the cursor fetches is one read window in the trace.
	trace := recordlayer.NewTrace()
	tr := p.e.db.CreateTransaction()
	tr.SetTrace(trace)
	n = scan(tr)
	tr.Cancel()
	p.res.set("kvcursor.batches_per_1k_kv", float64(len(trace.Named("fdb.read")))*1000/float64(n))
	return nil
}

// cursors times the merge and pipelining combinators over in-memory streams:
// the cursor layer alone, with no simulator under it.
func (p *prober) cursors() error {
	const n = 4096
	evens, thirds := make([]int64, 0, n), make([]int64, 0, n)
	for i := int64(0); int(i) < n; i++ {
		evens = append(evens, 2*i)
		thirds = append(thirds, 3*i)
	}
	keyOf := func(v int64) []byte {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(v))
		return b[:]
	}
	builders := func() []func([]byte) cursor.Cursor[int64] {
		return []func([]byte) cursor.Cursor[int64]{
			func(c []byte) cursor.Cursor[int64] { return cursor.FromSlice(evens, c) },
			func(c []byte) cursor.Cursor[int64] { return cursor.FromSlice(thirds, c) },
		}
	}
	drain := func(c cursor.Cursor[int64], err error) int {
		if err != nil {
			panic(err)
		}
		rows, _, _, err := cursor.Collect(c)
		if err != nil {
			panic(err)
		}
		return len(rows)
	}
	rows := 0
	ns := nsPer(1, func() { rows = drain(cursor.Union(nil, keyOf, builders()...)) })
	p.res.set("cursor.union_ns_per_row", ns/float64(rows))
	// Per row of the longer input: an intersection pays for what it skips.
	ns = nsPer(1, func() { rows = drain(cursor.Intersection(nil, keyOf, builders()...)) })
	p.res.set("cursor.intersection_ns_per_row", ns/n)
	ns = nsPer(1, func() {
		rows = drain(cursor.MapAsync(cursor.FromSlice(evens, nil), 8,
			func(v int64) int64 { return v }, func(v, h int64) (int64, error) { return v + h, nil }), nil)
	})
	p.res.set("cursor.mapasync_ns_per_row", ns/float64(rows))
	return nil
}

// indexes drives each index type's maintainer directly, on its own subspace,
// with records the index_write generator produced: insert them, then time
// updates that change every indexed field.
func (p *prober) indexes() error {
	const n, batch = 512, 16
	fe, fg, err := fixture("index_write", n, p.g.seed, slices)
	if err != nil {
		return err
	}
	md := fe.md
	rt, _ := md.RecordType("Note")
	olds := harvest(fg, n)
	news := make([]*message.Message, n)
	for i, m := range olds {
		src := olds[(i+1)%n]
		news[i] = m.Clone().
			MustSet("zone", str(src, "zone")).MustSet("score", num(src, "score")).
			MustSet("bytes", num(src, "bytes")).MustSet("body", str(src, "body"))
	}
	for _, ix := range md.Indexes() {
		ix := ix
		space := scratch.Sub(ix.Name)
		m, err := index.NewMaintainer(ix)
		if err != nil {
			return err
		}
		var uv uint16
		ictx := func(tr *fdb.Transaction) *index.Context {
			return &index.Context{Tr: tr, Index: ix, Space: space, MetaData: md,
				NextUserVersion: func() uint16 { uv++; return uv }}
		}
		rec := func(msg *message.Message, i int) *index.Record {
			return &index.Record{Type: rt, Message: msg, PrimaryKey: pk(msgID(msg)), PendingUserVersion: uint16(i % batch)}
		}
		// Insert in small transactions; remember each one's versionstamp so
		// the old records carry the complete version a stored record has.
		stamps := make([]tuple.Versionstamp, n)
		for lo := 0; lo < n; lo += batch {
			tr := fe.db.CreateTransaction()
			for i := lo; i < lo+batch; i++ {
				if err := index.Update(m, ictx(tr), nil, rec(olds[i], i)); err != nil {
					return fmt.Errorf("index probe %s insert: %w", ix.Name, err)
				}
			}
			if err := tr.Commit(); err != nil {
				return err
			}
			vs, err := tr.Versionstamp()
			if err != nil {
				return err
			}
			for i := lo; i < lo+batch; i++ {
				copy(stamps[i].TransactionVersion[:], vs)
				stamps[i].UserVersion = uint16(i % batch)
			}
		}
		var total time.Duration
		var keysRead, keysWritten int
		for lo := 0; lo < n; lo += batch {
			tr := fe.db.CreateTransaction()
			c := ictx(tr)
			t0 := time.Now()
			for i := lo; i < lo+batch; i++ {
				old := rec(olds[i], i)
				old.Version, old.HasVersion = stamps[i], true
				if err := index.Update(m, c, old, rec(news[i], i)); err != nil {
					return fmt.Errorf("index probe %s update: %w", ix.Name, err)
				}
			}
			total += time.Since(t0)
			st := tr.Stats()
			keysRead += st.KeysRead
			keysWritten += st.Mutations
			if err := tr.Commit(); err != nil {
				return err
			}
		}
		name := "index." + string(ix.Type)
		p.res.set(name+".update_ns", float64(total.Nanoseconds())/n)
		p.res.set(name+".update_keys_read", float64(keysRead)/n)
		p.res.set(name+".update_keys_written", float64(keysWritten)/n)

		if rm, ok := m.(*index.RankMaintainer); ok {
			p.res.set("index.rank.lookup_ns", nsPer(n, func() {
				tr := fe.db.CreateTransaction()
				c := ictx(tr)
				for _, msg := range news {
					sink, _ = rm.RankOfValue(c, tuple.Tuple{num(msg, "score")})
				}
				tr.Cancel()
			}))
		}
	}

	// Scanning a VALUE index: the traced workload's own main index.
	entries := 0
	ns := nsPer(1, func() {
		_, err := p.e.runner.ReadRun(p.e.tenantCtx(0), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			st, err := p.e.openStore(ctx, tr, 0)
			if err != nil {
				return nil, err
			}
			c, err := st.ScanIndex(ixValue, index.TupleRange{}, index.ScanOptions{Snapshot: true})
			if err != nil {
				return nil, err
			}
			got, _, _, err := cursor.Collect(cursor.Limit(c, 2000))
			entries = len(got)
			return nil, err
		})
		if err != nil {
			panic(err)
		}
	})
	p.res.set("index.value.scan_ns_per_entry", ns/float64(max(entries, 1)))
	return nil
}

// core probes the record store below the façade: open, save, load, delete on
// tenant 0 of the traced workload. Saves and deletes are buffered and then
// cancelled, so the commit (priced by the fdb probes) is not in them and the
// store is left as the oracle checked it.
func (p *prober) core() error {
	e := p.e
	space, err := e.tenantSpace(0)
	if err != nil {
		return err
	}
	const opens = 200
	var openKeys float64
	p.res.set("core.open_ns", nsPer(opens, func() {
		tr := e.db.CreateTransaction()
		for i := 0; i < opens; i++ {
			if sink, err = core.Open(tr, e.md, space, core.OpenOptions{}); err != nil {
				panic(err)
			}
		}
		openKeys = float64(tr.Stats().KeysRead) / opens
		tr.Cancel()
	}))
	p.res.set("core.open_keys_read", openKeys)

	// One ScanRecords cursor over 100 and over 1000 records: the cost per
	// record should not depend on how many came before it.
	for _, limit := range []int{100, 1000} {
		got := 0
		ns := nsPer(1, func() {
			tr := e.db.CreateTransaction()
			st, err := core.Open(tr, e.md, space, core.OpenOptions{})
			if err != nil {
				panic(err)
			}
			recs, _, _, err := cursor.Collect(cursor.Limit(st.ScanRecords(core.ScanOptions{Snapshot: true}), limit))
			if err != nil {
				panic(err)
			}
			got = len(recs)
			tr.Cancel()
		})
		p.res.set(fmt.Sprintf("core.scan_ns_per_record_at_%d", limit), ns/float64(max(got, 1)))
	}

	// Live records of tenant 0, and a fresh version of each to save.
	var ids []int64
	for id := range p.g.model.recs[0] {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	ids = ids[:min(len(ids), 256)]
	records := &gen{w: e.w, rng: p.rng}
	fresh := make([]*message.Message, len(ids))
	for i, id := range ids {
		fresh[i] = records.record(id)
	}
	const batch = 4
	n := len(ids)
	inBatches := func(fn func(st *core.Store, i int) error) (float64, float64) {
		var total time.Duration
		written := 0
		for lo := 0; lo < n; lo += batch {
			tr := e.db.CreateTransaction()
			st, err := core.Open(tr, e.md, space, core.OpenOptions{})
			if err != nil {
				panic(err)
			}
			t0 := time.Now()
			for i := lo; i < min(lo+batch, n); i++ {
				if err := fn(st, i); err != nil {
					panic(err)
				}
			}
			total += time.Since(t0)
			written += tr.Stats().Mutations
			tr.Cancel()
		}
		return float64(total.Nanoseconds()) / float64(n), float64(written) / float64(n)
	}
	saveNs, saveKeys := inBatches(func(st *core.Store, i int) error {
		_, err := st.SaveRecord(fresh[i])
		return err
	})
	p.res.set("core.save_ns", saveNs)
	p.res.set("core.save_keys_written", saveKeys)
	loadNs, _ := inBatches(func(st *core.Store, i int) error {
		rec, err := st.LoadRecordByKey(pk(ids[i]))
		sink = rec
		return err
	})
	p.res.set("core.load_ns", loadNs)
	deleteNs, _ := inBatches(func(st *core.Store, i int) error {
		_, err := st.DeleteRecord(pk(ids[i]))
		return err
	})
	p.res.set("core.delete_ns", deleteNs)
	return nil
}

// planner probes planning time and, for each of the five query shapes, the
// keys examined per row returned, on a one-tenant query_scan fixture.
func (p *prober) planner() error {
	fe, fg, err := fixture("query_scan", 2500, p.g.seed, 300)
	if err != nil {
		return err
	}
	planner := plan.New(fe.md, fe.w.planner)
	var queries []recordlayer.Query
	shapes := map[opKind]*op{}
	for i := range fg.ops {
		o := &fg.ops[i]
		if o.kind.isWrite() {
			continue
		}
		queries = append(queries, o.q)
		if shapes[o.kind] == nil {
			shapes[o.kind] = o
		}
	}
	p.res.set("plan.plan_ns", nsPer(len(queries), func() {
		for _, q := range queries {
			if sink, err = planner.Plan(q); err != nil {
				panic(err)
			}
		}
	}))
	for kind, name := range map[opKind]string{
		opPagedRange: "index_fetch", opCovering: "covering", opUnion: "union2",
		opIntersection: "intersection2", opFullScan: "fullscan",
	} {
		before := fe.db.Metrics().KeysRead.Load()
		if err := fe.exec(shapes[kind]); err != nil {
			return err
		}
		keys := fe.db.Metrics().KeysRead.Load() - before
		p.res.set("plan.keys_per_row."+name, float64(keys)/float64(max(len(fe.res), 1)))
	}

	// A full plan cache, every lookup a hit.
	cache := recordlayer.NewPlanCache(128)
	var keys []string
	for _, q := range queries[:min(128, len(queries))] {
		pl, err := planner.Plan(q)
		if err != nil {
			return err
		}
		keys = append(keys, q.String())
		cache.Put(q.String(), pl)
	}
	p.res.set("recordlayer.plancache_get_ns", nsPer(len(keys)*10, func() {
		for r := 0; r < 10; r++ {
			for _, k := range keys {
				sink, _ = cache.Get(k)
			}
		}
	}))
	return nil
}

func (p *prober) facade() error {
	const n = 2000
	p.res.set("recordlayer.runner_empty_run_ns", nsPer(n, func() {
		for i := 0; i < n; i++ {
			_, err := p.e.runner.Run(p.e.ctx, func(context.Context, *fdb.Transaction) (interface{}, error) { return nil, nil })
			if err != nil {
				panic(err)
			}
		}
	}))
	return nil
}

// resource probes admission and metering with as many tenants as
// tenant_fanout has, and what their state costs in live heap.
func (p *prober) resource() error {
	tenants := workloadByName("tenant_fanout").tenants
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("u%d", i)
	}
	now := time.Unix(0, 0)
	h0 := heapAlloc()
	gov := recordlayer.NewGovernor(recordlayer.NewAccountant(), recordlayer.GovernorOptions{
		DefaultLimits:   recordlayer.TenantLimits{TxnPerSecond: 1e6, BytesPerSecond: 1e12, MaxConcurrent: 8},
		TotalConcurrent: 64,
		Clock:           func() time.Time { now = now.Add(time.Microsecond); return now },
	})
	ctx := context.Background()
	admitAll := func() {
		for _, name := range names {
			release, err := gov.Admit(ctx, name)
			if err != nil {
				panic(err)
			}
			release()
		}
	}
	admitAll()
	p.res.set("resource.state_b_per_tenant", float64(heapAlloc()-h0)/float64(tenants))
	p.res.set("resource.admit_ns", nsPer(tenants, admitAll))
	acct := gov.Accountant()
	p.res.set("resource.meter_ns", nsPer(tenants, func() {
		for _, name := range names {
			acct.Tenant(name).RecordRead(1, 100)
		}
	}))
	runtime.KeepAlive(gov)
	return nil
}
