package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/kvcursor"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// refAssemble is assembleRecord as it was before record keys were split and
// envelopes read in place: every key is unpacked whole to read its suffix, and
// the envelope is unpacked into a tuple, copying the wire bytes. It is the
// reference TestRecordDecodeMatchesReference holds the read path to.
func refAssemble(s *Store, pk tuple.Tuple, kvs []fdb.KeyValue) (*StoredRecord, error) {
	rec := &StoredRecord{PrimaryKey: pk}
	var parts []recordChunk
	sorted := true
	for _, kv := range kvs {
		t, err := s.space.Unpack(kv.Key)
		if err != nil {
			return nil, err
		}
		suffix, ok := t[len(t)-1].(int64)
		if !ok {
			return nil, fmt.Errorf("core: malformed record key suffix in %v", t)
		}
		if suffix == versionSuffix {
			v, err := tuple.VersionstampFromBytes(kv.Value)
			if err != nil {
				return nil, fmt.Errorf("core: corrupt version slot: %v", err)
			}
			rec.Version, rec.HasVersion = v, true
			continue
		}
		if n := len(parts); n > 0 && parts[n-1].suffix > suffix {
			sorted = false
		}
		parts = append(parts, recordChunk{suffix: suffix, value: kv.Value})
	}
	if !sorted {
		sort.Slice(parts, func(i, j int) bool { return parts[i].suffix < parts[j].suffix })
	}
	if len(parts) == 0 {
		return nil, nil
	}
	var blob []byte
	for _, p := range parts {
		blob = append(blob, p.value...)
	}
	rec.Size = len(blob)
	rec.SplitChunks = len(parts)
	envelope, err := s.cfg.Serializer.Decode(blob)
	if err != nil {
		return nil, err
	}
	t, err := tuple.Unpack(envelope)
	if err != nil || len(t) != 2 {
		return nil, fmt.Errorf("core: corrupt record envelope for %v", pk)
	}
	typeName, ok := t[0].(string)
	if !ok {
		return nil, fmt.Errorf("core: corrupt record type tag for %v", pk)
	}
	rt, ok := s.md.RecordType(typeName)
	if !ok {
		return nil, fmt.Errorf("core: record of unknown type %q; metadata may predate it", typeName)
	}
	wire, _ := t[1].([]byte)
	msg, err := message.Unmarshal(rt.Descriptor, wire)
	if err != nil {
		return nil, err
	}
	rec.Type, rec.Message = rt, msg
	return rec, nil
}

// refLoad is LoadRecordByKey over refAssemble.
func refLoad(s *Store, pk tuple.Tuple) (*StoredRecord, error) {
	b, e := refRecordRange(s, pk)
	kvs, _, err := s.tr.GetRange(b, e, fdb.RangeOptions{})
	if err != nil || len(kvs) == 0 {
		return nil, err
	}
	return refAssemble(s, pk, kvs)
}

// refRecordKey and refRecordRange pack record keys the way they were packed
// before record ranges were built in one buffer.
func refRecordKey(s *Store, pk tuple.Tuple, suffix interface{}) []byte {
	return append(append([]byte(nil), s.space.Bytes()...), tuple.Tuple{int64(recordsSub)}.Append(pk...).Append(suffix).Pack()...)
}

func refRecordRange(s *Store, pk tuple.Tuple) ([]byte, []byte) {
	p := append(append([]byte(nil), s.space.Bytes()...), tuple.Tuple{int64(recordsSub)}.Append(pk...).Pack()...)
	return append(append([]byte(nil), p...), 0x00), append(append([]byte(nil), p...), 0xFF)
}

// refScanRecords is ScanRecords over refRecordCursor, the grouping that
// unpacked every pair's key and re-packed its primary key to compare it.
func refScanRecords(s *Store, opts ScanOptions) cursor.Cursor[*StoredRecord] {
	recSpace := s.space.Sub(recordsSub)
	begin, end, err := opts.Range.ToKeyRange(recSpace)
	if err != nil {
		return cursor.Fail[*StoredRecord](err)
	}
	if len(opts.Continuation) > 0 {
		if !opts.Reverse {
			cb, err := tuple.Strinc(append(recSpace.Bytes(), opts.Continuation...))
			if err != nil {
				return cursor.Fail[*StoredRecord](err)
			}
			begin = cb
		} else {
			end = append(recSpace.Bytes(), opts.Continuation...)
		}
	}
	kvs := kvcursor.New(s.tr, begin, end, kvcursor.Options{Reverse: opts.Reverse, Snapshot: opts.Snapshot})
	rc := &refRecordCursor{store: s, kvs: kvs, limiter: opts.Limiter}
	if n, ok := opts.Limiter.RecordsLeft(); ok {
		per := 1
		if s.md.StoreRecordVersions {
			per = 2
		}
		rc.kvs.Demand((n+1)*per + 1)
	}
	return rc
}

type refRecordCursor struct {
	store     *Store
	kvs       cursor.Cursor[fdb.KeyValue]
	limiter   *cursor.Limiter
	halted    *cursor.Result[*StoredRecord]
	lastPK    []byte
	pushed    fdb.KeyValue
	hasPushed bool
}

func (c *refRecordCursor) flush(pk tuple.Tuple, packed []byte, group []fdb.KeyValue) (cursor.Result[*StoredRecord], error) {
	rec, err := refAssemble(c.store, pk, group)
	if err != nil {
		return cursor.Result[*StoredRecord]{}, err
	}
	if rec != nil {
		nbytes := 0
		for _, kv := range group {
			nbytes += len(kv.Key) + len(kv.Value)
		}
		if reason, ok := c.limiter.TryRecord(nbytes); !ok {
			h := cursor.Result[*StoredRecord]{OK: false, Reason: reason, Continuation: c.lastPK}
			c.halted = &h
			return h, nil
		}
	}
	c.lastPK = packed
	if rec == nil {
		return c.Next()
	}
	return cursor.Result[*StoredRecord]{Value: rec, OK: true, Continuation: packed}, nil
}

func (c *refRecordCursor) nextPair() (cursor.Result[fdb.KeyValue], error) {
	if c.hasPushed {
		c.hasPushed = false
		return cursor.Result[fdb.KeyValue]{Value: c.pushed, OK: true}, nil
	}
	return c.kvs.Next()
}

func (c *refRecordCursor) Prefetch()  {}
func (c *refRecordCursor) Demand(int) {}
func (c *refRecordCursor) Ready() int { return 0 }

func (c *refRecordCursor) Next() (cursor.Result[*StoredRecord], error) {
	if c.halted != nil {
		return *c.halted, nil
	}
	var group []fdb.KeyValue
	var groupPK tuple.Tuple
	var groupPKPacked []byte
	for {
		r, err := c.nextPair()
		if err != nil {
			return cursor.Result[*StoredRecord]{}, err
		}
		if !r.OK {
			if len(group) > 0 && r.Reason == cursor.SourceExhausted {
				res, err := c.flush(groupPK, groupPKPacked, group)
				if err != nil {
					return res, err
				}
				if res.OK {
					h := cursor.Result[*StoredRecord]{OK: false, Reason: cursor.SourceExhausted}
					c.halted = &h
				}
				return res, nil
			}
			h := cursor.Result[*StoredRecord]{OK: false, Reason: r.Reason, Continuation: c.lastPK}
			c.halted = &h
			return h, nil
		}
		t, err := c.store.space.Unpack(r.Value.Key)
		if err != nil {
			return cursor.Result[*StoredRecord]{}, err
		}
		pk := t[1 : len(t)-1]
		packed := pk.Pack()
		if group == nil {
			group = append(group, r.Value)
			groupPK, groupPKPacked = pk, packed
			continue
		}
		if bytes.Equal(packed, groupPKPacked) {
			group = append(group, r.Value)
			continue
		}
		c.pushed, c.hasPushed = r.Value, true
		return c.flush(groupPK, groupPKPacked, group)
	}
}

// randPKElem draws one primary-key element from the encodings that stress a
// key splitter: integers of every width and sign, uint64 above MaxInt64, byte
// and string elements holding escaped zero bytes, nested tuples holding nil,
// and the fixed-width types.
func randPKElem(r *rand.Rand, depth int) interface{} {
	switch r.Intn(10) {
	case 0, 1:
		edges := []int64{0, 1, -1, 255, -255, 256, -256, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
		if r.Intn(3) == 0 {
			return edges[r.Intn(len(edges))]
		}
		width := uint(r.Intn(8) + 1)
		v := int64(r.Uint64() >> (64 - 8*width) >> 1)
		if r.Intn(2) == 0 {
			v = -v
		}
		return v
	case 2:
		return uint64(1)<<63 | r.Uint64()
	case 3, 4:
		return string(randZeroBytes(r))
	case 5:
		return randZeroBytes(r)
	case 6:
		if depth > 1 {
			return nil
		}
		t := tuple.Tuple{nil}
		for i := r.Intn(3); i > 0; i-- {
			t = append(t, randPKElem(r, depth+1))
		}
		r.Shuffle(len(t), func(i, j int) { t[i], t[j] = t[j], t[i] })
		return t
	case 7:
		return r.NormFloat64()
	case 8:
		return r.Intn(2) == 0
	default:
		var u tuple.UUID
		r.Read(u[:])
		return u
	}
}

func randZeroBytes(r *rand.Rand) []byte {
	alphabet := []byte{0x00, 0x00, 0x01, 'a', 'z', 0xFE, 0xFF}
	b := make([]byte, r.Intn(6))
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return b
}

// randRecordMessage builds a User or Order whose wire bytes hold zero bytes
// about half the time, so both envelope readers run.
func randRecordMessage(r *rand.Rand) *message.Message {
	text := func() string {
		if r.Intn(2) == 0 {
			return fmt.Sprintf("name-%d", r.Intn(1000))
		}
		return "z\x00" + string(randZeroBytes(r))
	}
	if r.Intn(3) == 0 {
		return message.New(orderDesc()).MustSet("id", int64(r.Intn(50))).
			MustSet("name", text()).MustSet("total", r.Int63n(1<<40))
	}
	m := message.New(userDesc()).MustSet("id", int64(r.Intn(50))).
		MustSet("name", text()).MustSet("score", int64(r.Intn(300)))
	if r.Intn(2) == 0 {
		m.MustSet("bio", text())
	}
	return m
}

// writeRandRecord writes one record's pairs under pk with raw sets, as the
// parent's key packing lays them out, in one of the shapes a store can hold:
// unsplit, split into chunks, with or without a version slot, or a version
// slot alone. One record in forty is corrupt in a way only assembly notices.
func writeRandRecord(r *rand.Rand, s *Store, pk tuple.Tuple) error {
	set := func(suffix interface{}, v []byte) error { return s.tr.Set(refRecordKey(s, pk, suffix), v) }
	if r.Intn(2) == 0 {
		slot := make([]byte, 12)
		r.Read(slot)
		if err := set(int64(versionSuffix), slot); err != nil {
			return err
		}
	}
	if r.Intn(8) == 0 {
		return nil // a version-slot-only remnant, or nothing at all
	}
	msg := randRecordMessage(r)
	wire, err := msg.Marshal()
	if err != nil {
		return err
	}
	envelope := tuple.Tuple{msg.Descriptor().Name, wire}.Pack()
	switch r.Intn(40) {
	case 0:
		envelope = tuple.Tuple{"Nope", wire}.Pack()
	case 1:
		envelope = tuple.Tuple{msg.Descriptor().Name, int64(7)}.Pack()
	case 2:
		envelope = tuple.Tuple{int64(1), wire}.Pack()
	case 3:
		envelope = tuple.Tuple{msg.Descriptor().Name, wire, nil}.Pack()
	case 4:
		envelope = []byte{0x02, 'U'}
	case 5:
		return set("not an int", envelope)
	case 6:
		return set(int64(versionSuffix), []byte("short"))
	}
	blob, err := s.cfg.Serializer.Encode(envelope)
	if err != nil {
		return err
	}
	if r.Intn(3) != 0 || len(blob) < 2 {
		return set(int64(unsplitRecord), blob)
	}
	// Split at random points into 2..4 chunks, suffixes 1..n.
	cuts := []int{0, len(blob)}
	for i := r.Intn(3) + 1; i > 0; i-- {
		cuts = append(cuts, 1+r.Intn(len(blob)-1))
	}
	sort.Ints(cuts)
	for i := 1; i < len(cuts); i++ {
		if err := set(int64(i), blob[cuts[i-1]:cuts[i]]); err != nil {
			return err
		}
	}
	return nil
}

// decodeStep is one Next of a record cursor, as far as a caller can observe it.
type decodeStep struct {
	rec    *StoredRecord
	ok     bool
	reason cursor.NoNextReason
	cont   []byte
	err    error
}

func drainRecords(c cursor.Cursor[*StoredRecord]) []decodeStep {
	var out []decodeStep
	for len(out) < 1000 {
		r, err := c.Next()
		out = append(out, decodeStep{rec: r.Value, ok: r.OK, reason: r.Reason, cont: r.Continuation, err: err})
		if err != nil || !r.OK {
			break
		}
	}
	return out
}

// diffRecord describes how two assembled records differ, "" when they do not.
func diffRecord(got, want *StoredRecord) string {
	if (got == nil) != (want == nil) {
		return fmt.Sprintf("record %v, want %v", got, want)
	}
	if got == nil {
		return ""
	}
	if !reflect.DeepEqual(got.PrimaryKey, want.PrimaryKey) {
		return fmt.Sprintf("primary key %v, want %v", got.PrimaryKey, want.PrimaryKey)
	}
	if got.Type != want.Type || got.Version != want.Version || got.HasVersion != want.HasVersion ||
		got.Size != want.Size || got.SplitChunks != want.SplitChunks {
		return fmt.Sprintf("record %v: header %+v, want %+v", want.PrimaryKey, *got, *want)
	}
	if !reflect.DeepEqual(got.Message, want.Message) {
		return fmt.Sprintf("record %v: message %v, want %v", want.PrimaryKey, got.Message, want.Message)
	}
	return ""
}

func diffSteps(got, want []decodeStep) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d steps, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if (g.err == nil) != (w.err == nil) {
			return fmt.Sprintf("step %d: error %v, want %v", i, g.err, w.err)
		}
		if g.ok != w.ok || g.reason != w.reason || !bytes.Equal(g.cont, w.cont) {
			return fmt.Sprintf("step %d: ok=%v reason=%v cont=%x, want ok=%v reason=%v cont=%x",
				i, g.ok, g.reason, g.cont, w.ok, w.reason, w.cont)
		}
		if d := diffRecord(g.rec, w.rec); d != "" {
			return fmt.Sprintf("step %d: %s", i, d)
		}
	}
	return ""
}

// TestRecordDecodeMatchesReference holds the record read path, the key
// splitting in the record cursor and the in-place envelope read in
// assembleRecord, to the unpack-everything reference above over seeded
// stores: primary keys of every encoding, split records, version slots,
// version-slot-only remnants, wire bytes holding zero bytes, the odd corrupt
// record, and both serializers. Record keys and ranges must pack to the same
// bytes as before. Loads by primary key, and scans forward and
// reverse, resumed at every record, unlimited and under record and byte
// limits, must return equal records, continuations, halts, errors and
// transaction stats.
func TestRecordDecodeMatchesReference(t *testing.T) {
	// The primary keys below have one to three elements, and a scan resumes
	// only from a primary key of one of the store's types: one of each length.
	md := metadata.NewBuilder(1).
		AddRecordType(userDesc(), keyexpr.Field("id")).
		AddRecordType(orderDesc(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		AddRecordType(message.MustDescriptor("Triple", message.Field("id", 1, message.TypeInt64)),
			keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"), keyexpr.Field("id"))).
		MustBuild()
	// covered counts what the reference returned, so the test can show it
	// reached every shape it means to.
	covered := map[string]int{}
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := fdb.Open(nil)
		sp := subspace.FromTuple(tuple.Tuple{"tenant", seed})
		cfg := Config{}
		if r.Intn(3) == 0 {
			cfg.Serializer = CompressingSerializer{}
		}
		var pks []tuple.Tuple
		seen := map[string]bool{}
		for n := r.Intn(8) + 1; len(pks) < n; {
			pk := tuple.Tuple{randPKElem(r, 0)}
			for i := r.Intn(3); i > 0; i-- {
				pk = append(pk, randPKElem(r, 0))
			}
			if k := string(pk.Pack()); !seen[k] {
				seen[k] = true
				pks = append(pks, pk)
			}
		}
		_, err := db.Transact(func(tr *fdb.Transaction) (interface{}, error) {
			s, err := Open(tr, md, sp, OpenOptions{CreateIfMissing: true, Config: cfg})
			if err != nil {
				return nil, err
			}
			for _, pk := range pks {
				// Keys and ranges must stay byte-identical to the old packing.
				b, e := s.recordRange(pk.Pack())
				rb, re := refRecordRange(s, pk)
				if !bytes.Equal(b, rb) || !bytes.Equal(e, re) {
					t.Fatalf("seed %d: recordRange(%v) = %x, %x, want %x, %x", seed, pk, b, e, rb, re)
				}
				for _, suffix := range []int64{versionSuffix, unsplitRecord, 3} {
					if k, rk := s.recordKey(nil, pk.Pack(), suffix), refRecordKey(s, pk, suffix); !bytes.Equal(k, rk) {
						t.Fatalf("seed %d: recordKey(%v, %d) = %x, want %x", seed, pk, suffix, k, rk)
					}
				}
				if err := writeRandRecord(r, s, pk); err != nil {
					return nil, err
				}
			}
			return nil, nil
		})
		if err != nil {
			t.Fatalf("seed %d: writing the store: %v", seed, err)
		}
		// run opens the store in a fresh transaction and runs f on it.
		run := func(f func(s *Store) []decodeStep) ([]decodeStep, fdb.TxnStats) {
			tr := db.CreateTransaction()
			s, err := Open(tr, md, sp, OpenOptions{Config: cfg})
			if err != nil {
				t.Fatalf("seed %d: open: %v", seed, err)
			}
			steps := f(s)
			return steps, tr.Stats()
		}
		check := func(what string, f, ref func(s *Store) []decodeStep) []decodeStep {
			got, gotStats := run(f)
			want, wantStats := run(ref)
			if d := diffSteps(got, want); d != "" {
				t.Fatalf("seed %d: %s: %s", seed, what, d)
			}
			if gotStats != wantStats {
				t.Fatalf("seed %d: %s: stats %+v, want %+v", seed, what, gotStats, wantStats)
			}
			for _, st := range want {
				switch {
				case st.err != nil:
					covered["error"]++
				case !st.ok:
					covered[st.reason.String()]++
				case st.rec.SplitChunks > 1:
					covered["split"]++
				case st.rec.HasVersion:
					covered["versioned"]++
				default:
					covered["plain"]++
				}
			}
			return want
		}
		for _, pk := range append(pks, tuple.Tuple{"absent"}) {
			pk := pk
			load := func(l func(*Store, tuple.Tuple) (*StoredRecord, error)) func(s *Store) []decodeStep {
				return func(s *Store) []decodeStep {
					rec, err := l(s, pk)
					return []decodeStep{{rec: rec, ok: rec != nil, err: err}}
				}
			}
			check(fmt.Sprintf("load %v", pk), load((*Store).LoadRecordByKey), load(refLoad))
		}
		for _, reverse := range []bool{false, true} {
			scan := func(cont []byte, records, nbytes int) []decodeStep {
				opts := func() ScanOptions {
					o := ScanOptions{Reverse: reverse, Continuation: cont}
					if records > 0 || nbytes > 0 {
						o.Limiter = cursor.NewLimiter(records, nbytes, time.Time{}, nil)
					}
					return o
				}
				return check(fmt.Sprintf("scan reverse=%v records=%d bytes=%d from %x", reverse, records, nbytes, cont),
					func(s *Store) []decodeStep { return drainRecords(s.ScanRecords(opts())) },
					func(s *Store) []decodeStep { return drainRecords(refScanRecords(s, opts())) })
			}
			// Resume at every record the unlimited scan delivers, unlimited
			// and under a record limit and a byte limit.
			conts := [][]byte{nil}
			for _, st := range scan(nil, 0, 0) {
				if st.ok {
					conts = append(conts, st.cont)
				}
			}
			for _, cont := range conts {
				scan(cont, 0, 0)
				scan(cont, 1+r.Intn(3), 0)
				scan(cont, 0, 1+r.Intn(300))
			}
		}
	}
	for _, shape := range []string{"error", "split", "versioned", "plain",
		cursor.SourceExhausted.String(), cursor.ScanLimitReached.String(), cursor.ByteLimitReached.String()} {
		if covered[shape] == 0 {
			t.Errorf("no %s outcome in any seed: %v", shape, covered)
		}
	}
}
