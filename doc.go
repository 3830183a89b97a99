// Package recordlayer is a from-scratch Go reproduction of the FoundationDB
// Record Layer (Chrysafis et al., SIGMOD 2019): a record-oriented, massively
// multi-tenant structured datastore built on an ordered transactional
// key-value store.
//
// This package is the public façade. It has five pillars:
//
//   - Runner: the standard transactional retry loop (§5) with bounded
//     attempts, exponential backoff with jitter, retryable-error
//     classification, and context cancellation/deadline propagation.
//   - StoreProvider: multi-tenant routing — a schema, store configuration,
//     and keyspace path template bound together so one call opens a
//     tenant's record store inside a transaction.
//   - ExecuteProperties: the per-request limit taxonomy (§8.2) — row limit,
//     scanned-record/byte limits, a time budget defaulted from the context
//     deadline, snapshot isolation, and the continuation to resume from.
//   - Fluent query execution: Store.ExecuteQuery plans declarative queries
//     through a shared LRU plan cache (the client-side "SQL PREPARE" idiom,
//     Appendix C) and returns a RecordCursor with ForEach/ToList and
//     continuation accessors. Plans are cached per query shape — the query
//     with "?" in place of each comparison literal — and bound to each call's
//     literals, so queries that differ only in their literals plan once.
//   - Resource governance: per-tenant metering (Accountant) and admission
//     control (Governor) arbitrate the shared cluster *between* tenants —
//     transaction-rate and byte-rate quotas, concurrency ceilings, priority
//     classes, and limits persisted in the database so every stateless
//     server enforces the same numbers (§1, §5 "millions of tenant
//     stores").
//
// The essential workflow:
//
//	db := fdb.Open(nil)
//	runner := recordlayer.NewRunner(db, recordlayer.RunnerOptions{})
//	ks, _ := keyspace.New(nil,
//		keyspace.NewConstant("app", "myapp").Add(
//			keyspace.NewDirectory("user", keyspace.TypeInt64)))
//	provider, _ := recordlayer.NewStoreProvider(md, ks,
//		[]string{"app", "user"}, recordlayer.ProviderOptions{})
//
//	_, err := runner.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
//		store, err := provider.Open(ctx, tr, userID)
//		if err != nil {
//			return nil, err
//		}
//		return store.SaveRecord(rec)
//	})
//
// Queries stream under per-request limits and resume across transactions by
// continuation, keeping every server stateless (§3.1):
//
//	props := recordlayer.ExecuteProperties{RowLimit: 10, ScanRecordLimit: 1000}
//	for {
//		res, _ := runner.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
//			store, err := provider.Open(ctx, tr, userID)
//			if err != nil {
//				return nil, err
//			}
//			cur, err := store.ExecuteQuery(ctx, q, props)
//			if err != nil {
//				return nil, err
//			}
//			if err := cur.ForEach(handle); err != nil {
//				return nil, err
//			}
//			return cur, nil
//		})
//		cur := res.(*recordlayer.RecordCursor)
//		if cur.Exhausted() {
//			break
//		}
//		props = props.WithContinuation(cur.Continuation())
//	}
//
// A continuation is opaque, and framed once per ask: Continuation writes the
// Skip still owed and the plan's position when called. Handed to another
// query or another tenant's store, or written before this framing, it fails
// the execution with an error that errors.Is cursor.ErrCorruptContinuation
// instead of resuming from somewhere else.
//
// # The query hot path: covering indexes and pipelined fetches
//
// An index scan normally resolves each entry to its record with a point
// range-read — the N+1 the paper's engine avoids two ways, both implemented
// here.
//
// Covering index plans (§6, Appendix A): declare the fields you will read
// with Query.Select, and when every one of them — plus any residual filter
// fields — is reconstructible from the index entry (its key columns, the
// KeyWithValue covering values, and the appended primary key), the planner
// synthesizes partial records straight from the entries. Zero record-subspace
// reads; on a 50-entry scan that is 51 range reads down to 1. The plan string
// makes the choice visible:
//
//	q := recordlayer.Query{
//		RecordTypes: []string{"U"},
//		Filter:      query.Field("name").BeginsWith("user-0002"),
//	}.Select("name", "id")
//	pl, _ := store.Plan(q)
//	fmt.Println(pl) // Covering(Index(by_name ["user-0002" - "user-0003")))
//
// without the projection the same query plans as Index(by_name ...), and a
// residual filter renders as Filter(age > 30 | Covering(Index(...))).
// Synthesized records carry the projected, residual, and primary-key fields
// only — no record version, zero Size — which is the contract Select opts
// into. Covering is refused (falling back to fetching) for fan-out indexes
// (duplicate entries per record), fields no entry column provides, nested or
// one-of-them fields, and queries not pinned to a single record type. Ties
// between equally-selective indexes prefer the covering-capable one, and a
// projected query with no usable filter still plans an index-only scan
// instead of a full record scan.
//
// Pipelined fetches (§8): plans that do fetch records issue the fetches for
// the index entries a scan has delivered together, up to 128 at a time, and
// speculate at most ExecuteProperties.PipelineDepth reads past what has been
// read (default 8; 1 restores strictly sequential fetching); under a RowLimit
// exactly the page's records, together ("What a fetch costs"). Results are
// byte-identical to sequential execution — order, halt reasons, and
// continuations included — only the fetch latency overlaps. Scan limits
// charge per record scanned, and a limit smaller than a single record's
// key-value footprint still admits one record per execution, so paging
// always makes progress (§8.2's "first record is always admitted").
//
// Decoding a fetched record (§4): the layer is stateless, so every request
// decodes what it reads again, and each byte is decoded once. A record key,
// (1, pk..., suffix) under the store's prefix, is split at its element
// boundaries: a scan groups a record's pairs by comparing the packed primary
// key bytes and decodes the primary key once per record, and the suffix is
// read as an int64 without boxing. The (type name, wire bytes) envelope is
// read in place when neither element holds a zero byte, so the wire bytes, and
// the message's unknown fields, alias the fetched value rather than a copy of
// it; range reads hand out exactly sized batches whose pairs are the
// database's own immutable bytes, not copies. None of it changes a stored
// byte. On the benchmark's query_scan workload this took allocation per
// transaction from 198.9 KB to 108.9 KB.
//
// Decoding the message (§3, §4): a message decodes into slots, one per field
// its descriptor declares, in field-number order, so decoding builds no map
// and marshalling sorts nothing; the price is 16 bytes per declared field, set
// or not. String fields are views of the fetched bytes, not copies (bytes
// fields are still copied, because callers may modify them), so the read
// path's ownership of those bytes is a contract, not a habit: reads hand out
// the database's own bytes, which it never writes again, a Serializer's Decode
// returns bytes no one writes again, and the kvreadonly analyzer keeps anyone
// from writing a fetched key or value. TestDecodedStringsSurviveLaterWork
// checks the string views, and the layering analyzer keeps unsafe inside
// internal/message. A held string keeps its whole record value alive. Messages
// nest at most 10 000 levels deep, when decoded and when encoded, so untrusted
// bytes cannot overflow the stack. On query_scan this took allocation per
// transaction from 108.9 KB to 86.9 KB, with no stored byte changed.
//
// Decoding an index entry (§7): an index.Entry is a view of the scanned pair —
// the entry key past the index subspace, where its primary key starts, and the
// covering value bytes — found by walking element lengths, and Key, PrimaryKey
// and Value decode on demand. The walk checks every element of the key and of
// the value, so an entry that does not unpack fails at the same row it always
// did. Merges and Distinct compare and remember the entries' packed primary
// keys (the tuple encoding is canonical and order-preserving, so byte order is
// tuple order), the fetch builds each record range from the packed primary key
// in one buffer and decodes the primary key once, from the record's own key,
// and a merge child's peeked head lives in the child's state, not on the heap.
// On query_scan this took allocation per transaction from 75.8 KB to 68.9 KB,
// with no stored or continuation byte changed.
//
// # Asynchrony and the latency model
//
// The FDB client is asynchronous at its core: every read returns a future,
// and the layer's performance story (§8) is issuing many reads before
// awaiting any, so K outstanding reads cost one network round trip rather
// than K. The simulator reproduces that contract. Transaction.GetAsync and
// GetRangeAsync (plus Snapshot variants) resolve their data at issue time —
// the MVCC snapshot is fixed, so the answer is already determined — and
// defer only the simulated I/O wait to Future.Get. With a latency model
// configured (fdb.Options.Latency: a per-read base cost plus a per-KB
// transfer cost), each read completes one read-cost after it was issued;
// futures issued back-to-back therefore share a window, while
// issue-await-issue-await loops pay one window per read. Latency.Virtual
// runs the latency clock as a deterministic in-process virtual clock (awaits
// jump it forward instead of sleeping), so tests assert exact window
// arithmetic; TxnStats.SimWaitNanos and InFlightHighWater make the achieved
// overlap observable. The default model is zero cost: reads resolve
// instantly and nothing is tracked.
//
// The layer exploits the futures end-to-end: a read path waits one window per
// step of its dependency chain — reads that do not need each other's answers
// are issued together — and the few that still wait longer are named where
// their price is given ("What a RANK or TEXT index costs").
// Index-scan record fetches are issued ahead of the consumer on a single
// goroutine (cursor.MapAsync — no worker goroutines, so depth 8 costs the
// same as depth 1 when reads are instant): for every entry already read, and
// PipelineDepth of them past that.
// Range scans prefetch their next batch while the current one drains
// (kvcursor read-ahead), unless a limit tells them how little is wanted.
//
// Index maintenance itself is two-phase: every maintainer implements
// UpdateAsync(ctx, old, new), which issues the maintenance's probe reads
// (uniqueness checks; for RANK the membership probe and one floor lookup per
// skip-list level, with nothing read before them — a missing head is what an
// empty floor means; token-bunch reads for TEXT) and returns a Pending whose
// Await resolves them and applies the writes; the synchronous Update is just
// UpdateAsync+Await. A save is therefore the old-record load plus one probe
// window shared by every maintainer of the store. The batched
// write path — Store.SaveRecords — rides that split: it issues all N
// old-record loads as concurrent futures, then collects every record's
// Pendings before awaiting any, so the entire batch's index probes share
// one latency window instead of paying one per record (the benchmark gap is
// BenchmarkIndexHeavySave loop50 vs batch50). Store.InsertRecord skips the
// old-record load entirely for caller-asserted-new rows, substituting a
// conflict-checked existence probe.
//
// Issuing a read before an earlier record's writes are applied means the
// read misses them: a future's data is fixed at issue. The two structures
// whose probes depend on their own earlier writes — the RANK skip list
// (rankedset.Async) and the TEXT bunched map (bunched.Async) — share one
// read-your-writes overlay, internal/overlay, to close that gap. All their
// writes go through it, and it remembers the latest value of each key
// written. Ops apply in issue order, so when one resolves a probe every
// earlier op has written: a point probe takes the written value if there is
// one, and a Limit-1 boundary probe yields to a live written key beyond its
// result, else keeps its own pair at its written value, and rereads only if
// that pair has since been cleared. The overlay sits on the public
// transaction API alone, so it would run unchanged on a real client.
//
// Merge plans pipeline across children the same way. Union and Intersection
// cursors implement a Prefetch protocol: before peeking any drained child,
// a merge step first re-issues the next batch fetch on every child that
// needs one, so a K-way merge pays one shared window per step rather than
// K sequential ones (BenchmarkMergeQuery). A merge of bare index scans runs on
// the scans' entries and fetches once, above itself ("What a fetch costs").
// Results stay byte-identical to the serial drain: order, halt reasons and
// continuations. A batch read ahead is counted and billed when it is issued,
// whether or not the merge consumes it (see "Resource governance").
// `go test -bench . -args -latency 100us` runs the root microbenchmarks under
// a 100µs-per-read latency model; they report simwait-ns/op next to ns/op.
//
// # What a fetch costs
//
// A query that is not covering reads index entries and then the records
// behind them, and the second read needs the first: two round trips is its
// dependency depth. Three optional cursor methods, all hints that never
// change what Next returns, keep plans at that depth: Prefetcher (above),
// Demander and Readier.
//
// With a limit. Every request in the paper's model is bounded (§3.1, §8.2),
// so a limit sizes the reads under it, not only the stream above them:
// cursor.Demander's Demand(n) says "the consumer will take at most n more
// values". cursor.Limit announces its n. Cursors that deliver one value per
// source value forward it: Map, MapAsync, the plan statistics wrappers, the
// Skip cursor (n plus the rows still to discard), the record scan (in pairs:
// 2n with version slots, plus the pair that shows the last record ended). A
// Union hands every child n + 1 — a union pulled k times pulls no child more
// than k times, and the one more keeps a consumer's look past its last row
// inside the first batch. Cursors that drop values (Filter, a filtered record
// scan, Distinct, Intersection) forward nothing — what one of their values
// costs the source is unknown — so the demand stops where it stops being
// true. At the leaf a range scan sizes its first GetRange to the demand (up
// to 4096) and reads nothing ahead until the consumer has taken more than it
// announced; a scanned-records limit is the same demand read off the Limiter
// (budget + 1: the extra value tells ScanLimitReached from SourceExhausted),
// filtered or not. MapAsync under a demand issues nothing past it, and its
// window is min(n, 128), not PipelineDepth (1 stays sequential).
//
// Without one. cursor.Readier's Ready() says "my next Next returns without
// waiting": a range scan is Ready while a pair of its last batch is buffered
// and once it has ended, Map, Filter, Limit (also once spent) and the
// statistics wrappers forward it, and a merge is Ready when every child it
// would pull has a buffered head or is Ready. MapAsync keeps issuing while
// its source is Ready, up to 128 in flight — the cap a demand already had —
// because a fetch for an entry that has been read is not a guess about what
// the index holds. PipelineDepth bounds what it always claimed to bound,
// speculation: with the source not Ready, a fetch pipeline pulls it (and may
// wait for its next batch) only while fewer than PipelineDepth fetches are
// outstanding. Depth 1 issues and awaits one at a time whatever is in hand.
//
// Merging on entries. An index entry carries its record's primary key, so a
// union, an intersection, an unordered union and a Distinct whose children are
// all bare index scans merge (or de-duplicate) index.Entry streams on that key,
// still packed, and fetch once, above the merge: every child's range is read in the first
// window, the survivors' records in the next, and nothing is fetched that the
// merge drops. The plan tree, plan strings and continuations are the same
// bytes as when each child fetched for itself (a child's slot is its scan's
// last key either way). A child under a residual filter needs its record to
// decide what it emits, so a merge with such a child still fetches under the
// merge, one pipeline per child; so does a Distinct above an intersection.
// Under a scanned-records limit the entry merge charges an entry when the
// merge pulls it, at every depth, where per-child pipelines at depth > 1 spent
// the shared budget up to depth-1 entries ahead of the merge.
//
// With a pair and a version slot per record, and no residual filter:
//
//	RowLimit n over an index scan:     n entries + 2n pairs, GRV + 2 windows
//	RowLimit n, Skip k:                the same with n+k
//	ScanRecordLimit r, full scan:      2(r+1)+1 pairs, GRV + 1 window
//	RowLimit n over a union of scans:  n+1 entries a child + 2n pairs, GRV + 2
//	index scan of e entries, no limit: e + 2e, GRV + 1 + ⌈e/128⌉ (+1 when a
//	                                   later batch arrives mid-window)
//	union of scans, e entries, u rows: e + 2u, GRV + 1 + ⌈u/128⌉
//	intersection, e entries, i rows:   e + 2i, GRV + 1 + ⌈i/128⌉
//	Distinct over a fan-out scan:      e + 2 per distinct record, as the union
//	fetch over cursor.Limit(entries, n): n + 2n, GRV + 2
//
// A record that a full scan's type check or residual filter rejects costs its
// pairs and one walk that checks its wire bytes as decoding would, decoding
// only the fields the filter reads: it is never built.
//
// The trade. A consumer that abandons an unlimited stream early, or a RowLimit
// above a residual filter (which stops the demand), may have fetched up to 127
// records past the last one delivered where PipelineDepth 8 alone stopped at
// 7: RowLimit 25 above a filter that passes the 51st to 75th of 130 entries
// reads 386 keys in GRV + 2 windows, was 294 in GRV + 11. The index scan under
// it already read all 130 entries in one batch on the same reasoning, and a
// caller who wants fewer says so with a limit that reaches the scan. Fewer
// keys read is also a narrower read-conflict range and a smaller tenant bill.
// Byte and time limits size nothing, nor does a RowLimit above a residual
// filter; above an intersection it sizes the fetches and not the scans.
// TestLimitCostsExactWindows and TestFetchCostsExactWindows pin the prices.
//
// # What Open costs and what validates it
//
// "Billions of independent databases" opened per request by stateless
// servers (§1, §5) makes the price of opening a store the price of
// multi-tenancy. StoreProvider.Open needs two facts before the request's own
// read can be issued — the integer an interned directory name maps to, and
// the store's header and index states — and the second key is built from the
// first, so fetched naively they are two serial round trips on top of the
// GRV. Both are cached, each under the one rule that makes its cache safe,
// and a warm Open costs the GRV round trip and nothing else.
//
// Interned directory names (internal/directory): a name -> id mapping is
// immutable once committed — the layer has no remove and no rename — so a
// cached mapping never needs validating. The one rule is never to cache an
// uncommitted mapping: a transaction sees its own Intern, which may never
// commit. A mapping read by a transaction that had buffered no mutation
// (fdb.Transaction.HasMutations) is cached at once; one that a transaction
// allocated, or read after writing, is cached when that transaction commits
// (fdb.Transaction.OnCommit), and never after a conflict or a
// commit_unknown_result. Its serializable read of the name key is what makes
// the commit decide.
//
// Store state (core.StateCache, one per StoreProvider): a store's header and
// its non-readable index states, loaded in one window (header read ∥ one
// range read over the state subspace) and kept per (database, store prefix).
// It is validated by FoundationDB's metadata version (FDB >= 6.1's
// \xff/metadataVersion key), which the proxies send with every GRV reply:
// tr.MetadataVersion() is the commit version of the newest transaction at or
// below the read version that called tr.BumpMetadataVersion(), and costs no
// read window and no key. An entry loaded at read version V serves a
// transaction at read version R iff
//
//	lastBump(R) <= V <= R
//
// Each half, and the two rules about who may fill the cache:
//
//   - lastBump(R) <= V: no state writer committed in (V, R]. Every writer of
//     store state bumps, unconditionally — cache or no cache in its own
//     process, because it cannot see the other servers' caches: header
//     overwrite (a metadata upgrade at Open, SetUserVersion), every index
//     state change (MarkIndex*, the online indexer), clearIndexData,
//     DeleteAllRecords, and DeleteStore / StoreProvider.Delete. The bump
//     applies atomically with the commit, so commit_unknown_result needs no
//     special case.
//   - V <= R: a transaction pinned to an older snapshot (SetReadVersion)
//     knows only of bumps up to R; an entry from its future may describe a
//     state that did not exist yet. It neither uses nor replaces the entry.
//   - First creation of a store does not bump. The cache holds no "does not
//     exist" entries, so creating a store makes nothing stale — and creating
//     20 000 tenants does not invalidate every server's cache 20 000 times.
//   - Who fills the cache: a clean reader (no mutation buffered) at its read
//     version R, or any transaction that commits without bumping, at its
//     commit version, with the state it read or — as the creator of the
//     store — wrote. An unbumped commit changed no store state, and its read
//     conflicts on header and states kept any other writer from changing it
//     first; a transaction that bumped, conflicted or ended in
//     commit_unknown_result fills nothing (fdb.Transaction.OnCommit). So a
//     new tenant's first open after its creating commit is already warm. A
//     transaction that has itself bumped bypasses the cache (its own change
//     has no version until it commits).
//
// The metadata version is cluster-wide, so one bump costs the next open of
// every store on every server one read window; state changes are rare and
// opens are not. A hit adds read conflicts on the header key and the state
// range — what the reads it skipped would have added — so a transaction that
// trusted a cached state still aborts if that state changes before it
// commits, and a server running an older schema is refused with
// ErrStaleMetaData, not served from cache, after another server upgrades the
// store. Because index states arrive with the header, Store.IndexState reads
// nothing and a save never probes them. The cost is memory: an entry is at
// most 96 bytes (all stores in the common state share one value) and a
// provider keeps at most 65 536 per database. Tenants are billed accordingly:
// a warm transaction no longer meters a header read. The counters are
// store_state_cache_{hits,misses,invalidations}_total and
// directory_cache_{hits,misses}_total.
//
// What a warm open allocates: five objects, pinned by TestWarmOpenAllocs.
// The provider packs the tenant's key prefix into a stack buffer with
// KeySpace.AppendPrefix, the one prefix encoder behind every Path's subspace
// too: it checks every level of the template, then packs each straight into
// the buffer, an interned name as the integer the directory cache maps it to,
// so no Path and no tuple is built. core copies the prefix once, with the
// records subspace's element after it, into the one buffer the store's two
// subspaces view (StateCache.OpenPrefix); the other four are the core store,
// the provider's handle, and the header key and state range, still packed per
// open for the read conflicts a hit adds. A load by primary key reads
// synchronously and allocates no future (TestLoadRecordByKeyAllocs).
//
// # What a RANK or TEXT index costs
//
// The RANK skip list (Appendix B, internal/rankedset) and the TEXT bunched
// map cost what their data dependencies force. In read windows, on top of
// the GRV, with the default six levels:
//
//	SaveRecord / SaveRecords(n), any mix of index types:  2 (load ∥…, probes ∥…)
//	DeleteRecord, k times in a loop:                      2k
//	RankOfValue, Rank:                                    2
//	ByRank, the seek of ScanByRank:                       <= 6, + 1 per batch ended short
//	TextSearchAll / TextSearchPhrase of k tokens:         1
//
// Rank-of: the descent's position on level l is the floor of the key there,
// and key order finds a floor without the levels above, so the five floors
// (a reverse Limit-1 read per level >= 1) go out together; the members passed
// on level l are then the counts in [floor(l+1), floor(l)) — on level 0 in
// [floor(1), key) — and those six ranges go out together. Two reads depend on
// each other, so two windows, and the pairs fetched are exactly those of a
// level-by-level descent (each floor is the last pair of that level's scan).
// Select-by-rank has a real chain, one link per level: it reads each level
// forward from the finger the level above chose and stops at the finger that
// covers the rank — or answers "no such rank" as soon as a level's last
// finger is passed. That finger is among the next rank-passed+2 entries
// (each one passed holds at least one member, a head possibly none), so a
// read never asks for more; above level 0 it asks for at most 32 at a time
// (twice the fan-out of 16) and continues only if the batch ends short.
// A text search issues every token's range scan before awaiting any.
//
// A TEXT save rewrites only the postings that changed: the old and new texts'
// tokens, each list in byte order, are walked together, and a token at the
// same offsets in both is left alone, as VALUE and RANK leave an unchanged
// entry (§6). An update whose text is unchanged — only the score moved, say
// — reads and writes nothing in the TEXT index; one that changes a word pays
// for that word and for every token whose offsets it shifts. Each changed
// token costs two boundary reads (one for a delete) and a bunch rewrite, all
// issued in the save's one probe window.
//
// Nothing initialises a skip list. A level's head is its smallest key, so an
// inclusive floor probe that comes back empty can only mean the head is
// missing; the insert that finds it so creates it, in the same apply step
// that then counts itself on it, and a read takes a headless level as empty.
// The head is created with an atomic ADD of 0, not a Set: two transactions
// that both make the first write to a store's RANK index both commit (they
// conflict on nothing), and with ADD each keeps the other's count where the
// later of two blind Sets would erase the earlier one. Level 0 has no head.
// Stores written before this keep theirs and nothing reads it.
//
// The trade: above level 0 Select may read a batch of up to 32 entries where
// it used to read two keys per entry passed — fewer keys in all when fingers
// are long, more when the covering finger is the first of its batch — and
// rank-of issues 11 small reads where it issued 6: index.rank.lookup_ns
// 8.9 -> 12.6 µs of CPU against 2 ms less latency. What still waits longer
// than its chain: an insert that lands on level >= 1 (1 in 16)
// reads its finger-split sum fresh at apply time, a third window, and
// deleting k records in a loop pays 2k windows where a batched delete would
// pay 2. TestRankAndTextCostExactWindows and internal/rankedset's
// TestCountLessAndSelectMatchReference pin the prices and the equivalence.
//
// # Resource governance
//
// Bind a tenant identity to the request context and give the Runner a
// Governor. The Runner binds the tenant's meter to each attempt's transaction
// (fdb.Transaction.BindMeter), and the transaction bills it where it counts
// its TxnStats, so no layer below the Runner knows the meter exists:
//
//	acct := recordlayer.NewAccountant()
//	gov := recordlayer.NewGovernor(acct, recordlayer.GovernorOptions{TotalConcurrent: 64})
//	gov.SetLimits("tenant-7", recordlayer.TenantLimits{
//		TxnPerSecond: 100, Burst: 20, MaxConcurrent: 4, Weight: 1,
//	})
//	runner := recordlayer.NewRunner(db, recordlayer.RunnerOptions{Governor: gov})
//
//	ctx = recordlayer.WithTenant(ctx, "tenant-7")
//	_, err := runner.Run(ctx, work) // admission, then metered execution
//
// A tenant over its token-bucket quotas fails fast with a typed
// *QuotaExceededError; the recommended backoff is to wait its RetryAfter
// (with jitter) before retrying:
//
//	var qe *recordlayer.QuotaExceededError
//	if errors.As(err, &qe) {
//		time.Sleep(qe.RetryAfter)
//		// retry
//	}
//
// Two buckets exist per tenant. TxnPerSecond/Burst bounds admissions;
// BytesPerSecond/ByteBurst bounds the bytes the tenant actually reads and
// writes: every byte billed to the tenant's meter also debits the byte
// bucket, mid-transaction and post-hoc, so a transaction can overdraw the
// bucket into debt and further admissions are rejected until refill clears
// it. The error's Resource field names the drained bucket.
//
// Billing is what the cluster serves, when it is issued:
//
//   - A Get, or one GetRange batch, bills the keys and bytes the snapshot
//     served it (TxnStats.KeysRead/BytesRead). A read the transaction's own
//     buffered writes answer is free; a point read that finds nothing bills
//     its key.
//   - A batch read ahead is billed when it is issued, consumed or not.
//   - Writes are the issued mutations (TxnStats.Mutations/Size): a set bills
//     its key and value, an atomic op its key and parameter, and a clear or
//     range clear is one mutation of len(begin)+len(end) bytes. An update of
//     an unsplit record bills no clear, since its set and version slot
//     overwrite both of its keys; a delete of one bills two point clears (one
//     without a version slot). Saving over or deleting a split record bills
//     one range clear. Every attempt bills, committed or not. KeysWritten is
//     not used: it skips clears and aborted attempts.
//   - Directory reads made inside StoreProvider.Open bill the tenant that
//     caused them.
//
// A tenant's usage is therefore the sum of the TxnStats of every attempt run
// for it (TestMeterEqualsTransactionStats). One consequence: SaveRecords
// bills more reads than a SaveRecord loop, because its batched probes read
// the snapshot where the loop reads its own buffer; the writes are the same.
//
// A tenant over its concurrency ceiling (or a full cluster) waits instead:
// queued admissions are granted weighted-fairly — lowest in-flight share
// relative to TenantLimits.Weight first — so a hot tenant cannot starve the
// rest. Admissions carry a priority class (WithPriority): background work
// is granted only capacity no foreground waiter wants, and a background
// admission over quota waits out RetryAfter instead of failing. Background
// work is admitted by the same door as foreground work: an online index
// build or a scrub takes an fdb.Door, and handed a Runner under WithTenant
// and WithPriority(PriorityBackground) each of its batches is admitted
// behind queued foreground work, billed to the tenant, traced and
// retry-counted (TestBackgroundWorkThroughRunner).
//
// Quotas persist in the database rather than in any process: write them
// through NewLimitsStore(db) (or `rl tenants set-limits`), and every
// server's Governor applies the shared table via LoadLimits, or through a
// QuotaLeaseManager, whose heartbeat reloads it. Per-tenant in-memory state
// is bounded: GovernorOptions.IdleTTL (and Accountant.EvictIdle) evict
// long-idle tenants whose buckets have refilled, so a server tracking
// millions of tenants does not grow without bound — and eviction never
// forgets a drained quota.
//
// Operators read usage with Accountant.Snapshot (see `rl tenants`) or the
// copy-free ForEach. A StoreProvider with ProviderOptions.Accountant bills a
// transaction that reaches Open or Delete with no meter bound to the tenant
// key of the path it opens (resource.TenantKey: the path's values joined by
// "/", each with its own "/" and "\" escaped, so two paths never share a
// meter); a transaction keeps the first meter bound to it, and one that has
// a meter creates none for the path.
// The noisy-neighbor experiment (cmd/experiments -run nn; -short is the CI
// smoke gate) measures the isolation all of this buys.
//
// # Distributed governance and metering export
//
// A shared limits table alone still over-grants: every server refills the
// full TxnPerSecond for itself, so a tenant spraying N servers gets N× its
// budget. Quota leases close that gap. Each server runs a QuotaLeaseManager
// whose heartbeat claims a time-bounded slice of every rate-limited tenant's
// global budget as a lease row in the reserved keyspace
// ("/__system__/limits/leases", keyed tenant then server):
//
//	mgr := recordlayer.NewQuotaLeaseManager(gov, db, recordlayer.QuotaLeaseOptions{
//		Server: hostID, TTL: 10 * time.Second,
//	})
//	go mgr.Run(ctx, 2*time.Second) // reload limits + renew leases; Close releases
//
// The lease lifecycle: a claim reads the tenant's whole lease range in one
// serializable transaction (so concurrent claimers conflict rather than
// double-grant), reclaims any row whose TTL has lapsed — a crashed server's
// slice returns to the pool within one TTL, no coordinator involved — and
// writes its own row with a fresh expiry. The governor's bucket then refills
// from the held slice, not the global rate, and a heartbeat renewal never
// refreshes a drained bucket's balance.
//
// The rebalance policy is demand-proportional: each row publishes the demand
// its server measured over the last window (admission attempts per second;
// quota rejections bid for double the current slice so a throttled server
// grows multiplicatively). A claim targets global×own/(own+peers), split
// equally when nobody reports demand, floored at 5% of the global rate so an
// idle server can serve its first request without a round trip, and capped
// at whatever the live peers have not claimed — the slice sum never exceeds
// the global budget, so the cluster-wide grant stays single. Hot servers
// converge toward the whole budget in a few heartbeats; idle slices decay to
// the floor and return to the pool.
//
// The export side turns the Accountant into billing-grade records. A
// UsageExporter (NewUsageExporter) periodically writes each tenant's
// consumption delta since the last export as a versionstamped row in the
// reserved metering directory ("/__system__/metering", keyed tenant then
// commit versionstamp, so windows from any number of servers interleave
// without coordination). MeteringStore.Report aggregates the windows into
// per-tenant totals plus a cross-tenant sum, and `rl usage` prints that
// report: one row per tenant — transactions, reads, read bytes/records,
// writes, write bytes/records, conflicts, throttles — then the cross-tenant
// TOTAL row, i.e. the MTBase-style aggregation query over all tenants'
// metering data. The distributed noisy-neighbor phase (cmd/experiments -run
// nn) runs three lease-coordinated governors against one aggressor and
// asserts it stays within ~1.1× its global cap while the exported windows
// reconcile exactly with the live accountants.
//
// # Observability
//
// Every layer is instrumented through internal/obs, and everything is off
// until asked for — each hot path pays exactly one nil check when no sink is
// installed (the rl-vet obsguard analyzer enforces the check).
//
// Traces: attach a Trace to the context and every transaction the Runner
// executes under it records spans — admission queueing (runner.admit), each
// attempt and backoff, GRV, every read split into its issue window (fdb.read)
// and the await that actually blocked (fdb.await), per-index maintenance
// (index.<name>), and the commit. Spans are priced by the same clock as the
// latency model — the virtual clock when Latency.Virtual is on — so tests
// assert span arithmetic exactly: a depth-8 pipelined fetch traces as eight
// fdb.read spans sharing one issue window resolved by a single fdb.await.
//
//	trace := recordlayer.NewTrace()
//	ctx = recordlayer.WithTrace(ctx, trace)
//	_, _ = runner.ReadRun(ctx, work)
//	fmt.Println(trace.Summary()) // fdb.read=9×100µs fdb.grv=1×0s ...
//
// Query execution stats: Store.ExplainQuery is EXPLAIN ANALYZE — it executes
// the plan to exhaustion (following its own continuations page by page) and
// renders the plan tree annotated per node with pages, rows in/out, simulator
// reads/bytes, and simulated wait, plus the transaction-level totals. The
// covering-vs-fetch gap is visible as exactly 100 vs 300 leaf reads on the
// benchmark query. A StoreProvider with ProviderOptions.SlowQueries installed
// logs any execution over its ExecuteProperties.SlowQueryThreshold — plan
// string, elapsed, rows, halt reason, and the trace summary when one is
// attached — into a bounded ring (`NewSlowQueryLog`), and feeds a latency
// histogram either way.
//
// Metrics: a pull-based MetricsRegistry renders Prometheus text exposition.
// RegisterDatabaseMetrics, RegisterRunnerMetrics, RegisterGovernorMetrics,
// RegisterAccountantMetrics, and StoreProvider.RegisterMetrics cover the
// simulator's I/O counters, the retry loop, admission/quota decisions and
// lease slices, per-tenant consumption, and the plan cache
// (hits/misses/evictions/size, with per-entry hit counts via
// PlanCacheEntries and `rl plans`). Collectors read the live sources at
// scrape time, so a scrape at rest reconciles exactly with
// Accountant.Snapshot. `rl metrics` runs a governed workload and dumps the
// full exposition.
//
// # Fault injection and recovery
//
// The simulator deals its own failures, FoundationDB-simulation style
// (§2.1): give fdb.Options.Faults a seeded FaultInjector and it injects
// not_committed conflicts at commit, transaction_too_old and future_version
// mid-scan, latency spikes (when a latency model is on), and — the
// interesting one — commit_unknown_result (1021), where the commit genuinely
// may or may not have applied; the injector decides durably either way and
// reports only ambiguity. The schedule is a pure function of the seed and
// the operation sequence, so any failure replays exactly. Off means off:
// with no injector configured, no fault path executes and the hot paths pay
// one nil check.
//
// Error semantics split three ways, and the façade exposes the split:
// IsRetryable errors (conflicts, stale reads, timeouts) guarantee nothing
// was committed, so the Runner retries them blindly. IsMaybeCommitted errors
// guarantee nothing — blind retry could apply a write twice — so plain Run
// surfaces them after the failing attempt as a typed *MaybeCommittedError.
// Ambiguity is sticky: once any attempt ends maybe-committed, every later
// terminal outcome (retry exhaustion, an application error) still reports
// MaybeCommittedError, because a clean failure on attempt 3 cannot un-apply
// attempt 1's possible commit. Callers whose closures converge under
// re-execution — blind constant writes, progress-keyed batches,
// compare-and-repair — opt into retrying ambiguity call by call with
// RunIdempotent; the rl-vet `idempotent` analyzer makes every such call
// carry a written reason. No runner-wide switch makes that promise for
// every closure, since a call site is the only place the analyzer audits. Runner.Metrics breaks retries
// and failures down by cause (conflict, too_old, future_version, timeout,
// quota, maybe_committed), and the metrics registry exports the same labels.
//
// One loop, fdb.Database.Retry, owns all of this: the attempt limit, the
// retryable/maybe-committed split, the idempotency promise, sticky
// ambiguity, the backoff, the context checks and one fdb Metrics.Retries per
// retry. Work enters it through an fdb.Door — Run, RunIdempotent or ReadRun
// — and two types are doors: the Runner, and *fdb.Database itself, which
// binds the trace its ctx carries to each attempt but admits and bills
// nothing. The online indexer and the scrubber take either; the leases,
// limits and metering stores still call Database.Transact/ReadTransact, the
// context-free wrappers. Every caller gets the same *RetryLimitError and
// *MaybeCommittedError. Only the two policies differ, and both are constants
// in internal/fdb: the database retries 100 times (101 attempts) with a
// backoff doubling from 1 ms to 64 ms, unjittered, through fdb.Options.Sleep;
// the Runner makes RunnerOptions.MaxAttempts (10) attempts with a backoff
// doubling from 2 ms to 250 ms, half-jittered by RunnerOptions.Rand, through
// RunnerOptions.Sleep. The Runner adds only what is the façade's: admission,
// the meter and trace bound to each attempt, the attempt and backoff spans,
// and RunnerMetrics by cause.
//
// The recovery paths are built to survive exactly these faults: the
// OnlineIndexer's batches are progress-keyed so a maybe-committed batch
// re-runs into convergence, and a QuotaLeaseManager whose heartbeat ends
// maybe-committed drops the tenant to the floor slice immediately — the
// lease row may hold a different grant than the one it remembers, and
// enforcing a stale larger slice would over-grant the cluster.
//
// Scrubber is the §6-style defense in depth behind all of it: an index
// consistency check that rebuilds. Each batch runs the index's own
// maintainer over records into a scratch database that never commits, and
// the rules of the index type, beside its maintainer in internal/index,
// compare the rebuild with the live index in both directions: VALUE and
// VERSION entry by entry, covering values included; RANK's value entries as
// VALUE's, then its skip list, whose fingers are recounted from the level
// below; TEXT posting by posting, never by bunch; COUNT, COUNT_NON_NULL and
// SUM group by group, the totals rebuilt over a pass pinned to one read
// version. COUNT_UPDATES, MAX_EVER and MIN_EVER count past writes, which no
// stored state records, and are refused. The online build, the inline
// rebuild and the scrub share one loop that runs records through a
// maintainer, so what the scrubber expects is exactly what a build writes.
// Batches are bounded, snapshot-read and resumed by continuation, with a
// Repair mode (`rl scrub` demonstrates corruption, detection and repair of
// VALUE, RANK and TEXT indexes). One seeded workload checks all of it under
// faults: TestStoreAgreesWithModel runs the histories of internal/history
// against a store and against a model, and its odd seeds deal the chaos mix
// of injected conflicts, unknown commits and stale and future reads, with
// every third write given a single attempt. An unknown commit forks the
// model into the side that applied it and the side that did not; an op that
// failed cleanly is skipped by every side. After either, a read-back of the
// op's tenants with faults off must match a side, so a lost acknowledged
// write fails the next answer and a ghost write the read-back. A
// non-idempotent Increment keeps a counter exact through unknown commits,
// Scrub ops predict every index's issue counts, and tenant confinement is
// checked after every op. Planted doors that lose writes, write ghosts or
// re-run an applied Increment each fail it. The chaos gate (cmd/experiments
// -run chaos; -short replays three pinned seeds in CI) keeps what the model
// cannot see: lease slices within the decay bound through failed
// heartbeats, and a warm store-state cache that never outlives its state.
//
// The implementation lives under internal/: the FoundationDB simulator
// (internal/fdb), the tuple, subspace, directory and keyspace layers, a
// dynamic protobuf (internal/message), schema management
// (internal/metadata), key expressions (internal/keyexpr), index maintainers
// (internal/index), the record store itself (internal/core), query planning
// (internal/query, internal/plan), resource governance (internal/resource),
// tracing/metrics/query-stats plumbing (internal/obs),
// the CloudKit layer (internal/cloudkit) and the Cassandra baseline
// (internal/cassandra).
//
// # Invariants
//
// The conventions the layers depend on are mechanically enforced, not just
// documented: closures passed to Runner.Run/Database.Transact must be safe to
// re-execute on conflict retry, every GetAsync/GetRangeAsync future must be
// awaited on all paths, library code must thread the caller's context and
// injected clock rather than reaching for context.Background or time.Now,
// reads in the record-store and index layers must flow through the tenant
// meter, obs recording calls must hide behind a nil check so observability-off
// costs one pointer compare, every opt-in to retrying maybe-committed commits
// must carry a reasoned //rl:idempotent directive, and nobody may write into
// the bytes a read returned, which are the database's own. cmd/rl-vet (a
// stdlib-only go/analysis-style suite in internal/lint) checks all eight
// invariants over the whole tree in CI; LINTING.md documents each analyzer,
// its fixture, and the reasoned //lint:allow audit trail.
//
// The root bench_test.go regenerates each of the paper's tables and figures
// as a Go benchmark; cmd/experiments prints them in the paper's format. The
// repository's benchmark is BENCHMARK.json with the bench/ module.
package recordlayer
