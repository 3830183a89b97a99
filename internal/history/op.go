package history

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
)

// Kind is what an op does.
type Kind int

// The op vocabulary. Every op but Race, Build, Scrub and Interleave runs in
// one transaction.
const (
	OpenTwice      Kind = iota // open twice in one read-only transaction, describe
	Save                       // SaveRecord
	SaveBatch                  // SaveRecords
	Insert                     // InsertRecord
	DeleteRecord               // DeleteRecord of 1–3 primary keys, one call each
	DeleteAll                  // DeleteAllRecords
	QueryPage                  // one page of a paged ExecuteQuery
	RankReads                  // RankOfValue, ByRank, ScanByRank
	TextReads                  // TextSearchToken, Prefix, All, Phrase
	Aggregate                  // AggregateInt64 of the SUM and the COUNT
	ScanVersions               // ScanIndex of the VERSION index
	MarkIndex                  // MarkIndexWriteOnly, Readable or Disabled
	SetUserVersion             // SetUserVersion
	DeleteStore                // StoreProvider.Delete, maybe reopened in the same transaction
	PinnedRead                 // describe at the read version of an earlier op
	OpenSeveral                // open several tenants in one transaction, describe and save each
	OpenAndChange              // open, change state, reopen and describe in one transaction
	Race                       // two servers create one new tenant at once
	Upgrade                    // the fleet's switch to schema version 2: the first v2 open
	Build                      // OnlineIndexer build of by_n through the door
	Scrub                      // Scrubber of every readable index through the door, maybe repairing
	Increment                  // load a record and save it with n+1: not idempotent
	Interleave                 // 2–3 one-transaction ops at one read version, committed in Order
	NumKinds
)

var kindNames = [NumKinds]string{"open twice", "save", "save batch", "insert", "delete record", "delete all",
	"query page", "rank reads", "text reads", "aggregate", "scan versions", "mark index", "set user version",
	"delete store", "pinned read", "open several", "open and change", "race", "upgrade", "build", "scrub",
	"increment", "interleave"}

func (k Kind) String() string { return kindNames[k] }

// Writes reports whether the op commits (runs through Run, not ReadRun).
func (k Kind) Writes() bool {
	switch k {
	case OpenTwice, QueryPage, RankReads, TextReads, Aggregate, ScanVersions, PinnedRead:
		return false
	}
	return true
}

// Tenant names one store: a container (an interned directory) and a user.
type Tenant struct {
	Container string
	User      int64
}

// NeverInterned is a container name no op ever opens: deleting a store under
// it must not intern it.
const NeverInterned = "never-interned"

// Containers are the interned containers of every history; a test interns
// them up front, in this order.
var Containers = []string{"c0", "c1"}

// Op is one operation as data: its kind and arguments. Both the store
// interpreter and Model read it.
type Op struct {
	Kind    Kind
	Version int // schema version of the server that runs it
	Server  int // which of two warm servers runs it
	Tenant  Tenant
	Docs    []Doc    // Save, SaveBatch, Insert; one per target of OpenSeveral; Race's four
	Targets []Tenant // OpenSeveral: the first is Tenant
	PK      int64    // Increment
	PKs     []int64  // DeleteRecord: deleted in one transaction, one call each
	Index   string   // MarkIndex, OpenAndChange
	Mark    int      // MarkIndex: 0 write-only, 1 readable, 2 disabled; OpenAndChange: 0 user version, 1 write-only, 2 disabled, 3 delete
	Value   int      // SetUserVersion, OpenAndChange's user version
	Reopen  bool     // DeleteStore
	PinBack int      // PinnedRead: ops back
	Query   QuerySpec
	Score   int64     // RankReads: RankOfValue's score
	Rank    int64     // RankReads: ByRank's and ScanByRank's rank
	Words   [2]string // TextReads
	Group   string    // Aggregate: the COUNT's tag
	Repair  bool      // Scrub: repair, then scrub again
	// StopAfter, when positive, cancels a Build's context once its first
	// transaction and StopAfter batches have committed: the build stops with
	// by_n write-only and its progress stored, and a later Build resumes it.
	StopAfter int
	// Ops are an Interleave's sub-ops: each runs in its own transaction, all
	// at one read version, every body in turn, then every commit in Order (a
	// permutation of the sub-ops' indexes).
	Ops   []Op
	Order []int
}

func (o Op) String() string {
	type plain Op // without this method
	return fmt.Sprintf("%+v", plain(o))
}

// Tenants lists the stores the op touches: an Interleave's are its sub-ops',
// each once.
func (o Op) Tenants() []Tenant {
	switch o.Kind {
	case OpenSeveral:
		return o.Targets
	case Interleave:
		var out []Tenant
		for _, sub := range o.Ops {
			for _, t := range sub.Tenants() {
				if !slices.Contains(out, t) {
					out = append(out, t)
				}
			}
		}
		return out
	}
	return []Tenant{o.Tenant}
}

var (
	tags   = []string{"blue", "green", "red"}
	kinds  = []string{"x", "y"}
	labels = []string{"art", "eng", "go"}
	words  = []string{"ahab", "boat", "call", "dick", "east", "fish"}
)

const ids = 12 // primary keys 0..11

// MaxPinBack is the furthest back, in ops, a PinnedRead reads.
const MaxPinBack = 6

// Generate returns n ops drawn from seed. It is a function of the seed alone,
// and a shorter history is a prefix of a longer one.
func Generate(seed int64, n int) []Op { return GenerateFrom(rand.NewSource(seed), n) }

// GenerateFrom returns n ops drawn from src, as Generate draws them from a
// seed's source.
func GenerateFrom(src rand.Source, n int) []Op {
	g := &gen{rng: rand.New(src), queries: map[Tenant]QuerySpec{}}
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = g.next(i)
	}
	return ops
}

// BytesSource is a rand.Source that takes each draw from the next two bytes
// of data and, once fewer are left, from seed: a fuzzer's input steers a
// history, and every input draws a whole one.
func BytesSource(data []byte, seed int64) rand.Source {
	return &bytesSource{data: data, rest: rand.NewSource(seed)}
}

type bytesSource struct {
	data []byte
	rest rand.Source
}

// Int63 spreads two bytes over 63 bits with a multiplicative hash: the high
// bits rand.Rand's Intn reads depend on both.
func (s *bytesSource) Int63() int64 {
	if len(s.data) < 2 {
		return s.rest.Int63()
	}
	v := uint64(binary.LittleEndian.Uint16(s.data)) * 0x9E3779B97F4A7C15
	s.data = s.data[2:]
	return int64(v >> 1)
}

func (s *bytesSource) Seed(seed int64) { s.data, s.rest = nil, rand.NewSource(seed) }

type gen struct {
	rng      *rand.Rand
	upgraded bool
	queries  map[Tenant]QuerySpec // each tenant's paged query
	stopped  []Tenant             // the tenants of stopped builds
}

func (g *gen) doc() Doc {
	r := g.rng
	d := Doc{ID: int64(r.Intn(ids)), Tag: tags[r.Intn(len(tags))], Kind: kinds[r.Intn(len(kinds))],
		Level: int64(r.Intn(6)), Score: int64(r.Intn(50)), N: int64(r.Intn(50))}
	for i := r.Intn(3); i > 0; i-- {
		d.Labels = append(d.Labels, labels[r.Intn(len(labels))])
	}
	// A slug is its record's own, except one time in eight: then it may be
	// another record's, and the save may violate uniqueness.
	d.Slug = fmt.Sprintf("s%d", d.ID)
	if r.Intn(8) == 0 {
		d.Slug = fmt.Sprintf("s%d", r.Intn(ids))
	}
	for i := r.Intn(4); i >= 0; i-- {
		d.Body += words[r.Intn(len(words))] + " "
	}
	return d
}

func (g *gen) tenant() Tenant {
	return Tenant{Containers[g.rng.Intn(len(Containers))], int64(g.rng.Intn(4))}
}

func (g *gen) indexName(version int) string {
	ixs := Schema(version).Indexes()
	return ixs[g.rng.Intn(len(ixs))].Name
}

func (g *gen) next(i int) Op {
	r := g.rng
	if !g.upgraded && i > 3 && r.Intn(20) == 0 {
		g.upgraded = true
		return Op{Kind: Upgrade, Version: 2, Server: r.Intn(2), Tenant: g.tenant()}
	}
	if r.Intn(8) == 0 {
		return g.interleave()
	}
	op := g.request()
	op.Kind = g.kind(r.Intn(125))
	g.args(&op)
	return op
}

// request draws who sends an op: its server, its tenant and its schema
// version.
func (g *gen) request() Op {
	r := g.rng
	op := Op{Version: 1, Server: r.Intn(2), Tenant: g.tenant()}
	if g.upgraded && r.Intn(5) > 0 {
		op.Version = 2 // one in five requests still comes from a server on the old schema
	}
	return op
}

// interleave draws 2–3 sub-ops, all on one tenant three times in four, each
// from its own request, and the order they commit in.
func (g *gen) interleave() Op {
	r := g.rng
	op := Op{Kind: Interleave}
	t, shared := g.tenant(), r.Intn(4) > 0
	for j := r.Intn(2) + 2; j > 0; j-- {
		sub := g.request()
		if shared {
			sub.Tenant = t
		}
		for sub.Kind = g.kind(r.Intn(125)); slices.Contains(solo, sub.Kind); sub.Kind = g.kind(r.Intn(125)) {
		}
		g.args(&sub)
		op.Ops = append(op.Ops, sub)
	}
	op.Order = r.Perm(len(op.Ops))
	op.Version, op.Server, op.Tenant = op.Ops[0].Version, op.Ops[0].Server, op.Ops[0].Tenant
	return op
}

// solo are the kinds an Interleave never holds: those that run more than one
// transaction, carry client state between ops or are drawn only once.
var solo = []Kind{QueryPage, PinnedRead, Upgrade, Race, Build, Scrub, Interleave}

// mix is the op mix: a draw of 125 below mix[i].below, and not below the
// bound before it, draws mix[i].kind.
var mix = []struct {
	below int
	kind  Kind
}{{8, OpenTwice}, {22, Save}, {30, SaveBatch}, {35, Insert}, {41, DeleteRecord}, {43, DeleteAll}, {63, QueryPage},
	{69, RankReads}, {75, TextReads}, {80, Aggregate}, {84, ScanVersions}, {92, MarkIndex}, {95, SetUserVersion},
	{99, DeleteStore}, {105, PinnedRead}, {110, OpenSeveral}, {116, OpenAndChange}, {118, Race}, {120, Build},
	{122, Scrub}, {125, Increment}}

// kind maps a draw of 125 to an op kind; a Build before the upgrade is a Race.
func (g *gen) kind(k int) Kind {
	i := 0
	for mix[i].below <= k {
		i++
	}
	if mix[i].kind == Build && !g.upgraded {
		return Race
	}
	return mix[i].kind
}

// args draws the arguments of an op of its kind.
func (g *gen) args(op *Op) {
	r := g.rng
	switch op.Kind {
	case Save, Insert:
		op.Docs = []Doc{g.doc()}
	case SaveBatch:
		for j := r.Intn(4) + 1; j > 0; j-- {
			op.Docs = append(op.Docs, g.doc())
		}
	case DeleteRecord:
		for j := r.Intn(3) + 1; j > 0; j-- {
			op.PKs = append(op.PKs, int64(r.Intn(ids)))
		}
	case QueryPage:
		q, ok := g.queries[op.Tenant]
		if !ok || r.Intn(3) == 0 {
			q = QuerySpec{Shape: Shape(r.Intn(NumShapes)), A: tags[r.Intn(len(tags))], B: labels[r.Intn(len(labels))],
				K: kinds[r.Intn(len(kinds))], L: int64(r.Intn(6)), RowLimit: 1 + r.Intn(4), Snapshot: r.Intn(2) == 0,
				Version: op.Version}
			if q.Shape == 6 {
				q.B = tags[r.Intn(len(tags))]
			}
			if q.Shape == 13 {
				q.L = int64(r.Intn(50))
			}
			g.queries[op.Tenant] = q
		}
		op.Query, op.Version = q, q.Version
	case RankReads:
		op.Score, op.Rank = int64(r.Intn(50)), int64(r.Intn(8))
	case TextReads:
		op.Words = [2]string{words[r.Intn(len(words))], words[r.Intn(len(words))]}
	case Aggregate:
		op.Group = tags[r.Intn(len(tags))]
	case MarkIndex:
		op.Index, op.Mark = g.indexName(op.Version), r.Intn(3)
	case SetUserVersion:
		op.Value = r.Intn(9)
	case DeleteStore:
		op.Reopen = r.Intn(2) == 0
		if r.Intn(4) == 0 {
			op.Tenant.Container = NeverInterned
		}
	case PinnedRead:
		op.PinBack = r.Intn(MaxPinBack) + 1
	case OpenSeveral:
		op.Targets, op.Docs = []Tenant{op.Tenant}, []Doc{g.doc()}
		for j := r.Intn(2) + 1; j > 0; j-- {
			op.Targets = append(op.Targets, g.tenant())
			op.Docs = append(op.Docs, g.doc())
		}
	case OpenAndChange:
		op.Mark, op.Value, op.Index = r.Intn(4), r.Intn(9), g.indexName(op.Version)
	case Increment:
		op.PK = int64(r.Intn(ids))
	case Scrub:
		op.Repair = r.Intn(2) == 0
	case Race:
		// Two servers create one new tenant at once: the second to commit
		// conflicts. Then each saves to it again.
		op.Tenant.User = 100 + r.Int63n(1<<20)
		for j := 0; j < 4; j++ {
			op.Docs = append(op.Docs, g.doc())
		}
	case Build:
		op.Version = 2
		// One build in two goes to a tenant whose build stopped, if any, so
		// that a resume follows a stop; one in two stops after 1–3 batches.
		if len(g.stopped) > 0 && r.Intn(2) == 0 {
			op.Tenant = g.stopped[r.Intn(len(g.stopped))]
		}
		if r.Intn(2) == 0 {
			op.StopAfter = 1 + r.Intn(3)
			g.stopped = append(g.stopped, op.Tenant)
		}
	}
}
