package history

import (
	"fmt"
	"math/rand"
)

// Kind is what an op does.
type Kind int

// The op vocabulary. Every op but Race, Build and Scrub runs in one
// transaction.
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
	NumKinds
)

var kindNames = [NumKinds]string{"open twice", "save", "save batch", "insert", "delete record", "delete all",
	"query page", "rank reads", "text reads", "aggregate", "scan versions", "mark index", "set user version",
	"delete store", "pinned read", "open several", "open and change", "race", "upgrade", "build", "scrub",
	"increment"}

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
	Targets []Tenant // OpenSeveral
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
}

func (o Op) String() string {
	type plain Op // without this method
	return fmt.Sprintf("%+v", plain(o))
}

// Tenants lists the stores the op touches.
func (o Op) Tenants() []Tenant {
	if o.Kind == OpenSeveral {
		return o.Targets
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
func Generate(seed int64, n int) []Op {
	g := &gen{rng: rand.New(rand.NewSource(seed)), queries: map[Tenant]QuerySpec{}}
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = g.next(i)
	}
	return ops
}

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
	op := Op{Version: 1, Server: r.Intn(2), Tenant: g.tenant()}
	if g.upgraded && r.Intn(5) > 0 {
		op.Version = 2 // one in five requests still comes from a server on the old schema
	}
	switch k := r.Intn(125); {
	case k < 8:
		op.Kind = OpenTwice
	case k < 22:
		op.Kind, op.Docs = Save, []Doc{g.doc()}
	case k < 30:
		op.Kind = SaveBatch
		for j := r.Intn(4) + 1; j > 0; j-- {
			op.Docs = append(op.Docs, g.doc())
		}
	case k < 35:
		op.Kind, op.Docs = Insert, []Doc{g.doc()}
	case k < 41:
		op.Kind = DeleteRecord
		for j := r.Intn(3) + 1; j > 0; j-- {
			op.PKs = append(op.PKs, int64(r.Intn(ids)))
		}
	case k < 43:
		op.Kind = DeleteAll
	case k < 63:
		op.Kind = QueryPage
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
	case k < 69:
		op.Kind, op.Score, op.Rank = RankReads, int64(r.Intn(50)), int64(r.Intn(8))
	case k < 75:
		op.Kind, op.Words = TextReads, [2]string{words[r.Intn(len(words))], words[r.Intn(len(words))]}
	case k < 80:
		op.Kind, op.Group = Aggregate, tags[r.Intn(len(tags))]
	case k < 84:
		op.Kind = ScanVersions
	case k < 92:
		op.Kind, op.Index, op.Mark = MarkIndex, g.indexName(op.Version), r.Intn(3)
	case k < 95:
		op.Kind, op.Value = SetUserVersion, r.Intn(9)
	case k < 99:
		op.Kind, op.Reopen = DeleteStore, r.Intn(2) == 0
		if r.Intn(4) == 0 {
			op.Tenant.Container = NeverInterned
		}
	case k < 105:
		op.Kind, op.PinBack = PinnedRead, r.Intn(MaxPinBack)+1
	case k < 110:
		op.Kind = OpenSeveral
		for j := r.Intn(2) + 2; j > 0; j-- {
			op.Targets = append(op.Targets, g.tenant())
			op.Docs = append(op.Docs, g.doc())
		}
		op.Tenant = op.Targets[0]
	case k < 116:
		op.Kind, op.Mark, op.Value, op.Index = OpenAndChange, r.Intn(4), r.Intn(9), g.indexName(op.Version)
	case k >= 122:
		op.Kind, op.PK = Increment, int64(r.Intn(ids))
	case k >= 120:
		op.Kind, op.Repair = Scrub, r.Intn(2) == 0
	case k < 118 || !g.upgraded:
		// Two servers create one new tenant at once: the second to commit
		// conflicts. Then each saves to it again.
		op.Kind = Race
		op.Tenant.User = 100 + r.Int63n(1<<20)
		for j := 0; j < 4; j++ {
			op.Docs = append(op.Docs, g.doc())
		}
	default:
		op.Kind, op.Version = Build, 2
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
	return op
}
