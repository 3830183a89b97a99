// Package history is test support for seeded façade histories: one schema with
// an index of every type, a generator of operations as data over it, and
// Model, a map of records that answers every operation by maintaining each
// index from the records it indexes. A test runs the same ops against a real
// store and compares the two renderings op by op.
//
// The package imports only the layers below the store (message, metadata,
// keyexpr, query, tuple, text), so an internal test of any package above them
// can use it. Nothing but tests may import it (the layering analyzer).
package history

import (
	"fmt"
	"strings"

	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/query"
	"recordlayer/internal/tuple"
)

// Index names of the shared schema.
const (
	ByTag       = "by_tag"        // VALUE (tag)
	ByKindLevel = "by_kind_level" // VALUE (kind, level)
	ByLabel     = "by_label"      // VALUE fan-out over labels
	BySlug      = "by_slug"       // unique VALUE (slug)
	ByScore     = "by_score"      // RANK (score)
	BodyText    = "body_text"     // TEXT (body)
	ByVersion   = "by_version"    // VERSION
	ScoreSum    = "score_sum"     // SUM of score
	TagCount    = "tag_count"     // COUNT per tag
	ScoreMax    = "score_max"     // MAX_EVER of score
	ByN         = "by_n"          // VALUE (n), added in version 2
)

// InlineBuildLimit is the store config's inline build limit the histories
// run under: an upgrade builds by_n inline on small stores and leaves it
// disabled on fuller ones.
const InlineBuildLimit = 4

// BuildBatch is the online build's batch size in the histories: the records
// one build transaction indexes, in primary key order.
const BuildBatch = 3

// DocType is the one record type.
var DocType = message.MustDescriptor("Doc",
	message.Field("id", 1, message.TypeInt64),
	message.Field("tag", 2, message.TypeString),
	message.Field("kind", 3, message.TypeString),
	message.Field("level", 4, message.TypeInt64),
	message.RepeatedField("labels", 5, message.TypeString),
	message.Field("slug", 6, message.TypeString),
	message.Field("score", 7, message.TypeInt64),
	message.Field("body", 8, message.TypeString),
	message.Field("n", 9, message.TypeInt64),
)

var schemas = map[int]*metadata.MetaData{1: build(1), 2: build(2)}

// Schema returns the metadata of schema version 1 or 2. Version 2 adds by_n.
func Schema(version int) *metadata.MetaData { return schemas[version] }

func build(version int) *metadata.MetaData {
	b := metadata.NewBuilder(version).
		SetStoreRecordVersions(true).
		AddRecordType(DocType, keyexpr.Field("id"))
	for _, ix := range []*metadata.Index{
		{Name: ByTag, Type: metadata.IndexValue, Expression: keyexpr.Field("tag")},
		{Name: ByKindLevel, Type: metadata.IndexValue, Expression: keyexpr.Then(keyexpr.Field("kind"), keyexpr.Field("level"))},
		{Name: ByLabel, Type: metadata.IndexValue, Expression: keyexpr.FieldFan("labels", keyexpr.FanOut)},
		{Name: BySlug, Type: metadata.IndexValue, Expression: keyexpr.Field("slug"), Unique: true},
		{Name: ByScore, Type: metadata.IndexRank, Expression: keyexpr.Field("score")},
		{Name: BodyText, Type: metadata.IndexText, Expression: keyexpr.Field("body")},
		{Name: ByVersion, Type: metadata.IndexVersion, Expression: keyexpr.Version()},
		{Name: ScoreSum, Type: metadata.IndexSum, Expression: keyexpr.Ungrouped(keyexpr.Field("score"))},
		{Name: TagCount, Type: metadata.IndexCount, Expression: keyexpr.GroupBy(keyexpr.Empty(), keyexpr.Field("tag"))},
		{Name: ScoreMax, Type: metadata.IndexMaxEver, Expression: keyexpr.Ungrouped(keyexpr.Field("score"))},
	} {
		ix.AddedVersion = 1
		b.AddIndex(ix, "Doc")
	}
	if version >= 2 {
		b.AddIndex(&metadata.Index{Name: ByN, Type: metadata.IndexValue, Expression: keyexpr.Field("n"), AddedVersion: 2}, "Doc")
	}
	return b.MustBuild()
}

// Doc is one record of the schema as plain data.
type Doc struct {
	ID        int64
	Tag, Kind string
	Level     int64
	Labels    []string
	Slug      string
	Score     int64
	Body      string
	N         int64
}

// Message builds the record's message.
func (d Doc) Message() *message.Message {
	m := message.New(DocType).MustSet("id", d.ID).MustSet("tag", d.Tag).MustSet("kind", d.Kind).
		MustSet("level", d.Level).MustSet("slug", d.Slug).MustSet("score", d.Score).
		MustSet("body", d.Body).MustSet("n", d.N)
	for _, l := range d.Labels {
		m.MustAdd("labels", l)
	}
	return m
}

// Row renders one result row: the primary key, then the named fields (every
// field when fields is empty) as the message holds them.
func Row(pk tuple.Tuple, m *message.Message, fields []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v", pk)
	if len(fields) == 0 {
		for _, f := range m.Descriptor().Fields() {
			fields = append(fields, f.Name)
		}
	}
	for _, f := range fields {
		fd, _ := m.Descriptor().FieldByName(f)
		if fd.Repeated {
			fmt.Fprintf(&b, " %s=%v", f, m.GetRepeated(f))
		} else if v, ok := m.Get(f); ok {
			fmt.Fprintf(&b, " %s=%v", f, v)
		}
	}
	return b.String()
}

// Describe renders everything a client sees of an open store: the header's
// metadata and user versions, each index's state in schema order, and every
// record row in primary key order.
func Describe(metaVersion, userVersion int, states []metadata.IndexState, rows []string) string {
	return fmt.Sprintf("v%d u%d %v {%s}", metaVersion, userVersion, states, strings.Join(rows, "; "))
}

// Shape is one query shape of the plan corpus, over the Doc fields:
// name→tag, city→kind, age→level, tags→labels. Shapes 0–12 are
// TestPlanCorpus's; 13 is a range over by_n, which only version 2 indexes.
type Shape int

// NumShapes is the number of shapes.
const NumShapes = 14

var shapeNames = [NumShapes]string{"equality", "one-sided range", "two-sided range", "prefix column plus range",
	"two-way AND", "three-way AND", "OR on one index", "OR across indexes", "fan-out", "string prefix",
	"projected equality", "projected unfiltered", "unfiltered", "n range"}

func (s Shape) String() string { return shapeNames[s] }

// QuerySpec is one paged query: its shape and literals, its page size, and
// the schema version of the server that pages it. Two ops with equal specs
// page the same query, the second resuming where the first stopped.
type QuerySpec struct {
	Shape    Shape
	A, B     string // tag and label literals
	K        string // kind literal
	L        int64  // level or n literal
	RowLimit int
	Snapshot bool
	Version  int
}

// Query builds the spec's record query.
func (q QuerySpec) Query() query.RecordQuery {
	rq := query.RecordQuery{RecordTypes: []string{"Doc"}}
	tag, label, kind := query.Field("tag"), query.Field("labels").OneOfThem(), query.Field("kind")
	switch q.Shape {
	case 0:
		rq.Filter = tag.Equals(q.A)
	case 1:
		rq.Filter = tag.GreaterThan(q.A)
	case 2:
		rq.Filter = query.And(tag.GreaterOrEqual(q.A), tag.LessThan(q.B))
	case 3:
		rq.Filter = query.And(kind.Equals(q.K), query.Field("level").LessOrEqual(q.L))
	case 4:
		rq.Filter = query.And(tag.Equals(q.A), label.Equals(q.B))
	case 5:
		rq.Filter = query.And(tag.Equals(q.A), kind.Equals(q.K), query.Field("level").Equals(q.L))
	case 6:
		rq.Filter = query.Or(tag.Equals(q.A), tag.Equals(q.B))
	case 7:
		rq.Filter = query.Or(tag.Equals(q.A), kind.Equals(q.K))
	case 8:
		rq.Filter = label.Equals(q.B)
	case 9:
		rq.Filter = tag.BeginsWith(q.A[:1])
	case 10:
		rq.Filter = tag.Equals(q.A)
		rq = rq.Select("tag")
	case 11:
		rq = rq.Select("tag")
	case 13:
		rq.Filter = query.Field("n").LessThan(q.L)
	}
	return rq
}

// Fields names the fields a row of the query shows: a covering plan's
// records hold only the projected ones.
func (q QuerySpec) Fields() []string {
	if q.Shape == 10 || q.Shape == 11 {
		return []string{"tag"}
	}
	return nil
}
