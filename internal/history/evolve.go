package history

import (
	"fmt"
	"math/rand"
	"slices"

	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
)

// Mutant is a way a successor schema breaks the evolution rules of §5 and
// §10.2, which metadata.ValidateEvolution enforces.
type Mutant int

const (
	RemoveType Mutant = iota
	RenumberField
	RetypeField
	ReuseFormerName
	ChangePrimaryKey
	RedefineWithoutBump
	// NumMutants is the number of mutant kinds.
	NumMutants
)

var mutantNames = [NumMutants]string{"remove a type", "renumber a field", "retype a field",
	"reuse a former index name", "change a primary key", "redefine an index without a bump"}

func (m Mutant) String() string { return mutantNames[m] }

// Evolution is one drawn schema change: Prev, a legal successor of it, and
// that successor with exactly one step turned illegal, which ValidateEvolution
// must refuse with an error containing Refusal.
type Evolution struct {
	Prev, Legal, Illegal *metadata.MetaData
	Kind                 Mutant
	Refusal              string
}

// IllegalEvolution draws an Evolution from seed. Prev is a chain of up to
// four versions from a one-type schema; each version and the legal successor
// take one to three legal steps: add a field, add a record type with its own
// type key and primary key, add an index (VALUE, RANK, COUNT or SUM), remove
// one (it becomes a former index), or redefine one with a version bump.
func IllegalEvolution(seed int64) Evolution {
	rng := rand.New(rand.NewSource(seed))
	kind := Mutant(rng.Intn(int(NumMutants)))
	prev := &evoSchema{version: 1, types: []*evoType{{name: "Doc", typeKey: 1, pk: "id", fields: []evoField{
		{"id", 1, message.TypeInt64}, {"tag", 2, message.TypeString}, {"score", 3, message.TypeInt64}}}}}
	prev.indexes = []*evoIndex{{name: "by_tag", kind: metadata.IndexValue, field: "tag", typ: "Doc", added: 1, modified: 1}}
	for range rng.Intn(4) {
		prev = prev.successor(rng)
	}
	// The mutant needs something of prev's to break.
	if kind == ReuseFormerName && len(prev.former) == 0 {
		prev = prev.next()
		prev.removeIndex(rng)
	}
	if kind == RedefineWithoutBump && len(prev.redefinable()) == 0 {
		prev = prev.next()
		prev.indexes = append(prev.indexes, &evoIndex{name: prev.name("ix"), kind: metadata.IndexValue, field: "tag",
			typ: "Doc", added: prev.version, modified: prev.version})
	}
	legal := prev.successor(rng)
	if kind == RemoveType && len(legal.types) == 1 {
		legal.addType()
	}
	illegal := legal.clone()
	var refusal string
	switch kind {
	case RemoveType:
		rt := prev.types[rng.Intn(len(prev.types))]
		illegal.types = slices.DeleteFunc(illegal.types, func(t *evoType) bool { return t.name == rt.name })
		for _, ix := range illegal.indexes {
			if ix.typ == rt.name && prev.index(ix.name) != nil {
				illegal.former = append(illegal.former, ix)
			}
		}
		illegal.indexes = slices.DeleteFunc(illegal.indexes, func(ix *evoIndex) bool { return ix.typ == rt.name })
		refusal = fmt.Sprintf("record type %q removed", rt.name)
	case RenumberField, RetypeField:
		rt := prev.types[rng.Intn(len(prev.types))]
		f := rt.fields[rng.Intn(len(rt.fields))]
		nt := illegal.typ(rt.name)
		nf := &nt.fields[slices.IndexFunc(nt.fields, func(g evoField) bool { return g.name == f.name })]
		if kind == RenumberField {
			nf.num = nt.nextNumber()
			refusal = fmt.Sprintf("%s field %s (#%d) removed", rt.name, f.name, f.num)
		} else {
			nf.typ = message.TypeString + message.TypeInt64 - f.typ
			refusal = fmt.Sprintf("%s field %s changed type", rt.name, f.name)
		}
	case ReuseFormerName:
		f := prev.former[rng.Intn(len(prev.former))]
		illegal.former = slices.DeleteFunc(illegal.former, func(ix *evoIndex) bool { return ix.name == f.name })
		rt := illegal.types[0]
		illegal.indexes = append(illegal.indexes, &evoIndex{name: f.name, kind: metadata.IndexValue, field: rt.pk,
			typ: rt.name, added: illegal.version, modified: illegal.version})
		refusal = fmt.Sprintf("former index name %q reused", f.name)
	case ChangePrimaryKey:
		rt := prev.types[rng.Intn(len(prev.types))]
		nt := illegal.typ(rt.name)
		for nt.pk == rt.pk {
			nt.pk = rt.fields[rng.Intn(len(rt.fields))].name
		}
		refusal = fmt.Sprintf("record type %q primary key changed", rt.name)
	case RedefineWithoutBump:
		ixs := prev.redefinable()
		ix := ixs[rng.Intn(len(ixs))]
		nix := illegal.index(ix.name)
		if nix == nil { // the legal successor removed it: it is back
			illegal.former = slices.DeleteFunc(illegal.former, func(f *evoIndex) bool { return f.name == ix.name })
			nix = ix.clone()
			illegal.indexes = append(illegal.indexes, nix)
		}
		nix.field, nix.modified = prev.otherField(rng, ix), ix.modified
		refusal = fmt.Sprintf("index %q redefined without bumping LastModifiedVersion", ix.name)
	}
	return Evolution{Prev: prev.build(), Legal: legal.build(), Illegal: illegal.build(), Kind: kind, Refusal: refusal}
}

// evoSchema is a schema version as plain data, for drawing legal steps.
type evoSchema struct {
	version int
	types   []*evoType
	indexes []*evoIndex
	former  []*evoIndex
	names   int // names drawn so far; a name is never drawn twice
}

type evoType struct {
	name    string
	typeKey int64
	pk      string
	fields  []evoField
}

type evoField struct {
	name string
	num  int32
	typ  message.FieldType
}

type evoIndex struct {
	name, field, typ string
	kind             metadata.IndexType
	added, modified  int
}

func (ix *evoIndex) clone() *evoIndex { c := *ix; return &c }

func (s *evoSchema) clone() *evoSchema {
	c := *s
	c.types = make([]*evoType, len(s.types))
	for i, t := range s.types {
		ct := *t
		ct.fields = slices.Clone(t.fields)
		c.types[i] = &ct
	}
	c.indexes, c.former = cloneIndexes(s.indexes), cloneIndexes(s.former)
	return &c
}

func cloneIndexes(ixs []*evoIndex) []*evoIndex {
	out := make([]*evoIndex, len(ixs))
	for i, ix := range ixs {
		out[i] = ix.clone()
	}
	return out
}

// next is the schema at the next version, before any step.
func (s *evoSchema) next() *evoSchema {
	c := s.clone()
	c.version++
	return c
}

// successor is the next version after one to three legal steps.
func (s *evoSchema) successor(rng *rand.Rand) *evoSchema {
	c := s.next()
	for range 1 + rng.Intn(3) {
		switch rng.Intn(5) {
		case 0:
			t := c.types[rng.Intn(len(c.types))]
			t.fields = append(t.fields, evoField{c.name("f"), t.nextNumber(), []message.FieldType{message.TypeInt64, message.TypeString}[rng.Intn(2)]})
		case 1:
			c.addType()
		case 2:
			c.addIndex(rng)
		case 3:
			c.removeIndex(rng)
		default:
			if ixs := c.redefinable(); len(ixs) > 0 {
				ix := ixs[rng.Intn(len(ixs))]
				ix.field, ix.modified = c.otherField(rng, ix), c.version
			}
		}
	}
	return c
}

func (s *evoSchema) name(prefix string) string {
	s.names++
	return fmt.Sprintf("%s%d", prefix, s.names)
}

func (s *evoSchema) addType() {
	s.types = append(s.types, &evoType{name: s.name("T"), typeKey: int64(len(s.types) + 1), pk: "key",
		fields: []evoField{{"key", 1, message.TypeInt64}, {"label", 2, message.TypeString}}})
}

// addIndex adds an index of a drawn type over one of its fields; a SUM only
// over an integer.
func (s *evoSchema) addIndex(rng *rand.Rand) {
	t := s.types[rng.Intn(len(s.types))]
	f := t.fields[rng.Intn(len(t.fields))]
	kinds := []metadata.IndexType{metadata.IndexValue, metadata.IndexRank, metadata.IndexCount}
	if f.typ == message.TypeInt64 {
		kinds = append(kinds, metadata.IndexSum)
	}
	s.indexes = append(s.indexes, &evoIndex{name: s.name("ix"), kind: kinds[rng.Intn(len(kinds))], field: f.name,
		typ: t.name, added: s.version, modified: s.version})
}

func (s *evoSchema) removeIndex(rng *rand.Rand) {
	if len(s.indexes) == 0 {
		s.addIndex(rng)
	}
	i := rng.Intn(len(s.indexes))
	s.former = append(s.former, s.indexes[i])
	s.indexes = slices.Delete(s.indexes, i, i+1)
}

func (s *evoSchema) typ(name string) *evoType {
	return s.types[slices.IndexFunc(s.types, func(t *evoType) bool { return t.name == name })]
}

func (s *evoSchema) index(name string) *evoIndex {
	if i := slices.IndexFunc(s.indexes, func(ix *evoIndex) bool { return ix.name == name }); i >= 0 {
		return s.indexes[i]
	}
	return nil
}

func (t *evoType) nextNumber() int32 {
	n := int32(0)
	for _, f := range t.fields {
		n = max(n, f.num)
	}
	return n + 1
}

// fields lists the fields of ix's type it could index instead of its own: a
// SUM's must be integers.
func (s *evoSchema) fields(ix *evoIndex) []string {
	var out []string
	for _, f := range s.typ(ix.typ).fields {
		if f.name != ix.field && (ix.kind != metadata.IndexSum || f.typ == message.TypeInt64) {
			out = append(out, f.name)
		}
	}
	return out
}

func (s *evoSchema) otherField(rng *rand.Rand, ix *evoIndex) string {
	fs := s.fields(ix)
	return fs[rng.Intn(len(fs))]
}

// redefinable lists the indexes that have another field to index.
func (s *evoSchema) redefinable() []*evoIndex {
	return slices.DeleteFunc(slices.Clone(s.indexes), func(ix *evoIndex) bool { return len(s.fields(ix)) == 0 })
}

func (ix *evoIndex) expression() keyexpr.Expression {
	switch ix.kind {
	case metadata.IndexCount:
		return keyexpr.GroupBy(keyexpr.Empty(), keyexpr.Field(ix.field))
	case metadata.IndexSum:
		return keyexpr.Ungrouped(keyexpr.Field(ix.field))
	}
	return keyexpr.Field(ix.field)
}

// build compiles the schema. A former index is added and removed again, over
// the first type's primary key: only its name matters to a successor.
func (s *evoSchema) build() *metadata.MetaData {
	b := metadata.NewBuilder(s.version)
	for _, t := range s.types {
		fields := make([]*message.FieldDescriptor, len(t.fields))
		for i, f := range t.fields {
			fields[i] = message.Field(f.name, f.num, f.typ)
		}
		b.AddRecordType(message.MustDescriptor(t.name, fields...), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field(t.pk)))
		b.SetRecordTypeKey(t.name, t.typeKey)
	}
	for _, ix := range s.indexes {
		b.AddIndex(&metadata.Index{Name: ix.name, Type: ix.kind, Expression: ix.expression(),
			AddedVersion: ix.added, LastModifiedVersion: ix.modified}, ix.typ)
	}
	for _, ix := range s.former {
		b.AddIndex(&metadata.Index{Name: ix.name, Type: metadata.IndexValue, Expression: keyexpr.Field(s.types[0].pk)}, s.types[0].name)
		b.RemoveIndex(ix.name)
	}
	return b.MustBuild()
}
