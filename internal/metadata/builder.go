package metadata

import (
	"fmt"

	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
)

// Builder assembles and validates a MetaData. Typical use: build version 1,
// then evolve by building a new version and checking ValidateEvolution.
type Builder struct {
	md  *MetaData
	err error
}

// NewBuilder starts a schema at the given version.
func NewBuilder(version int) *Builder {
	return &Builder{md: &MetaData{
		Version:             version,
		FormerIndexes:       map[string]int{},
		SplitLongRecords:    true,
		StoreRecordVersions: true,
		registry:            message.NewRegistry(),
		recordTypes:         map[string]*RecordType{},
		indexes:             map[string]*Index{},
	}}
}

func (b *Builder) fail(format string, args ...interface{}) *Builder {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
	return b
}

// SetSplitLongRecords toggles record splitting (§4).
func (b *Builder) SetSplitLongRecords(v bool) *Builder {
	b.md.SplitLongRecords = v
	return b
}

// SetStoreRecordVersions toggles per-record commit versions (§7).
func (b *Builder) SetStoreRecordVersions(v bool) *Builder {
	b.md.StoreRecordVersions = v
	return b
}

// AddMessageType registers an auxiliary (nested) message type.
func (b *Builder) AddMessageType(d *message.Descriptor) *Builder {
	if b.err != nil {
		return b
	}
	if err := b.md.registry.Add(d); err != nil {
		return b.fail("metadata: %v", err)
	}
	return b
}

// AddRecordType registers a top-level record type with its primary key.
func (b *Builder) AddRecordType(d *message.Descriptor, primaryKey keyexpr.Expression) *Builder {
	if b.err != nil {
		return b
	}
	if _, dup := b.md.recordTypes[d.Name]; dup {
		return b.fail("metadata: duplicate record type %q", d.Name)
	}
	if err := b.md.registry.Add(d); err != nil {
		return b.fail("metadata: %v", err)
	}
	// SinceVersion defaults to 1 — assuming the type predates the current
	// schema version is the safe default, since schemata are usually rebuilt
	// from scratch at each version: a type wrongly considered old only makes
	// index builds more careful, never skips them.
	rt := &RecordType{Name: d.Name, Descriptor: d, PrimaryKey: primaryKey, SinceVersion: 1}
	b.md.recordTypes[d.Name] = rt
	b.md.typeOrder = append(b.md.typeOrder, d.Name)
	return b
}

// SetRecordTypeKey assigns an explicit record type key value (§10.2).
func (b *Builder) SetRecordTypeKey(typeName string, key interface{}) *Builder {
	if b.err != nil {
		return b
	}
	rt, ok := b.md.recordTypes[typeName]
	if !ok {
		return b.fail("metadata: unknown record type %q", typeName)
	}
	rt.ExplicitTypeKey = key
	return b
}

// AddIndex defines an index over one or more record types. Passing no types
// creates a universal index spanning every type (§7).
func (b *Builder) AddIndex(ix *Index, recordTypes ...string) *Builder {
	if b.err != nil {
		return b
	}
	if ix.Name == "" {
		return b.fail("metadata: index needs a name")
	}
	if _, dup := b.md.indexes[ix.Name]; dup {
		return b.fail("metadata: duplicate index %q", ix.Name)
	}
	if _, removed := b.md.FormerIndexes[ix.Name]; removed {
		return b.fail("metadata: index name %q was previously used and removed; names may not be reused", ix.Name)
	}
	ix.RecordTypes = append([]string(nil), recordTypes...)
	if ix.AddedVersion == 0 {
		ix.AddedVersion = b.md.Version
	}
	if ix.LastModifiedVersion == 0 {
		ix.LastModifiedVersion = ix.AddedVersion
	}
	b.md.indexes[ix.Name] = ix
	b.md.indexOrder = append(b.md.indexOrder, ix.Name)
	return b
}

// RemoveIndex drops an index, recording it as a former index so lagging
// stores clean up its data (§5).
func (b *Builder) RemoveIndex(name string) *Builder {
	if b.err != nil {
		return b
	}
	if _, ok := b.md.indexes[name]; !ok {
		return b.fail("metadata: cannot remove unknown index %q", name)
	}
	delete(b.md.indexes, name)
	for i, n := range b.md.indexOrder {
		if n == name {
			b.md.indexOrder = append(b.md.indexOrder[:i], b.md.indexOrder[i+1:]...)
			break
		}
	}
	b.md.FormerIndexes[name] = b.md.Version
	return b
}

// Build validates the schema and returns the immutable MetaData.
func (b *Builder) Build() (*MetaData, error) {
	if b.err != nil {
		return nil, b.err
	}
	md := b.md
	if err := md.registry.Validate(); err != nil {
		return nil, err
	}
	if len(md.recordTypes) == 0 {
		return nil, fmt.Errorf("metadata: schema has no record types")
	}
	for _, rt := range md.recordTypes {
		if rt.PrimaryKey == nil {
			return nil, fmt.Errorf("metadata: record type %q has no primary key", rt.Name)
		}
		if err := validateExpression(rt.PrimaryKey, rt.Descriptor); err != nil {
			return nil, fmt.Errorf("metadata: record type %q primary key: %v", rt.Name, err)
		}
	}
	for _, ix := range md.Indexes() {
		if ix.Expression == nil {
			return nil, fmt.Errorf("metadata: index %q has no key expression", ix.Name)
		}
		if ix.Unique && ix.Type != IndexValue {
			return nil, fmt.Errorf("metadata: index %q: only value indexes may be unique", ix.Name)
		}
		if _, err := ix.Filter(); err != nil {
			return nil, err
		}
		// Fields referenced by a multi-type index must exist in all of its
		// record types (§7).
		types := ix.RecordTypes
		if len(types) == 0 {
			for _, rt := range md.RecordTypes() {
				types = append(types, rt.Name)
			}
		}
		for _, tn := range types {
			rt, ok := md.recordTypes[tn]
			if !ok {
				return nil, fmt.Errorf("metadata: index %q references unknown record type %q", ix.Name, tn)
			}
			if err := validateExpression(ix.Expression, rt.Descriptor); err != nil {
				return nil, fmt.Errorf("metadata: index %q on type %q: %v", ix.Name, tn, err)
			}
		}
	}
	md.compile()
	b.md = nil // the builder is spent; the metadata is now immutable
	return md, nil
}

// compile compiles every primary key and index expression into its packer,
// and boxes each type key, once per metadata version rather than once per
// store or record.
func (md *MetaData) compile() {
	for _, rt := range md.recordTypes {
		rt.packer = keyexpr.Compile(rt.PrimaryKey)
		rt.typeKey = rt.TypeKey()
	}
	for _, ix := range md.indexes {
		ix.packer = keyexpr.Compile(ix.Expression)
	}
}

// MustBuild is Build for statically known schemas.
func (b *Builder) MustBuild() *MetaData {
	md, err := b.Build()
	if err != nil {
		panic(err)
	}
	return md
}

// validateExpression statically checks that every field path an expression
// references exists with compatible fan semantics.
func validateExpression(e keyexpr.Expression, d *message.Descriptor) error {
	for _, col := range e.Columns() {
		if col.Kind != keyexpr.ColField {
			continue
		}
		desc := d
		for i, name := range col.Path {
			f, ok := desc.FieldByName(name)
			if !ok {
				return fmt.Errorf("no field %q in %s", name, desc.Name)
			}
			last := i == len(col.Path)-1
			if last {
				if f.Type == message.TypeMessage {
					return fmt.Errorf("field %q is a message; index a nested field instead", name)
				}
				if f.Repeated && col.Fan == keyexpr.FanScalar {
					return fmt.Errorf("field %q is repeated; use FanOut or FanConcatenate", name)
				}
				if !f.Repeated && col.Fan != keyexpr.FanScalar {
					// A scalar leaf under a fanned-out repeated parent is
					// fine; only reject fan on the leaf itself when nothing
					// on the path is repeated.
					if !pathHasRepeated(d, col.Path[:i]) {
						return fmt.Errorf("field %q is not repeated; fan type invalid", name)
					}
				}
			} else {
				if f.Type != message.TypeMessage {
					return fmt.Errorf("field %q is not a message; cannot nest", name)
				}
				desc = f.MessageType()
				if desc == nil {
					return fmt.Errorf("field %q has unresolved message type", name)
				}
			}
		}
	}
	return nil
}

func pathHasRepeated(d *message.Descriptor, path []string) bool {
	desc := d
	for _, name := range path {
		f, ok := desc.FieldByName(name)
		if !ok {
			return false
		}
		if f.Repeated {
			return true
		}
		if f.Type == message.TypeMessage {
			desc = f.MessageType()
		}
	}
	return false
}
