package metadata

import (
	"encoding/json"
	"fmt"

	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
)

// Persisted metadata layout. Record type descriptors are stored via the
// message registry; key expressions via keyexpr's serialized form.
type jsonMetaData struct {
	Version             int               `json:"version"`
	SplitLongRecords    bool              `json:"split_long_records"`
	StoreRecordVersions bool              `json:"store_record_versions"`
	Registry            json.RawMessage   `json:"registry"`
	RecordTypes         []jsonRecordType  `json:"record_types"`
	Indexes             []jsonIndex       `json:"indexes"`
	FormerIndexes       map[string]int    `json:"former_indexes,omitempty"`
	Extra               map[string]string `json:"extra,omitempty"`
}

type jsonRecordType struct {
	Name         string          `json:"name"`
	PrimaryKey   json.RawMessage `json:"primary_key"`
	TypeKey      interface{}     `json:"type_key,omitempty"`
	SinceVersion int             `json:"since_version"`
}

type jsonIndex struct {
	Name         string            `json:"name"`
	Type         string            `json:"type"`
	RecordTypes  []string          `json:"record_types,omitempty"`
	Expression   json.RawMessage   `json:"expression"`
	Unique       bool              `json:"unique,omitempty"`
	FilterName   string            `json:"filter,omitempty"`
	Options      map[string]string `json:"options,omitempty"`
	AddedVersion int               `json:"added_version"`
	LastModified int               `json:"last_modified_version"`
}

// Marshal serializes the metadata for the metadata store.
func (md *MetaData) Marshal() ([]byte, error) {
	reg, err := md.registry.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := jsonMetaData{
		Version:             md.Version,
		SplitLongRecords:    md.SplitLongRecords,
		StoreRecordVersions: md.StoreRecordVersions,
		Registry:            reg,
		FormerIndexes:       md.FormerIndexes,
	}
	for _, rt := range md.RecordTypes() {
		pk, err := keyexpr.Marshal(rt.PrimaryKey)
		if err != nil {
			return nil, fmt.Errorf("metadata: record type %q: %v", rt.Name, err)
		}
		out.RecordTypes = append(out.RecordTypes, jsonRecordType{
			Name: rt.Name, PrimaryKey: pk, TypeKey: rt.ExplicitTypeKey, SinceVersion: rt.SinceVersion,
		})
	}
	for _, ix := range md.Indexes() {
		ex, err := keyexpr.Marshal(ix.Expression)
		if err != nil {
			return nil, fmt.Errorf("metadata: index %q: %v", ix.Name, err)
		}
		out.Indexes = append(out.Indexes, jsonIndex{
			Name: ix.Name, Type: string(ix.Type), RecordTypes: ix.RecordTypes,
			Expression: ex, Unique: ix.Unique, FilterName: ix.FilterName,
			Options: ix.Options, AddedVersion: ix.AddedVersion, LastModified: ix.LastModifiedVersion,
		})
	}
	return json.Marshal(out)
}

// Unmarshal reconstructs metadata saved with Marshal. Key expression
// functions and index filters must be registered before loading.
func Unmarshal(data []byte) (*MetaData, error) {
	var in jsonMetaData
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("metadata: corrupt metadata: %v", err)
	}
	reg, err := message.UnmarshalRegistry(in.Registry)
	if err != nil {
		return nil, err
	}
	md := &MetaData{
		Version:             in.Version,
		SplitLongRecords:    in.SplitLongRecords,
		StoreRecordVersions: in.StoreRecordVersions,
		FormerIndexes:       in.FormerIndexes,
		registry:            reg,
		recordTypes:         map[string]*RecordType{},
		indexes:             map[string]*Index{},
	}
	if md.FormerIndexes == nil {
		md.FormerIndexes = map[string]int{}
	}
	for _, jrt := range in.RecordTypes {
		d, ok := reg.Lookup(jrt.Name)
		if !ok {
			return nil, fmt.Errorf("metadata: record type %q missing from registry", jrt.Name)
		}
		pk, err := keyexpr.Unmarshal(jrt.PrimaryKey)
		if err != nil {
			return nil, fmt.Errorf("metadata: record type %q: %v", jrt.Name, err)
		}
		md.recordTypes[jrt.Name] = &RecordType{
			Name: jrt.Name, Descriptor: d, PrimaryKey: pk,
			ExplicitTypeKey: normalizeTypeKey(jrt.TypeKey), SinceVersion: jrt.SinceVersion,
		}
		md.typeOrder = append(md.typeOrder, jrt.Name)
	}
	for _, jix := range in.Indexes {
		ex, err := keyexpr.Unmarshal(jix.Expression)
		if err != nil {
			return nil, fmt.Errorf("metadata: index %q: %v", jix.Name, err)
		}
		md.indexes[jix.Name] = &Index{
			Name: jix.Name, Type: IndexType(jix.Type), RecordTypes: jix.RecordTypes,
			Expression: ex, Unique: jix.Unique, FilterName: jix.FilterName,
			Options: jix.Options, AddedVersion: jix.AddedVersion, LastModifiedVersion: jix.LastModified,
		}
		md.indexOrder = append(md.indexOrder, jix.Name)
	}
	md.compile()
	return md, nil
}

func normalizeTypeKey(v interface{}) interface{} {
	if f, ok := v.(float64); ok && f == float64(int64(f)) {
		return int64(f)
	}
	return v
}
