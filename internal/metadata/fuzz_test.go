package metadata

import (
	"bytes"
	"testing"
)

// FuzzMetaDataUnmarshal decodes arbitrary bytes as stored metadata. Unmarshal
// must never panic — a stored schema is untrusted bytes, and every primary
// key and index expression in it goes through keyexpr's decoder — and
// whatever decodes must round-trip: Marshal, Unmarshal and Marshal again give
// identical bytes. The committed corpus under testdata/fuzz holds the key
// expression shapes that once panicked, as a primary key and as an index
// expression; CI fuzzes for 30 s more.
func FuzzMetaDataUnmarshal(f *testing.F) {
	data, err := baseSchema(f).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		md, err := Unmarshal(data)
		if err != nil {
			return
		}
		once, err := md.Marshal()
		if err != nil {
			t.Fatalf("%q decoded to metadata that does not marshal: %v", data, err)
		}
		again, err := Unmarshal(once)
		if err != nil {
			t.Fatalf("%q decoded to metadata whose bytes %s do not decode: %v", data, once, err)
		}
		twice, err := again.Marshal()
		if err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("%q: marshal round trip changed %s to %s (%v)", data, once, twice, err)
		}
	})
}

// TestUnmarshalRejectsMalformedExpressions: stored metadata whose primary key
// or index expression is one of the shapes that once panicked fails to load.
func TestUnmarshalRejectsMalformedExpressions(t *testing.T) {
	for _, expr := range []string{
		`{"kind":"nest","name":"a"}`,
		`{"kind":"grouping"}`,
		`{"kind":"keywithvalue"}`,
		`{"kind":"then","children":[null]}`,
		`{"kind":"grouping","child":{"kind":"field","name":"v"},"grouped":-3}`,
		`{"kind":"keywithvalue","child":{"kind":"field","name":"v"},"split":99}`,
	} {
		for _, data := range []string{malformedPrimaryKey(expr), malformedIndex(expr)} {
			if _, err := Unmarshal([]byte(data)); err == nil {
				t.Errorf("%s loaded; want a decode error", data)
			}
		}
	}
}

const fuzzRegistry = `[{"name":"U","fields":[{"name":"id","number":1,"type":"int64"},{"name":"v","number":2,"type":"int64"}]}]`

func malformedPrimaryKey(expr string) string {
	return `{"version":1,"registry":` + fuzzRegistry + `,"record_types":[{"name":"U","primary_key":` + expr + `,"since_version":1}]}`
}

func malformedIndex(expr string) string {
	return `{"version":1,"registry":` + fuzzRegistry + `,"record_types":[{"name":"U","primary_key":{"kind":"field","name":"id"},"since_version":1}],` +
		`"indexes":[{"name":"ix","type":"value","expression":` + expr + `,"added_version":1,"last_modified_version":1}]}`
}
