// Package keyspace implements the KeySpace API (§4): a logical directory
// tree describing how an application organizes its data within the global
// keyspace. Tracing a path through the tree compiles to a tuple that becomes
// a row key or record store location, with the guarantee that sibling
// directories are logically isolated and non-overlapping. Where appropriate,
// string directory values are converted to small integers via the directory
// layer.
package keyspace

import (
	"fmt"

	"recordlayer/internal/directory"
	"recordlayer/internal/fdb"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// ValueType constrains the tuple values a directory accepts.
type ValueType int

const (
	// TypeConstant directories hold one fixed value supplied at definition.
	TypeConstant ValueType = iota
	// TypeString directories accept any string value.
	TypeString
	// TypeInt64 directories accept any integer value.
	TypeInt64
	// TypeBytes directories accept any byte-string value.
	TypeBytes
	// TypeUUID directories accept UUID values.
	TypeUUID
)

func (t ValueType) String() string {
	switch t {
	case TypeConstant:
		return "constant"
	case TypeString:
		return "string"
	case TypeInt64:
		return "int64"
	case TypeBytes:
		return "bytes"
	case TypeUUID:
		return "uuid"
	}
	return "unknown"
}

// Directory is one level of the logical tree.
type Directory struct {
	name     string
	typ      ValueType
	constant interface{}
	interned bool // resolve string values through the directory layer
	children []*Directory
}

// NewDirectory creates a variable directory accepting values of typ.
func NewDirectory(name string, typ ValueType) *Directory {
	return &Directory{name: name, typ: typ}
}

// NewConstant creates a directory pinned to a single value.
func NewConstant(name string, value interface{}) *Directory {
	return &Directory{name: name, typ: TypeConstant, constant: value}
}

// NewInterned creates a string-valued directory whose values are converted
// to small integers via the directory layer, keeping row keys short.
func NewInterned(name string) *Directory {
	return &Directory{name: name, typ: TypeString, interned: true}
}

// Add attaches child directories, returning the receiver for chaining.
func (d *Directory) Add(children ...*Directory) *Directory {
	d.children = append(d.children, children...)
	return d
}

// Name returns the directory's logical name.
func (d *Directory) Name() string { return d.name }

// KeySpace is the root of a logical directory tree.
type KeySpace struct {
	root  *Directory
	layer *directory.Layer
}

// New validates the tree and returns a KeySpace. The directory layer is used
// for interned directories; pass nil if none are interned.
func New(layer *directory.Layer, children ...*Directory) (*KeySpace, error) {
	root := &Directory{name: "/", children: children}
	if err := validate(root); err != nil {
		return nil, err
	}
	return &KeySpace{root: root, layer: layer}, nil
}

// validate enforces the non-overlap rules: sibling names unique; at most one
// variable directory per value type among siblings; constant siblings of the
// same tuple type must hold distinct values (otherwise two paths could
// compile to the same key prefix).
func validate(d *Directory) error {
	names := map[string]bool{}
	varTypes := map[ValueType]string{}
	constVals := map[string]string{}
	for _, c := range d.children {
		if names[c.name] {
			return fmt.Errorf("keyspace: duplicate directory name %q under %q", c.name, d.name)
		}
		names[c.name] = true
		if c.typ == TypeConstant {
			key := fmt.Sprintf("%T:%v", c.constant, c.constant)
			if prev, ok := constVals[key]; ok {
				return fmt.Errorf("keyspace: directories %q and %q under %q share constant value %v",
					prev, c.name, d.name, c.constant)
			}
			constVals[key] = c.name
		} else {
			t := c.typ
			if c.interned {
				t = TypeInt64 // interned strings occupy the integer domain
			}
			if prev, ok := varTypes[t]; ok {
				return fmt.Errorf("keyspace: directories %q and %q under %q both accept %v values",
					prev, c.name, d.name, t)
			}
			varTypes[t] = c.name
		}
		if err := validate(c); err != nil {
			return err
		}
	}
	return nil
}

// PathElement pairs a directory name with the value chosen for it.
type PathElement struct {
	Name  string
	Value interface{}
}

// Path is a location in the tree: a sequence of (directory, value) pairs.
type Path struct {
	ks    *KeySpace
	elems []PathElement
	dirs  []*Directory
}

// Path starts a path at a root-level directory. For constant directories the
// value must be omitted (pass nothing); for variable directories exactly one
// value is required.
func (ks *KeySpace) Path(name string, value ...interface{}) (Path, error) {
	return Path{ks: ks}.Add(name, value...)
}

// MustPath is Path but panics on error; for statically known trees.
func (ks *KeySpace) MustPath(name string, value ...interface{}) Path {
	p, err := ks.Path(name, value...)
	if err != nil {
		panic(err)
	}
	return p
}

// PathFor compiles a template — a root-to-leaf sequence of directory names —
// into a Path, consuming one value from values for each variable (non
// constant) directory along the way. This is the per-request tenant routing
// idiom (§5): a provider holds the template and each request supplies only
// the tenant-identifying values. The path is built in one pass, its slices
// sized to the template.
func (ks *KeySpace) PathFor(names []string, values ...interface{}) (Path, error) {
	if len(names) == 0 {
		return Path{}, fmt.Errorf("keyspace: empty path template")
	}
	p := Path{ks: ks, elems: make([]PathElement, 0, len(names)), dirs: make([]*Directory, 0, len(names))}
	parent, rest := ks.root, values
	for _, name := range names {
		dir, v, r, err := step(parent, name, rest)
		if err != nil {
			return Path{}, err
		}
		p.elems = append(p.elems, PathElement{Name: name, Value: v})
		p.dirs = append(p.dirs, dir)
		parent, rest = dir, r
	}
	if len(rest) != 0 {
		return Path{}, fmt.Errorf("keyspace: template %v consumed %d of %d supplied values",
			names, len(values)-len(rest), len(values))
	}
	return p, nil
}

// step finds the directory name under parent and the value a path stores for
// it: a constant directory's own, or the first of values, normalized and
// type-checked, for a variable one. rest is the values step did not take.
func step(parent *Directory, name string, values []interface{}) (dir *Directory, v interface{}, rest []interface{}, err error) {
	if dir = parent.child(name); dir == nil {
		return nil, nil, nil, fmt.Errorf("keyspace: no directory %q under %q", name, parent.name)
	}
	if dir.typ == TypeConstant {
		return dir, dir.constant, values, nil
	}
	if len(values) == 0 {
		return nil, nil, nil, fmt.Errorf("keyspace: directory %q requires a value", name)
	}
	v = normalize(values[0])
	if err := checkType(dir, v); err != nil {
		return nil, nil, nil, err
	}
	return dir, v, values[1:], nil
}

// child returns d's child directory called name, or nil.
func (d *Directory) child(name string) *Directory {
	for _, c := range d.children {
		if c.name == name {
			return c
		}
	}
	return nil
}

// Add extends the path one level down. The new path shares no slice with p.
func (p Path) Add(name string, value ...interface{}) (Path, error) {
	parent := p.ks.root
	if len(p.dirs) > 0 {
		parent = p.dirs[len(p.dirs)-1]
	}
	dir, v, rest, err := step(parent, name, value)
	if err != nil {
		return Path{}, err
	}
	if len(rest) != 0 {
		if dir.typ == TypeConstant {
			return Path{}, fmt.Errorf("keyspace: directory %q is constant; no value allowed", name)
		}
		return Path{}, fmt.Errorf("keyspace: directory %q requires exactly one value", name)
	}
	// Appending past a full slice copies it, so np never aliases p.
	n := len(p.elems)
	return Path{ks: p.ks, elems: append(p.elems[:n:n], PathElement{Name: name, Value: v}),
		dirs: append(p.dirs[:n:n], dir)}, nil
}

// MustAdd is Add but panics on error.
func (p Path) MustAdd(name string, value ...interface{}) Path {
	np, err := p.Add(name, value...)
	if err != nil {
		panic(err)
	}
	return np
}

func normalize(v interface{}) interface{} {
	switch x := v.(type) {
	case int:
		return int64(x)
	case int32:
		return int64(x)
	}
	return v
}

func checkType(d *Directory, v interface{}) error {
	ok := false
	switch d.typ {
	case TypeString:
		_, ok = v.(string)
	case TypeInt64:
		_, ok = v.(int64)
	case TypeBytes:
		_, ok = v.([]byte)
	case TypeUUID:
		_, ok = v.(tuple.UUID)
	}
	if !ok {
		return fmt.Errorf("keyspace: directory %q requires a %v value, got %T", d.name, d.typ, v)
	}
	return nil
}

// AppendPrefix packs the key prefix of the path a template names, as PathFor
// takes one, onto b: the row-key prefix of the record store or index living
// there, with interned values resolved through the directory layer (creating
// entries as needed). Every level is checked before anything is interned, so
// a template or value PathFor rejects fails with PathFor's error and writes
// nothing. This is the provider's per-request path: no Path and no tuple is
// built, and b may be a caller's stack buffer.
func (ks *KeySpace) AppendPrefix(b []byte, tr *fdb.Transaction, names []string, values ...interface{}) ([]byte, error) {
	b, _, err := ks.appendPrefix(b, tr, names, values, true)
	return b, err
}

// appendPrefix is the one encoder of key prefixes. It first walks the
// template with step, checking every level, the count of values and, for an
// interned level, the directory layer; only then does it walk again and pack
// each level onto b: a constant or plain value as its tuple element, an
// interned value as the integer the layer maps it to. With create unset an
// interned value the layer has never seen ends the walk with ok == false,
// having written nothing. On error or ok == false b comes back as it was
// given.
func (ks *KeySpace) appendPrefix(b []byte, tr *fdb.Transaction, names []string, values []interface{}, create bool) ([]byte, bool, error) {
	if len(names) == 0 {
		return b, false, fmt.Errorf("keyspace: empty path template")
	}
	var unlayered *Directory // the first interned level, when there is no layer
	parent, rest := ks.root, values
	for _, name := range names {
		dir, _, r, err := step(parent, name, rest)
		if err != nil {
			return b, false, err
		}
		if dir.interned && ks.layer == nil && unlayered == nil {
			unlayered = dir
		}
		parent, rest = dir, r
	}
	if len(rest) != 0 {
		// The message gets a copy of names: a caller's stack array stays there.
		return b, false, fmt.Errorf("keyspace: template %v consumed %d of %d supplied values",
			append([]string(nil), names...), len(values)-len(rest), len(values))
	}
	if unlayered != nil {
		return b, false, fmt.Errorf("keyspace: directory %q is interned but no directory layer configured", unlayered.name)
	}
	n := len(b)
	parent, rest = ks.root, values
	for _, name := range names {
		dir, v, r, _ := step(parent, name, rest)
		parent, rest = dir, r
		if !dir.interned {
			out, err := tuple.AppendElement(b, v, nil)
			if err != nil {
				return b[:n], false, fmt.Errorf("keyspace: directory %q: %v", name, err)
			}
			b = out
			continue
		}
		var id int64
		var err error
		found := true
		if create {
			id, err = ks.layer.Intern(tr, v.(string))
		} else {
			id, found, err = ks.layer.LookupInterned(tr, v.(string))
		}
		if err != nil || !found {
			return b[:n], false, err
		}
		b = tuple.AppendInt64(b, id)
	}
	return b, true, nil
}

// appendPrefix packs p's key prefix onto b through the template encoder: p's
// directory names are the template and its variable levels' values the
// values.
func (p Path) appendPrefix(b []byte, tr *fdb.Transaction, create bool) ([]byte, bool, error) {
	if len(p.elems) == 0 {
		return b, true, nil
	}
	var nameBuf [8]string
	var valueBuf [8]interface{}
	names, values := nameBuf[:0], valueBuf[:0]
	for i, e := range p.elems {
		names = append(names, e.Name)
		if p.dirs[i].typ != TypeConstant {
			values = append(values, e.Value)
		}
	}
	return p.ks.appendPrefix(b, tr, names, values, create)
}

// ToSubspace compiles the path to the subspace rooted at its key prefix,
// resolving interned values through the directory layer (creating entries as
// needed).
func (p Path) ToSubspace(tr *fdb.Transaction) (subspace.Subspace, error) {
	var buf [64]byte
	prefix, _, err := p.appendPrefix(buf[:0], tr, true)
	if err != nil {
		return subspace.Subspace{}, err
	}
	return subspace.FromBytes(prefix), nil
}

// LookupSubspace is ToSubspace without the side effect: an interned value
// that was never interned is not allocated, and ok reports whether every
// level of the path resolved. Nothing can be stored under a path that does
// not resolve.
func (p Path) LookupSubspace(tr *fdb.Transaction) (space subspace.Subspace, ok bool, err error) {
	var buf [64]byte
	prefix, ok, err := p.appendPrefix(buf[:0], tr, false)
	if err != nil || !ok {
		return subspace.Subspace{}, false, err
	}
	return subspace.FromBytes(prefix), true, nil
}

// ToSubspaceStatic compiles a path containing no interned directories
// without a transaction. System paths (e.g. the reserved tenant-limits
// directory) are resolved once at startup, before any transaction exists;
// interned directories need the directory layer and must use ToSubspace.
func (p Path) ToSubspaceStatic() (subspace.Subspace, error) {
	for i, d := range p.dirs {
		if d.interned {
			return subspace.Subspace{}, fmt.Errorf(
				"keyspace: directory %q is interned; ToSubspaceStatic needs a transaction-free path", p.elems[i].Name)
		}
	}
	return p.ToSubspace(nil)
}

// DirectoryCacheStats reports the hit and miss counts of the directory
// layer's name -> id cache (zeros when the keyspace interns nothing).
func (ks *KeySpace) DirectoryCacheStats() (hits, misses int64) {
	if ks.layer == nil {
		return 0, 0
	}
	return ks.layer.CacheStats()
}

// SplitKey matches key against a template, as PathFor takes one: it decodes
// one element per directory and returns the path they name, rendered as
// String renders a Path, and the bytes after them. An interned element shows
// as its name when the directory layer's cache knows it, else as its id. ok
// is false when key does not start with a path of the template.
func (ks *KeySpace) SplitKey(names []string, key []byte) (path string, rest []byte, ok bool) {
	parent, rest := ks.root, key
	for _, name := range names {
		dir := parent.child(name)
		if dir == nil {
			return "", key, false
		}
		n, err := tuple.ElementLen(rest)
		if err != nil {
			return "", key, false
		}
		t, err := tuple.Unpack(rest[:n])
		if err != nil || len(t) != 1 {
			return "", key, false
		}
		v := t[0]
		switch {
		case dir.typ == TypeConstant:
			if fmt.Sprintf("%#v", v) != fmt.Sprintf("%#v", normalize(dir.constant)) {
				return "", key, false
			}
		case dir.interned:
			id, isID := v.(int64)
			if !isID {
				return "", key, false
			}
			if ks.layer != nil {
				if name, ok := ks.layer.CachedName(id); ok {
					v = name
				}
			}
		}
		path += fmt.Sprintf("/%s:%v", name, v)
		parent, rest = dir, rest[n:]
	}
	return path, rest, true
}

// String renders the path like a filesystem path for diagnostics.
func (p Path) String() string {
	s := ""
	for _, e := range p.elems {
		s += fmt.Sprintf("/%s:%v", e.Name, e.Value)
	}
	if s == "" {
		return "/"
	}
	return s
}
