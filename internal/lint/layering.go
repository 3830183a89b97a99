package lint

import "strings"

// Layering pins the import DAG: every package of the façade and of
// internal/ has a layer, and may import only internal packages of lower
// layers. The store stack reads upward in the table — tuple and message, the
// fdb simulator, kvcursor, the index maintainers, core, plan, the façade —
// with resource above core: tenant policy binds a meter to the transaction
// from above, so no read or write layer needs to know it exists. A package
// the table does not place is a finding, so a new package has to be placed.
// So is an unsafe import anywhere but internal/message, which decodes string
// fields as views of the wire bytes: the aliasing stays in one audited place.
var Layering = &Analyzer{
	Name: "layering",
	Doc:  "internal imports point down the layer table; every package is placed in it; only internal/message imports unsafe",
	Run:  runLayering,
}

// layers lists the module's library packages from the bottom up, relative to
// recordlayer/internal/ ("recordlayer" is the façade). A package may import
// only packages of earlier rows, never one of its own row.
var layers = [][]string{
	{"tuple", "message", "cursor", "obs", "text", "cassandra", "lint", "fdb/internal/cluster"},
	{"subspace", "keyexpr", "fdb", "lint/linttest"},
	{"query", "overlay", "directory", "metadata"},
	{"kvcursor", "keyspace", "bunched", "rankedset"},
	{"index"},
	{"core"},
	{"plan", "resource", "cloudkit"},
	{"resource/lease"},
	{"recordlayer"},
	{"workload"},
	{"exp"},
	{"history"}, // test support: last, so no governed non-test file may import it
}

const (
	facadePath   = "recordlayer"
	internalPath = "recordlayer/internal/"
	// unsafePath is the one governed package that may import unsafe.
	unsafePath = internalPath + "message"
)

// layerOf maps each placed import path to its row in layers.
var layerOf = func() map[string]int {
	m := map[string]int{}
	for i, row := range layers {
		for _, p := range row {
			if p != facadePath {
				p = internalPath + p
			}
			m[p] = i
		}
	}
	return m
}()

// governed reports whether the layer table must place path: the façade and
// every internal package. Entry points (cmd/, examples/) may import anything.
func governed(path string) bool {
	return path == facadePath || strings.HasPrefix(path, internalPath)
}

func runLayering(p *Pass) error {
	if !governed(p.Path) || len(p.Files) == 0 {
		return nil
	}
	layer, ok := layerOf[p.Path]
	if !ok {
		p.Reportf(p.Files[0].Name.Pos(), "package %s is not placed in the layer table", p.Path)
		return nil
	}
	for _, f := range p.Files {
		if isTestFile(p.Fset, f) {
			continue
		}
		for _, imp := range f.Imports {
			path := importPathOf(imp)
			if path == "unsafe" && p.Path != unsafePath {
				p.Reportf(imp.Pos(), "%s imports unsafe; only %s may", p.Path, unsafePath)
				continue
			}
			if !strings.HasPrefix(path, internalPath) {
				continue
			}
			switch to, ok := layerOf[path]; {
			case !ok:
				p.Reportf(imp.Pos(), "import of %s, which the layer table does not place", path)
			case to >= layer:
				p.Reportf(imp.Pos(), "%s (layer %d) imports %s (layer %d); imports must point down the layer table",
					p.Path, layer, path, to)
			}
		}
	}
	return nil
}
