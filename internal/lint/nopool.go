package lint

import (
	"go/ast"
	"go/types"
)

// NoPool forbids sync.Pool outside tests. A pool carries memory from one
// caller to the next, across every tenant's transactions, and the runtime
// empties it whenever the collector runs: what a call allocates then depends
// on when the last collection was, so allocation counts stop repeating from
// a seed, and the race detector, which drops puts on purpose, allocates more
// again. Scratch belongs to the call that uses it: a stack array, or a buffer
// the caller owns and passes down.
var NoPool = &Analyzer{
	Name: "nopool",
	Doc:  "no sync.Pool outside tests — scratch belongs to the call that uses it",
	Run:  runNoPool,
}

func runNoPool(p *Pass) error {
	for _, f := range p.Files {
		if isTestFile(p.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if tn, ok := p.Info.Uses[id].(*types.TypeName); ok && tn.Pkg() != nil &&
				tn.Pkg().Path() == "sync" && tn.Name() == "Pool" {
				p.Reportf(id.Pos(), "sync.Pool makes allocation depend on when the collector runs; use a stack array or a caller-owned buffer")
			}
			return true
		})
	}
	return nil
}
