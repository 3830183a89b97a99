package lint

import (
	"go/ast"
	"strings"
)

// CtxPropagate forbids context.Background() and context.TODO() in library
// code: the root recordlayer package and everything under internal/. A fresh
// root context severs everything that rides the caller's context — the
// tenant identity (admission and metering silently stop), the obs.Trace (spans
// vanish mid-transaction), priority classes, and cancellation. Entry points
// (cmd/, examples/) own their root context and are exempt.
var CtxPropagate = &Analyzer{
	Name: "ctxpropagate",
	Doc:  "no context.Background/TODO in library code — it severs tenant metering, tracing, and cancellation",
	Run:  runCtxPropagate,
}

// libraryPackage reports whether path is library code the invariant governs.
func libraryPackage(path string) bool {
	return path == "recordlayer" || strings.HasPrefix(path, "recordlayer/internal/")
}

func runCtxPropagate(p *Pass) error {
	if !libraryPackage(p.Path) {
		return nil
	}
	for _, f := range p.Files {
		if isTestFile(p.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p.Info, call)
			if fn == nil || funcPkgPath(fn) != "context" {
				return true
			}
			if fn.Name() == "Background" || fn.Name() == "TODO" {
				p.Reportf(call.Pos(),
					"context.%s() in library code severs tenant metering and trace propagation; thread the caller's ctx",
					fn.Name())
			}
			return true
		})
	}
	return nil
}
