package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Idempotent enforces the maybe-committed contract: RunIdempotent — through
// the fdb.Door interface, a Runner, or a Database — and Database.Retry (under
// RetryPolicy.Idempotent) retry commit_unknown_result, which double-applies
// any non-idempotent closure when the unknown commit actually landed. The
// promise cannot be checked mechanically, so every call site must carry a
// reasoned
//
//	//rl:idempotent <why re-running a committed attempt is safe>
//
// directive on the call line or the line directly above — the same audit-trail
// rule as lint:allow. A directive with no reason is itself a finding.
var Idempotent = &Analyzer{
	Name: "idempotent",
	Doc:  "RunIdempotent and Retry call sites must justify the idempotency promise with //rl:idempotent <reason>",
	Run:  runIdempotent,
}

const idempotentPrefix = "//rl:idempotent"

// idempotentRunners maps receiver types to the methods that retry
// maybe-committed commits under the caller's idempotency promise.
var idempotentRunners = map[[2]string]map[string]bool{
	{"recordlayer", "Runner"}:                {"RunIdempotent": true},
	{"recordlayer/internal/fdb", "Door"}:     {"RunIdempotent": true},
	{"recordlayer/internal/fdb", "Database"}: {"RunIdempotent": true, "Retry": true},
}

func runIdempotent(p *Pass) error {
	for _, f := range p.Files {
		if isTestFile(p.Fset, f) {
			continue
		}
		reasons, bare := idempotentDirectives(p.Fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p.Info, call)
			if fn == nil {
				return true
			}
			named := namedRecv(fn)
			if named == nil || named.Obj().Pkg() == nil {
				return true
			}
			methods := idempotentRunners[[2]string{named.Obj().Pkg().Path(), named.Obj().Name()}]
			if methods == nil || !methods[fn.Name()] {
				return true
			}
			line := p.Fset.Position(call.Pos()).Line
			if reasons[line] || reasons[line-1] {
				return true
			}
			if bare[line] || bare[line-1] {
				p.Reportf(call.Pos(), "%s's rl:idempotent directive carries no reason — say why re-running a committed attempt is safe", fn.Name())
				return true
			}
			p.Reportf(call.Pos(), "%s retries maybe-committed transactions under an idempotency promise; justify it with //rl:idempotent <reason> on this line or the line above", fn.Name())
			return true
		})
	}
	return nil
}

// idempotentDirectives scans one file's comments for rl:idempotent
// directives, split into reasoned ones and bare ones, keyed by line.
func idempotentDirectives(fset *token.FileSet, f *ast.File) (reasons, bare map[int]bool) {
	reasons = map[int]bool{}
	bare = map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, idempotentPrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, idempotentPrefix)
			if rest != "" && !strings.HasPrefix(rest, " ") {
				continue // e.g. //rl:idempotentish — not ours
			}
			line := fset.Position(c.Pos()).Line
			if strings.TrimSpace(rest) == "" {
				bare[line] = true
			} else {
				reasons[line] = true
			}
		}
	}
	return reasons, bare
}
