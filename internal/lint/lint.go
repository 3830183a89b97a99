// Package lint is rl-vet's analysis framework: a self-contained,
// standard-library-only analogue of golang.org/x/tools/go/analysis, plus the
// seven analyzers that mechanically enforce this repository's cross-cutting
// invariants (see LINTING.md). The conventions the analyzers encode were
// established one PR at a time — retry-idempotent Runner closures, reasoned
// maybe-committed retries, awaited futures, threaded contexts, injected
// clocks, import layering, nil-guarded observability — and each is exactly
// the kind of rule the FDB simulation-testing lineage argues should be
// checked by a machine, not a reviewer.
//
// A finding is suppressed only by an explicit, *reasoned* allow directive on
// the offending line or the line above it:
//
//	//lint:allow <analyzer> <reason>
//
// A directive with no reason is itself an error: the allowlist is an audit
// trail, not an off switch.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant checker. Run inspects a single type-checked
// package and reports findings through the pass.
type Analyzer struct {
	// Name is the directive-facing identifier ("retrysafe", "clockinject").
	Name string
	// Doc is the one-line invariant statement shown by `rl-vet -list`.
	Doc string
	// Run inspects one package.
	Run func(*Pass) error
}

// Pass carries one package's parsed and type-checked state to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's non-test source files.
	Files []*ast.File
	// Pkg is the type-checked package; Path is its import path. Fixture
	// harnesses may type-check files under a pretend path so path-scoped
	// analyzers fire (see linttest).
	Pkg  *types.Package
	Path string
	Info *types.Info

	diags *[]Diagnostic
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	analyzer string
	reason   string
	line     int
	pos      token.Position
}

const allowPrefix = "//lint:allow"

// parseAllows extracts the allow directives of one file. Directives with a
// missing analyzer name or an empty reason are returned as errors — an
// unexplained suppression fails the run the same way a finding would.
func parseAllows(fset *token.FileSet, f *ast.File) (map[int][]allowDirective, []error) {
	allows := map[int][]allowDirective{}
	var errs []error
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, allowPrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, allowPrefix)
			pos := fset.Position(c.Pos())
			if rest != "" && !strings.HasPrefix(rest, " ") {
				// e.g. //lint:allowed — not ours.
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				errs = append(errs, fmt.Errorf("%s: lint:allow directive names no analyzer", pos))
				continue
			}
			name, reason := fields[0], strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))
			if reason == "" {
				errs = append(errs, fmt.Errorf("%s: lint:allow %s carries no reason — every suppression must say why", pos, name))
				continue
			}
			d := allowDirective{analyzer: name, reason: reason, line: pos.Line, pos: pos}
			allows[d.line] = append(allows[d.line], d)
		}
	}
	return allows, errs
}

// suppressed reports whether a diagnostic at line is covered by a directive
// on the same line (trailing comment) or the line directly above.
func suppressed(allows map[int][]allowDirective, analyzer string, line int) bool {
	for _, l := range []int{line, line - 1} {
		for _, d := range allows[l] {
			if d.analyzer == analyzer {
				return true
			}
		}
	}
	return false
}

// RunPackage runs the analyzers over one loaded package, returning the
// unsuppressed findings plus any directive errors (malformed or reasonless
// lint:allow comments).
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, []error) {
	var all []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Path:     pkg.Path,
			Info:     pkg.Info,
			diags:    &all,
		}
		if err := a.Run(pass); err != nil {
			return nil, []error{fmt.Errorf("%s: analyzer %s: %v", pkg.Path, a.Name, err)}
		}
	}

	allows := map[string]map[int][]allowDirective{}
	var errs []error
	for _, f := range pkg.Files {
		byLine, ferrs := parseAllows(pkg.Fset, f)
		errs = append(errs, ferrs...)
		allows[pkg.Fset.Position(f.Pos()).Filename] = byLine
	}
	kept := all[:0]
	for _, d := range all {
		if !suppressed(allows[d.Pos.Filename], d.Analyzer, d.Pos.Line) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Pos.Filename != kept[j].Pos.Filename {
			return kept[i].Pos.Filename < kept[j].Pos.Filename
		}
		if kept[i].Pos.Line != kept[j].Pos.Line {
			return kept[i].Pos.Line < kept[j].Pos.Line
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept, errs
}

// Analyzers returns the full rl-vet suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		RetrySafe,
		Idempotent,
		FutureAwait,
		CtxPropagate,
		ClockInject,
		Layering,
		ObsGuard,
	}
}

// ----------------------------------------------------------- shared helpers

// isTestFile reports whether the file's name ends in _test.go. The loader
// already excludes test files; analyzers use this as a belt-and-braces check
// when a harness feeds them mixed file sets.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// calleeFunc resolves a call to the *types.Func it invokes (method or
// package-level function), nil for indirect calls through variables.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// funcPkgPath returns the import path of the package a function belongs to
// ("" for builtins).
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// namedRecv returns the receiver's named type (dereferencing one pointer),
// nil when fn is not a method on a named type.
func namedRecv(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// exprString renders an expression compactly for receiver matching and
// messages.
func exprString(e ast.Expr) string { return types.ExprString(e) }
