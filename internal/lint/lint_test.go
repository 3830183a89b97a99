package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"recordlayer/internal/lint"
	"recordlayer/internal/lint/linttest"
)

// run checks one analyzer against its testdata fixtures, type-checked under
// asPath so path-scoped analyzers fire.
func run(t *testing.T, a *lint.Analyzer, asPath string) {
	t.Helper()
	root := linttest.ModuleRoot(t)
	fixtures := linttest.Fixtures(t, filepath.Join("testdata", a.Name))
	linttest.Run(t, root, asPath, []*lint.Analyzer{a}, fixtures...)
}

func TestRetrySafe(t *testing.T)    { run(t, lint.RetrySafe, "recordlayer/internal/lintfixture") }
func TestIdempotent(t *testing.T)   { run(t, lint.Idempotent, "recordlayer/internal/lintfixture") }
func TestFutureAwait(t *testing.T)  { run(t, lint.FutureAwait, "recordlayer/internal/lintfixture") }
func TestCtxPropagate(t *testing.T) { run(t, lint.CtxPropagate, "recordlayer/internal/lintfixture") }
func TestClockInject(t *testing.T)  { run(t, lint.ClockInject, "recordlayer/internal/workload") }
func TestLayering(t *testing.T)     { run(t, lint.Layering, "recordlayer/internal/kvcursor") }
func TestObsGuard(t *testing.T)     { run(t, lint.ObsGuard, "recordlayer/internal/lintfixture") }

// TestPathScoping: the path-scoped analyzers stay silent outside their
// governed packages — the same fixtures produce zero findings under an
// entry-point or unclocked import path.
func TestPathScoping(t *testing.T) {
	root := linttest.ModuleRoot(t)
	cases := []struct {
		analyzer *lint.Analyzer
		asPath   string
	}{
		{lint.CtxPropagate, "recordlayer/cmd/demo"},
		{lint.ClockInject, "recordlayer/internal/message"},
		{lint.Layering, "recordlayer/examples/demo"},
	}
	for _, c := range cases {
		t.Run(c.analyzer.Name, func(t *testing.T) {
			fixtures := linttest.Fixtures(t, filepath.Join("testdata", c.analyzer.Name))
			pkg, err := lint.LoadFiles(root, c.asPath, fixtures)
			if err != nil {
				t.Fatalf("loading fixtures: %v", err)
			}
			diags, errs := lint.RunPackage(pkg, []*lint.Analyzer{c.analyzer})
			for _, e := range errs {
				t.Errorf("directive error: %v", e)
			}
			for _, d := range diags {
				t.Errorf("%s fired outside its scope (as %s): %s", c.analyzer.Name, c.asPath, d)
			}
		})
	}
}

// TestLayeringUnplaced: an internal package missing from the layer table is
// one finding, whatever it imports.
func TestLayeringUnplaced(t *testing.T) {
	root := linttest.ModuleRoot(t)
	fixtures := linttest.Fixtures(t, filepath.Join("testdata", "layering"))
	pkg, err := lint.LoadFiles(root, "recordlayer/internal/lintfixture", fixtures)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	diags, _ := lint.RunPackage(pkg, []*lint.Analyzer{lint.Layering})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "not placed in the layer table") {
		t.Errorf("want one not-placed finding, got %v", diags)
	}
}

// TestDirectiveErrors: a lint:allow with no reason (or no analyzer) is itself
// an error, and the finding it tried to suppress still surfaces.
func TestDirectiveErrors(t *testing.T) {
	root := linttest.ModuleRoot(t)
	fixtures := linttest.Fixtures(t, filepath.Join("testdata", "directives"))
	pkg, err := lint.LoadFiles(root, "recordlayer/internal/lintfixture", fixtures)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	diags, errs := lint.RunPackage(pkg, []*lint.Analyzer{lint.CtxPropagate})
	if len(errs) != 2 {
		t.Errorf("want 2 directive errors (reasonless, nameless), got %d: %v", len(errs), errs)
	}
	if len(diags) != 2 {
		t.Errorf("broken directives must not suppress: want 2 findings, got %d: %v", len(diags), diags)
	}
}
