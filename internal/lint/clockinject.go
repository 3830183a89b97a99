package lint

import (
	"go/ast"
	"strings"
)

// ClockInject forbids *calling* time.Now / time.Sleep / time.Since /
// time.Until in packages that carry an injectable or virtual clock: reading
// the wall clock there bypasses the injected one, so manual-clock tests stop
// being exact and virtual-clock runs stop being deterministic. Referencing
// `time.Now` without calling it stays legal — `opts.Clock = time.Now` is the
// injection idiom itself.
var ClockInject = &Analyzer{
	Name: "clockinject",
	Doc:  "no time.Now/Sleep/Since/Until calls in packages with an injectable clock — use the injected one",
	Run:  runClockInject,
}

// clockedPackages have an injectable clock (an Options.Clock/Now field or a
// virtual latency clock) that every time reading must go through, or read no
// clock at all and must not start.
var clockedPackages = map[string]bool{
	"recordlayer":                               true, // RunnerOptions.Now, ExecuteProperties clock
	"recordlayer/internal/fdb":                  true, // Options.Clock + the virtual latency clock
	"recordlayer/internal/fdb/internal/cluster": true, // reads no clock: time is the client's to price
	"recordlayer/internal/resource":             true, // GovernorOptions.Clock, UsageExporter clock
	"recordlayer/internal/resource/lease":       true, // lease.Options.Clock
	"recordlayer/internal/core":                 true, // VersionCache clock
	"recordlayer/internal/cursor":               true, // Limiter clock
}

// wallClockFuncs are the time package functions whose *call* reads or blocks
// on the wall clock.
var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Sleep": true,
	"Since": true, // time.Now in disguise
	"Until": true, // time.Now in disguise
}

func runClockInject(p *Pass) error {
	if !clockedPackages[p.Path] {
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
			if fn == nil || funcPkgPath(fn) != "time" || !wallClockFuncs[fn.Name()] {
				return true
			}
			hint := "inject the package's clock instead"
			if fn.Name() == "Sleep" {
				hint = "inject the package's sleep function instead"
			}
			p.Reportf(call.Pos(), "time.%s() bypasses %s's injectable clock; %s",
				fn.Name(), shortPkg(p.Path), hint)
			return true
		})
	}
	return nil
}

func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
