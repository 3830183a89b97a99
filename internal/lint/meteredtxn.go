package lint

import (
	"go/ast"
)

// MeteredTxn forbids raw transaction reads in internal/core and
// internal/index: every Get/GetRange (sync or async) there must go through
// the packages' metered helpers (core's meteredGet/meteredGetRange/
// issueLoadRecord, index's Context read helpers), which charge the tenant's
// Meter. A raw read bypasses metering, so byte-rate quotas and billing
// export undercount exactly the traffic that grows with data volume. The
// helper bodies themselves carry the audited lint:allow directives.
var MeteredTxn = &Analyzer{
	Name: "meteredtxn",
	Doc:  "no raw tr.Get/GetRange in internal/core and internal/index — use the metered helpers",
	Run:  runMeteredTxn,
}

// meteredPackages are the store layers whose reads must be tenant-metered.
var meteredPackages = map[string]bool{
	"recordlayer/internal/core":  true,
	"recordlayer/internal/index": true,
}

// rawReadMethods are the fdb read entry points, on both Transaction and
// Snapshot receivers.
var rawReadMethods = map[string]bool{
	"Get":           true,
	"GetRange":      true,
	"GetAsync":      true,
	"GetRangeAsync": true,
	// MetadataVersion fetches no key, but it is a read entry point all the
	// same: its one legitimate caller says why nothing is billed.
	"MetadataVersion": true,
}

func runMeteredTxn(p *Pass) error {
	if !meteredPackages[p.Path] {
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
			if fn == nil || !rawReadMethods[fn.Name()] {
				return true
			}
			if !recvTypeIs(fn, "recordlayer/internal/fdb", "Transaction") &&
				!recvTypeIs(fn, "recordlayer/internal/fdb", "Snapshot") {
				return true
			}
			p.Reportf(call.Pos(), "raw %s bypasses tenant metering; route the read through this package's metered helper",
				fn.Name())
			return true
		})
	}
	return nil
}
