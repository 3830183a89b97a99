package lint

import (
	"go/ast"
	"go/types"
)

// KVReadOnly keeps callers from writing into the bytes a read returned. The
// simulator hands out the database's own immutable bytes — the snapshot's
// entries and the write buffer's — instead of a copy per read, so a write into
// a KeyValue's Key or Value, or into what Get returned, would change what
// every other reader of that pair sees, this transaction's later reads and
// other transactions' alike. Flagged:
//
//	kv.Value[0] = 1           // index assignment, op-assign or ++/--
//	copy(kv.Key[2:], suffix)  // copy into the field or a reslice of it
//	v, _ := tr.Get(k); v[0]++ // the same through a local assigned directly
//	                          // from a Get or a KeyValue field
//
// The local rule is flow-insensitive within a function: a variable once
// assigned read bytes stays read bytes. An append needs no rule — read bytes
// have cap == len, so an append copies.
var KVReadOnly = &Analyzer{
	Name: "kvreadonly",
	Doc:  "bytes a read returned (a KeyValue's Key/Value, what Get returned) are the database's: never write into them",
	Run:  runKVReadOnly,
}

func runKVReadOnly(p *Pass) error {
	for _, f := range p.Files {
		if isTestFile(p.Fset, f) {
			continue
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
				checkReadOnlyBytes(p, fn.Body)
			}
		}
	}
	return nil
}

// checkReadOnlyBytes reports writes into read bytes in one function body,
// closures included: a local that holds read bytes is one object wherever
// the body uses it.
func checkReadOnlyBytes(p *Pass, body *ast.BlockStmt) {
	held := map[types.Object]bool{} // locals assigned read bytes
	// assigned marks lhs[i] when rhs[i] produces read bytes; a lone rhs is a
	// call whose first result lands in lhs[0].
	assigned := func(lhs, rhs []ast.Expr) {
		for i, r := range rhs {
			if i >= len(lhs) || !readsBytes(p.Info, r) {
				continue
			}
			if id, ok := ast.Unparen(lhs[i]).(*ast.Ident); ok && id.Name != "_" {
				if obj := p.Info.ObjectOf(id); obj != nil {
					held[obj] = true
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			assigned(s.Lhs, s.Rhs)
		case *ast.ValueSpec:
			names := make([]ast.Expr, len(s.Names))
			for i, id := range s.Names {
				names[i] = id
			}
			assigned(names, s.Values)
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, l := range s.Lhs {
				if ix, ok := ast.Unparen(l).(*ast.IndexExpr); ok && isReadBytes(p.Info, held, ix.X) {
					p.Reportf(l.Pos(), "%s writes into bytes a read returned; they are shared with the database — copy them first", exprString(l))
				}
			}
		case *ast.IncDecStmt:
			if ix, ok := ast.Unparen(s.X).(*ast.IndexExpr); ok && isReadBytes(p.Info, held, ix.X) {
				p.Reportf(s.Pos(), "%s writes into bytes a read returned; they are shared with the database — copy them first", exprString(s.X))
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(s.Fun).(*ast.Ident); ok && len(s.Args) == 2 {
				if b, ok := p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "copy" && isReadBytes(p.Info, held, s.Args[0]) {
					p.Reportf(s.Pos(), "copy into %s writes into bytes a read returned; they are shared with the database — copy them first", exprString(s.Args[0]))
				}
			}
		}
		return true
	})
}

// isReadBytes reports whether e denotes read bytes: a KeyValue's Key or Value,
// a local that holds read bytes, or a reslice of either.
func isReadBytes(info *types.Info, held map[types.Object]bool, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.SliceExpr:
		return isReadBytes(info, held, x.X)
	case *ast.Ident:
		return held[info.ObjectOf(x)]
	case *ast.SelectorExpr:
		return isKeyValueField(info, x)
	}
	return false
}

// readsBytes reports whether e produces read bytes directly: a call of
// (*Transaction).Get, Snapshot.Get or (*FutureValue).Get, or a KeyValue field.
func readsBytes(info *types.Info, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		fn := calleeFunc(info, x)
		if fn == nil || funcPkgPath(fn) != "recordlayer/internal/fdb" || fn.Name() != "Get" {
			return false
		}
		recv := namedRecv(fn)
		if recv == nil {
			return false
		}
		switch recv.Obj().Name() {
		case "Transaction", "Snapshot", "FutureValue":
			return true
		}
	case *ast.SelectorExpr:
		return isKeyValueField(info, x)
	}
	return false
}

// isKeyValueField reports whether sel is the Key or Value field of an
// fdb.KeyValue (or a pointer to one).
func isKeyValueField(info *types.Info, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Key" && sel.Sel.Name != "Value" {
		return false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "recordlayer/internal/fdb" && named.Obj().Name() == "KeyValue"
}
