package lint

import (
	"go/ast"
	"go/types"
)

// Mapiter flags ranging over a map when the iteration order can leak
// into rendered bytes: the loop body writes to an io.Writer (fmt.Fprint*
// or a Write/WriteString-family method — string builders and hashes
// included), emits into a results sink, or appends to a slice the
// function returns without sorting it first. Go randomizes map order per
// run, so any such loop silently breaks byte-identity — the exact bug
// class the obs text-exposition fix caught at run time. Collecting keys
// into a slice, sorting, and iterating the slice is the sanctioned
// pattern and is not flagged.
var Mapiter = &Analyzer{
	Name: "mapiter",
	Run:  runMapiter,
}

// orderSinkCall classifies a call inside a map-range body as
// order-sensitive, or returns "".
func orderSinkCall(p *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if sig.Recv() == nil {
		if fn.Pkg().Path() == "fmt" && len(fn.Name()) > 6 && fn.Name()[:6] == "Fprint" {
			return "an io.Writer via fmt." + fn.Name()
		}
		return ""
	}
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune", "WriteTo":
		return "a writer via " + fn.Name()
	case "Emit":
		return "a results sink via Emit"
	}
	return ""
}

func runMapiter(p *Pass) error {
	for _, f := range p.Files {
		// Analyze each function body independently so the
		// append-to-returned-slice check sees the right return
		// statements.
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkMapRanges(p, fn.Body, fn.Type.Results)
				}
				return false
			case *ast.FuncLit:
				checkMapRanges(p, fn.Body, fn.Type.Results)
				return false
			}
			return true
		})
	}
	return nil
}

// checkMapRanges scans one function body (excluding nested function
// literals' own ranges, which get their own call) for order-leaking map
// range statements.
func checkMapRanges(p *Pass, body *ast.BlockStmt, results *ast.FieldList) {
	returned := returnedObjects(p, body, results)
	sorted := sortedObjects(p, body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkMapRanges(p, n.Body, n.Type.Results)
			return false
		case *ast.RangeStmt:
			tv, ok := p.Info.Types[n.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			reportOrderLeaks(p, n, returned, sorted)
		}
		return true
	})
}

// reportOrderLeaks inspects one map-range body for order-sensitive
// effects. Nested function literals are included: code in a literal
// declared inside the loop still runs per iteration.
func reportOrderLeaks(p *Pass, rng *ast.RangeStmt, returned, sorted map[types.Object]bool) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if what := orderSinkCall(p, n); what != "" {
				p.Reportf(n.Pos(), "map iteration order feeds %s; iterate sorted keys instead (map order is randomized per run)", what)
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(p, call) || i >= len(n.Lhs) {
					continue
				}
				obj := exprObject(p, n.Lhs[i])
				if obj != nil && returned[obj] && !sorted[obj] {
					p.Reportf(n.Pos(), "map iteration appends to %q, which this function returns unsorted; sort it (or the keys) before returning (map order is randomized per run)", obj.Name())
				}
			}
		}
		return true
	})
}

// returnedObjects collects the variables a function returns: named
// results plus any identifier appearing directly in a return statement
// of this body (nested function literals excluded).
func returnedObjects(p *Pass, body *ast.BlockStmt, results *ast.FieldList) map[types.Object]bool {
	out := map[types.Object]bool{}
	if results != nil {
		for _, field := range results.List {
			for _, name := range field.Names {
				if obj := p.Info.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if obj := exprObject(p, res); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// sortedObjects collects variables passed anywhere in the body to a
// sort.* or slices.Sort* call — the "keys are sorted first" escape
// hatch: append-then-sort-then-return is deterministic.
func sortedObjects(p *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if path := fn.Pkg().Path(); path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if obj := exprObject(p, arg); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// isBuiltinAppend reports whether the call is the append builtin.
func isBuiltinAppend(p *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := p.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// exprObject resolves an identifier or selector expression to its
// variable object, unwrapping parentheses.
func exprObject(p *Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return p.Info.Uses[e]
	case *ast.SelectorExpr:
		return p.Info.Uses[e.Sel]
	}
	return nil
}
