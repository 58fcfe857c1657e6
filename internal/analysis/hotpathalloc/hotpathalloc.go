// Package hotpathalloc implements the cisplint analyzer that keeps the
// per-event hot paths allocation-free. Functions annotated with a
// //cisp:hotpath doc-comment line — the packet/fluid event loops, the
// incremental-APSP recompute (design.Dynamic), FRR activation — are
// checked AST-side for the allocation shapes that matter per call:
// composite literals that escape, make/new, append growth, implicit
// interface boxing (the container/heap tax), variadic argument slices,
// capturing closures, method values and string building. The check is
// syntactic and per-function: it does not chase callees, and a justified
// //lint:allow acknowledges an amortized or intentional allocation.
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"cisp/internal/analysis"
)

// Analyzer flags allocation sites inside //cisp:hotpath functions.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc: "flags allocations in //cisp:hotpath functions: composite-literal/make/new/append " +
		"growth, interface boxing, variadic slices, capturing closures, method values and string building",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !analysis.HotpathMarked(fn) {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	analysis.WithStack(fn.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "hot path heap-allocates: &composite literal")
				}
			}
		case *ast.CompositeLit:
			t := pass.Info.TypeOf(n)
			if t == nil {
				break
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				pass.Reportf(n.Pos(), "hot path heap-allocates: slice literal")
			case *types.Map:
				pass.Reportf(n.Pos(), "hot path heap-allocates: map literal")
			}
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.FuncLit:
			if capture := capturedVar(pass, fn, n); capture != nil {
				pass.Reportf(n.Pos(), "hot path heap-allocates: closure captures %s", capture.Name())
			}
		case *ast.SelectorExpr:
			// x.M as a func value is a closure binding x, just like a
			// capturing literal; only a call of it binds nothing.
			if sel := pass.Info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal && !isCallee(n, stack) {
				pass.Reportf(n.Pos(), "hot path heap-allocates: method value %s binds its receiver", types.ExprString(n))
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := pass.Info.TypeOf(n); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						pass.Reportf(n.Pos(), "hot path heap-allocates: string concatenation")
					}
				}
			}
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	// Builtins first: make/new always allocate, append may grow.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "hot path heap-allocates: make")
			case "new":
				pass.Reportf(call.Pos(), "hot path heap-allocates: new")
			case "append":
				pass.Reportf(call.Pos(), "hot path may heap-allocate: append can grow its backing array")
			}
			return
		}
	}

	// Conversions: string <-> byte/rune slice copies.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, pass.Info.TypeOf(call.Args[0])
		if from != nil && (isStringy(to) != isStringy(from)) && (isStringy(to) || isStringy(from)) {
			pass.Reportf(call.Pos(), "hot path heap-allocates: string/slice conversion copies")
		}
		return
	}

	sig, ok := typeAsSignature(pass.Info.TypeOf(call.Fun))
	if !ok {
		return
	}
	// Variadic calls materialize their argument slice.
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= sig.Params().Len() {
		pass.Reportf(call.Pos(), "hot path heap-allocates: variadic call builds its argument slice")
	}
	// Implicit interface conversions box non-pointer-shaped arguments —
	// the container/heap tax.
	for i, arg := range call.Args {
		pt := paramType(sig, i, call.Ellipsis.IsValid())
		if pt == nil || !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := pass.Info.TypeOf(arg)
		if at == nil || isPointerShaped(at) || isUntypedNil(at) {
			continue
		}
		pass.Reportf(arg.Pos(), "hot path heap-allocates: implicit conversion to interface boxes this %s argument", at.String())
	}
}

// isCallee reports whether e, whose ancestors are stack, is the function
// operand of a call, looking through parentheses.
func isCallee(e ast.Expr, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			e = p
		case *ast.CallExpr:
			return p.Fun == e
		default:
			return false
		}
	}
	return false
}

func typeAsSignature(t types.Type) (*types.Signature, bool) {
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

// paramType returns the effective parameter type for argument i,
// expanding the variadic tail (unless the call passes an explicit slice
// with ...).
func paramType(sig *types.Signature, i int, ellipsis bool) types.Type {
	n := sig.Params().Len()
	if sig.Variadic() && !ellipsis && i >= n-1 {
		if sl, ok := sig.Params().At(n - 1).Type().(*types.Slice); ok {
			return sl.Elem()
		}
		return nil
	}
	if i < n {
		return sig.Params().At(i).Type()
	}
	return nil
}

// isPointerShaped reports whether values of t fit an interface without a
// heap allocation (single-pointer representation).
func isPointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil
	}
	return false
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

func isStringy(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// capturedVar returns a variable the closure captures from the enclosing
// function (forcing a heap-allocated closure object), or nil. Globals do
// not count: a closure over package state compiles to a static func value.
func capturedVar(pass *analysis.Pass, enclosing *ast.FuncDecl, lit *ast.FuncLit) *types.Var {
	var capture *types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if capture != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured = declared within the enclosing function but outside
		// the literal.
		if v.Pos() >= enclosing.Pos() && v.Pos() < enclosing.End() &&
			!(v.Pos() >= lit.Pos() && v.Pos() < lit.End()) {
			capture = v
		}
		return true
	})
	return capture
}
