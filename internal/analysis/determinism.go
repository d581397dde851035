package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Determinism enforces the DESIGN.md §9 bit-determinism contract in
// the kernel packages (internal/mat, internal/sparse, internal/loss,
// internal/parallel, internal/constraint): results must be a pure
// function of the inputs and the worker count, so replay, the MulRef
// oracle and the crash drills can demand bit-identical outputs.
//
// Three rules:
//
//  1. no float accumulation inside a map range — map iteration order
//     would become summation order;
//  2. no time.Now and no math/rand — kernels take all variability as
//     explicit inputs (seeds live in internal/randx, owned by callers);
//  3. a goroutine body must not write a captured float slice through a
//     captured index — every output slot is owned by exactly one
//     worker, so the slot index must arrive as a goroutine parameter
//     (the `go func(w int) { ... grams[w] ... }(w)` pattern).
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "kernel packages must stay bit-deterministic (DESIGN.md §9)",
	Applies: func(pkgPath string) bool {
		for _, k := range kernelPackages {
			if pathEndsWith(pkgPath, k) {
				return true
			}
		}
		return false
	},
	Run: runDeterminism,
}

var kernelPackages = []string{
	"internal/mat",
	"internal/sparse",
	"internal/loss",
	"internal/parallel",
	"internal/constraint",
}

func runDeterminism(pass *Pass) {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			switch imp.Path.Value {
			case `"math/rand"`, `"math/rand/v2"`:
				pass.Reportf(imp.Pos(),
					"kernel package imports %s; seeded randomness belongs to the caller (DESIGN.md §9)",
					imp.Path.Value)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkTimeNow(pass, n)
			case *ast.RangeStmt:
				checkMapRangeAccum(pass, n)
			case *ast.GoStmt:
				checkGoroutineSliceWrite(pass, n)
			}
			return true
		})
	}
}

// checkTimeNow flags time.Now calls: wall-clock reads make kernel
// output (or tie-breaking) depend on when the run happened.
func checkTimeNow(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Now" {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	if pkg, ok := pass.Info.Uses[id].(*types.PkgName); ok && pkg.Imported().Path() == "time" {
		pass.Reportf(call.Pos(), "time.Now in a kernel package breaks bit-determinism (DESIGN.md §9)")
	}
}

// checkMapRangeAccum flags compound float assignments inside a
// range-over-map body when the accumulator outlives the loop: the
// summation order then follows the randomized map iteration order.
func checkMapRangeAccum(pass *Pass, rs *ast.RangeStmt) {
	t := pass.Info.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		default:
			return true
		}
		for _, lhs := range as.Lhs {
			if !isFloat(pass.Info.TypeOf(lhs)) {
				continue
			}
			if obj := rootIdentObj(pass.Info, lhs); obj != nil && !declaredWithin(obj, rs.Pos(), rs.End()) {
				pass.Reportf(as.Pos(),
					"float accumulation over map iteration order; collect keys and sort first (DESIGN.md §9)")
			}
		}
		return true
	})
}

// checkGoroutineSliceWrite flags writes to s[i] inside a `go func(...)`
// literal when both the slice and the index are captured from the
// enclosing scope. The contract is slot-indexed destinations: each
// worker's output slot arrives as a parameter, so no two goroutines
// can ever race on (or reorder) one accumulator.
func checkGoroutineSliceWrite(pass *Pass, g *ast.GoStmt) {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return // dispatch through a named function: out of sight here
	}
	lo, hi := lit.Pos(), lit.End()
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			return false // nested literals get their own scoping rules
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
			if !ok {
				continue
			}
			if !isFloatSlice(pass.Info.TypeOf(ix.X)) {
				continue
			}
			sliceObj := rootIdentObj(pass.Info, ix.X)
			if sliceObj == nil || declaredWithin(sliceObj, lo, hi) {
				continue // slice is goroutine-local
			}
			if indexIsLocal(pass, ix.Index, lo, hi) {
				continue // slot-indexed: the index was computed inside
			}
			pass.Reportf(lhs.Pos(),
				"goroutine writes shared float slice %s through a captured index; pass the slot index as a goroutine parameter (DESIGN.md §9)",
				exprString(ix.X))
		}
		return true
	})
}

// indexIsLocal reports whether the index expression depends on at
// least one identifier declared inside [lo, hi] — a parameter or a
// body-local (e.g. a channel-received work unit), which makes the
// destination slot goroutine-owned.
func indexIsLocal(pass *Pass, idx ast.Expr, lo, hi token.Pos) bool {
	local := false
	ast.Inspect(idx, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := pass.Info.Uses[id]; obj != nil && declaredWithin(obj, lo, hi) {
			local = true
		}
		return true
	})
	return local
}

// exprString renders a small expression for a message (best effort).
func exprString(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	}
	return "<expr>"
}
