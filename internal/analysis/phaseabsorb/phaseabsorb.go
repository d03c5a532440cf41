// Package phaseabsorb flags step loops that run simulator phases without
// draining the rank windows in the same iteration.
//
// Every dmem method must absorb its inbox each phase: residual deltas are
// additive and commute under reordering, so the methods stay exact under
// fault injection only if every landed message is read before the next
// decision (paper §3; DESIGN.md §8). A phase whose function never reads
// World.Inbox — directly or through a local absorb closure — leaves landed
// deltas unread for a full step, silently desynchronizing the Γ/Γ̃
// bookkeeping. Two phase entries are checked:
//
//   - a World.RunPhase or World.RunPhaseActive call inside a loop (its
//     phase function is the last argument). Setup phases outside loops are
//     exempt (initial exchanges legitimately precede any inbox);
//   - a call to a step driver: a function whose doc comment carries
//     //dslint:phasedriver runs every func-typed argument as a phase of
//     every step, so each such argument is checked at the call site. The
//     driver's own body forwards those functions and is not checked.
package phaseabsorb

import (
	"go/ast"
	"go/types"
	"strings"

	"southwell/internal/analysis/framework"
	"southwell/internal/analysis/lintutil"
)

// Analyzer is the phaseabsorb check.
var Analyzer = &framework.Analyzer{
	Name: "phaseabsorb",
	Doc: "flag phase functions that never drain the inbox (World.Inbox): RunPhase " +
		"and RunPhaseActive calls in step loops, and the arguments of //dslint:phasedriver step drivers",
	Run: run,
}

func run(pass *framework.Pass) error {
	drivers := phaseDrivers(pass)
	for _, f := range pass.Files {
		draining := drainingFuncs(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				// A driver's body forwards its callers' phase functions,
				// which are checked where it is called.
				return !drivers[pass.TypesInfo.Defs[n.Name]]
			case *ast.CallExpr:
				if fn := callee(pass, n); fn != nil && drivers[fn] {
					checkDriverCall(pass, n, fn, draining)
				}
				return true
			case *ast.ForStmt:
				body = n.Body
			case *ast.RangeStmt:
				body = n.Body
			default:
				return true
			}
			ast.Inspect(body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				name := "RunPhase"
				if lintutil.WorldMethod(pass.TypesInfo, call, name) == nil {
					name = "RunPhaseActive"
					if lintutil.WorldMethod(pass.TypesInfo, call, name) == nil {
						return true
					}
				}
				if len(call.Args) > 0 && phaseDrains(pass, call.Args[len(call.Args)-1], draining) {
					return true
				}
				pass.Reportf(call.Pos(),
					"%s in a step loop with a phase function that never drains the inbox; absorb World.Inbox in the same iteration so residual deltas stay exact", name)
				return true
			})
			return true
		})
	}
	return nil
}

// phaseDrivers collects the package's step drivers: functions whose doc
// comment carries //dslint:phasedriver.
func phaseDrivers(pass *framework.Pass) map[types.Object]bool {
	drivers := map[types.Object]bool{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if strings.HasPrefix(c.Text, "//dslint:phasedriver") {
					if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
						drivers[obj] = true
					}
				}
			}
		}
	}
	return drivers
}

// callee returns the function or method a call invokes by name, or nil.
func callee(pass *framework.Pass, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

// checkDriverCall reports every func-typed argument of a step-driver call
// that never drains the inbox.
func checkDriverCall(pass *framework.Pass, call *ast.CallExpr, driver types.Object, draining map[types.Object]bool) {
	for _, arg := range call.Args {
		t := pass.TypesInfo.TypeOf(arg)
		if t == nil {
			continue
		}
		if _, ok := t.Underlying().(*types.Signature); !ok {
			continue
		}
		if !phaseDrains(pass, arg, draining) {
			pass.Reportf(arg.Pos(),
				"phase function passed to step driver %s never drains the inbox; absorb World.Inbox in every phase so residual deltas stay exact", driver.Name())
		}
	}
}

// phaseDrains reports whether the phase-function argument drains the
// inbox: a func literal that reads Inbox or calls a draining function, or
// an identifier bound to one.
func phaseDrains(pass *framework.Pass, arg ast.Expr, draining map[types.Object]bool) bool {
	switch a := arg.(type) {
	case *ast.FuncLit:
		return drains(pass, a.Body, draining)
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[a]; obj != nil {
			return draining[obj]
		}
	}
	return false
}

// drainingFuncs collects the objects of functions whose bodies drain the
// inbox, iterating to a fixed point so closures that delegate to other
// draining closures are recognized.
func drainingFuncs(pass *framework.Pass, f *ast.File) map[types.Object]bool {
	type binding struct {
		obj  types.Object
		body *ast.BlockStmt
	}
	var bindings []binding
	ast.Inspect(f, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range d.Rhs {
				lit, ok := rhs.(*ast.FuncLit)
				if !ok || i >= len(d.Lhs) {
					continue
				}
				if id, ok := d.Lhs[i].(*ast.Ident); ok {
					if obj := pass.TypesInfo.Defs[id]; obj != nil {
						bindings = append(bindings, binding{obj, lit.Body})
					} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
						bindings = append(bindings, binding{obj, lit.Body})
					}
				}
			}
		case *ast.FuncDecl:
			if d.Body != nil {
				if obj := pass.TypesInfo.Defs[d.Name]; obj != nil {
					bindings = append(bindings, binding{obj, d.Body})
				}
			}
		}
		return true
	})
	draining := map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		for _, b := range bindings {
			if !draining[b.obj] && drains(pass, b.body, draining) {
				draining[b.obj] = true
				changed = true
			}
		}
	}
	return draining
}

// drains reports whether node contains a World.Inbox read or a call to a
// known draining function.
func drains(pass *framework.Pass, node ast.Node, draining map[types.Object]bool) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if lintutil.WorldMethod(pass.TypesInfo, call, "Inbox") != nil {
			found = true
			return false
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil && draining[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
