package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Maporder flags `for ... range` over map values in result-affecting
// packages. Go randomizes map iteration order per run, so any loop whose
// effect depends on visit order silently breaks the simulator's
// determinism guarantee. Two loop shapes are provably order-insensitive
// and allowed:
//
//   - the clear idiom: a body consisting solely of delete(m, k) on the
//     ranged map with the loop's own key;
//   - pure integer accumulation: every statement is x++/x-- or an integer
//     compound assignment (+=, -=, |=, &=, ^=) whose right-hand side does
//     not read the accumulator (integer addition is commutative and
//     associative; float accumulation is not and stays flagged).
//
// Anything else needs an explicit //mtmlint:maporder-ok <reason>.
var Maporder = &Analyzer{
	Name: "maporder",
	Doc:  "flag order-sensitive map iteration in result-affecting packages",
	Run:  runMaporder,
}

// resultAffecting lists the module-relative subtrees whose computations
// feed experiment results (DESIGN.md "Determinism invariants").
var resultAffecting = []string{
	"internal/core",
	"internal/sim",
	"internal/experiment",
	"internal/dyngraph",
	"internal/expansion",
}

func runMaporder(p *Pass) {
	applies := false
	for _, prefix := range resultAffecting {
		if p.Within(prefix) {
			applies = true
			break
		}
	}
	if !applies {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if _, isMap := p.Pkg.Info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
				return true
			}
			if isClearIdiom(p, rs) || isIntAccumulation(p, rs) {
				return true
			}
			p.Reportf(rs.Pos(), "iteration over map %s has nondeterministic order in a result-affecting package; iterate a sorted or insertion-ordered key slice instead, or annotate //mtmlint:maporder-ok <reason>", types.ExprString(rs.X))
			return true
		})
	}
}

// isClearIdiom reports whether the loop body is exactly delete(m, k) on
// the ranged map using the loop's key variable.
func isClearIdiom(p *Pass, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	es, ok := rs.Body.List[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if _, isBuiltin := p.Pkg.Info.Uses[fn].(*types.Builtin); !isBuiltin || fn.Name != "delete" {
		return false
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	arg1, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
	if !ok || p.Pkg.Info.ObjectOf(arg1) == nil ||
		p.Pkg.Info.ObjectOf(arg1) != p.Pkg.Info.ObjectOf(key) {
		return false
	}
	// The deleted-from map must be the ranged map (same object for
	// identifiers, same spelling for selector chains like c.edgeSet).
	return types.ExprString(ast.Unparen(call.Args[0])) == types.ExprString(ast.Unparen(rs.X))
}

// isIntAccumulation reports whether every statement in the loop body is a
// commutative integer accumulation that never reads its own accumulator.
func isIntAccumulation(p *Pass, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) == 0 {
		return false
	}
	for _, stmt := range rs.Body.List {
		switch s := stmt.(type) {
		case *ast.IncDecStmt:
			if !isIntegerExpr(p, s.X) {
				return false
			}
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return false
			}
			switch s.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			default:
				return false
			}
			if !isIntegerExpr(p, s.Lhs[0]) {
				return false
			}
			acc := rootObject(p, s.Lhs[0])
			if acc == nil {
				return false
			}
			for _, id := range identsIn(s.Rhs[0]) {
				if p.Pkg.Info.ObjectOf(id) == acc {
					return false // e.g. sum += sum*x is order-sensitive
				}
			}
		default:
			return false
		}
	}
	return true
}
