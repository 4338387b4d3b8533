package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"mobiletel/internal/lint/ssa"
)

// Happensbefore proves that workers dispatched through parallelFor (and
// its fused-sweep twin parallelForFused) are race-free by chunk
// partitioning, replacing sharedwrite's per-literal heuristic with interval
// reasoning over the worker's (w, lo, hi) bounds. A second proof domain —
// the persistent worker pool's epoch-publish dispatch idiom — lives in
// epochpool.go.
//
// internal/sim's dispatcher splits [0, n) into contiguous chunks and runs
// fn(w, lo, hi) concurrently, with the dispatch join as the only barrier.
// Inside one such region the analyzer must therefore prove, for every
// access to shared state (anything reached through the method receiver, a
// captured variable, or a package-level variable):
//
//   - writes to a shared container element s[i] (including implicit writes
//     via a pointer-receiver method call s[i].M(), and writes through a
//     local pointer p := &s[i]) have an index interval provably within
//     [lo, hi), or provably equal to the worker id w (per-worker scratch);
//   - reads of a container that is also written in the same region are
//     held to the same bound — a cross-chunk read of written state is only
//     sequenced after the dispatcher's barrier, not within the region;
//   - shared maps are never written (unsafe even on distinct keys), and
//     shared scalars and slice headers are never written at all.
//
// Containers that are only read in the region are shared-read-only and
// need no proof. Index intervals come from the internal/lint/ssa abstract
// interpreter, so derived indices (i+1 under an explicit `i+1 < hi` or an
// early `continue` guard) are proven too, and every failed proof carries
// the def-use chain that `mtmlint -explain` prints.
//
// Two idioms of the parallel counting sort are recognized as proven:
//
//   - a *worker-private row*: row := shared[w*K : (w+1)*K]. Distinct worker
//     ids address disjoint ranges for any K, so the view is private to the
//     worker and may be read or written at any index (the per-worker
//     histogram of the two-pass bucketing sort);
//   - a *scatter cursor*: a write shared[row[t]] = v whose index is loaded
//     from a worker-private row. The sequential prefix merge between the
//     histogram and scatter passes rewrites each row cell into a cursor
//     base such that distinct (worker, bucket) cursor ranges are disjoint;
//     the analyzer accepts the write on the strength of that idiom (the
//     merge itself runs outside any region), while still counting the
//     container as region-written so stray same-region reads are flagged.
//
// A slice alias with any other bounds (row := shared[2:7]) is treated as
// the shared container itself and held to the chunk proof.
//
// A method worker that forwards its own (w, lo, hi) to another receiver
// method (a fused body running two sweeps back to back) has that method
// analyzed as a worker too.
//
// Boundaries, dynamically backed by the race-smoke CI job (`make race`):
// other bodies of calls on the receiver itself (e.bindCtx(ctx)) are not
// walked, writes through pointers the analyzer cannot trace to one &s[i]
// site are skipped, and `go` statements inside a region belong to
// sharedwrite.
// Workers the analyzer cannot resolve to a body (a func value from an
// unknown source) are themselves findings: an unverifiable dispatch is a
// hole in the proof.
var Happensbefore = &Analyzer{
	Name: "happensbefore",
	Doc:  "prove parallelFor workers write only inside their [lo, hi) chunk (or w-indexed scratch), and never read cross-chunk state that the region also writes",
	Run:  runHappensbefore,
}

func runHappensbefore(p *Pass) {
	var fieldFns map[*types.Var]*types.Func
	var decls map[*types.Func]*ast.FuncDecl
	analyzed := make(map[ast.Node]bool)
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name := calleeName(call.Fun); name != "parallelFor" && name != "parallelForFused" {
				return true
			}
			if decls == nil {
				decls = funcDecls(p.Pkg)
				fieldFns = fieldFuncBindings(p.Pkg)
			}
			for _, arg := range call.Args {
				hbCheckWorkerArg(p, arg, fieldFns, decls, analyzed)
			}
			return true
		})
	}
	hbCheckEpochPools(p)
}

// hbCheckWorkerArg resolves one parallelFor argument of worker shape
// (three int parameters) to its body and analyzes it once.
func hbCheckWorkerArg(p *Pass, arg ast.Expr, fieldFns map[*types.Var]*types.Func, decls map[*types.Func]*ast.FuncDecl, analyzed map[ast.Node]bool) {
	arg = ast.Unparen(arg)
	sig, ok := p.Pkg.Info.TypeOf(arg).(*types.Signature)
	if !ok || sig.Params().Len() != 3 {
		return
	}
	for i := 0; i < 3; i++ {
		b, ok := sig.Params().At(i).Type().Underlying().(*types.Basic)
		if !ok || b.Info()&types.IsInteger == 0 {
			return
		}
	}

	if lit, ok := arg.(*ast.FuncLit); ok {
		if !analyzed[lit] {
			analyzed[lit] = true
			hbCheckLit(p, lit)
		}
		return
	}
	fn := staticFunc(p.Pkg.Info, arg)
	if fn == nil {
		// A func-typed field: resolve through the package's one-time
		// method-value bindings (e.phAdvertise = e.phaseAdvertise).
		if sel, ok := arg.(*ast.SelectorExpr); ok {
			if field, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Var); ok {
				fn = fieldFns[field]
			}
		}
	}
	var decl *ast.FuncDecl
	if fn != nil {
		decl = decls[fn]
	}
	if decl == nil || decl.Body == nil {
		p.Reportf(arg.Pos(), "cannot statically resolve parallelFor worker %s to a body; happensbefore cannot verify its chunk partitioning", types.ExprString(arg))
		return
	}
	if !analyzed[decl] {
		analyzed[decl] = true
		hbCheckDecl(p, decl)
		hbCheckForwarded(p, decl, fieldFns, decls, analyzed)
	}
}

// hbCheckForwarded analyzes, as workers of their own, the receiver methods
// a method worker calls with its own (w, lo, hi) in order — the sweeps a
// fused body runs back to back, e.g. e.phaseActiveScan(w, lo, hi). Each
// such sweep gets the chunk proof it would get if dispatched directly.
func hbCheckForwarded(p *Pass, decl *ast.FuncDecl, fieldFns map[*types.Var]*types.Func, decls map[*types.Func]*ast.FuncDecl, analyzed map[ast.Node]bool) {
	if decl.Recv == nil || len(decl.Recv.List) != 1 || len(decl.Recv.List[0].Names) != 1 {
		return
	}
	recv := p.Pkg.Info.Defs[decl.Recv.List[0].Names[0]]
	var params []types.Object
	for _, field := range decl.Type.Params.List {
		for _, id := range field.Names {
			params = append(params, p.Pkg.Info.Defs[id])
		}
	}
	if len(params) != 3 {
		return
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 3 {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := ast.Unparen(sel.X).(*ast.Ident); !ok || p.Pkg.Info.Uses[x] != recv {
			return true
		}
		for i, arg := range call.Args {
			id, ok := ast.Unparen(arg).(*ast.Ident)
			if !ok || params[i] == nil || p.Pkg.Info.Uses[id] != params[i] {
				return true
			}
		}
		hbCheckWorkerArg(p, sel, fieldFns, decls, analyzed)
		return true
	})
}

func hbCheckLit(p *Pass, lit *ast.FuncLit) {
	var params []*ast.Ident
	for _, field := range lit.Type.Params.List {
		params = append(params, field.Names...)
	}
	r := &hbRegion{p: p, lit: lit}
	r.seedParams(params)
	r.run(lit.Body)
}

func hbCheckDecl(p *Pass, decl *ast.FuncDecl) {
	var params []*ast.Ident
	for _, field := range decl.Type.Params.List {
		params = append(params, field.Names...)
	}
	r := &hbRegion{p: p}
	if decl.Recv != nil && len(decl.Recv.List) == 1 && len(decl.Recv.List[0].Names) == 1 {
		r.recv = p.Pkg.Info.Defs[decl.Recv.List[0].Names[0]]
	}
	r.seedParams(params)
	r.run(decl.Body)
}

// hbAccess is one recorded element access to a shared container.
type hbAccess struct {
	key    string // canonical container spelling, e.g. "e.tags"
	index  ast.Expr
	env    *ssa.Env
	pos    token.Pos
	what   string // access description for diagnostics
	write  bool
	proven bool // accepted by idiom (scatter cursor); still marks key written
}

// hbClass classifies a container expression within a worker region.
type hbClass int

const (
	// hbLocal: worker-local storage, no proof needed.
	hbLocal hbClass = iota
	// hbShared: shared across workers, accesses need the chunk proof.
	hbShared
	// hbPrivateRow: a shared[w*K : (w+1)*K] view — disjoint per worker id,
	// so private to this worker at any index.
	hbPrivateRow
)

// hbRegion analyzes one parallelFor worker body.
type hbRegion struct {
	p    *Pass
	lit  *ast.FuncLit // non-nil for func-literal workers
	recv types.Object // receiver object for method workers

	w, lo, hi types.Object
	an        *ssa.Analysis
	seeds     []*ssa.Def
	accesses  []hbAccess
	consumed  map[ast.Node]bool
}

// seedParams seeds the worker convention: first parameter is the worker
// id, the last two are the chunk bounds.
func (r *hbRegion) seedParams(params []*ast.Ident) {
	objs := make([]types.Object, len(params))
	for i, id := range params {
		if id.Name != "_" {
			objs[i] = r.p.Pkg.Info.Defs[id]
		}
	}
	if len(objs) == 3 {
		r.w, r.lo, r.hi = objs[0], objs[1], objs[2]
	}
	for _, obj := range objs {
		if obj != nil {
			r.seeds = append(r.seeds, &ssa.Def{Obj: obj, Ival: ssa.SymI(obj),
				Kind: ssa.KindSeed, Pos: obj.Pos(), Why: "parameter " + obj.Name()})
		}
	}
}

func (r *hbRegion) run(body *ast.BlockStmt) {
	r.consumed = make(map[ast.Node]bool)
	r.an = &ssa.Analysis{Info: r.p.Pkg.Info, Fset: r.p.Loader.Fset, Visit: r.visitStmt}
	r.an.Run(body, r.seeds)

	written := make(map[string]bool)
	for _, acc := range r.accesses {
		if acc.write {
			written[acc.key] = true
		}
	}
	for _, acc := range r.accesses {
		if !acc.write && !written[acc.key] {
			continue // shared-read-only container: no proof needed
		}
		if acc.proven {
			continue // accepted by the scatter-cursor idiom
		}
		iv := r.an.Eval(acc.env, acc.index)
		if r.inChunk(iv) {
			continue
		}
		explain := r.an.Explain(acc.env, acc.index)
		if acc.write {
			r.p.ReportExplained(acc.pos, explain,
				"cannot prove %s of %s[%s] stays in the worker's chunk: index interval %s is not within [lo, hi) or pinned to w",
				acc.what, acc.key, types.ExprString(acc.index), iv)
		} else {
			r.p.ReportExplained(acc.pos, explain,
				"read of %s[%s] (index interval %s) may cross chunks while this region also writes %s; cross-chunk reads are only sequenced after the parallelFor barrier",
				acc.key, types.ExprString(acc.index), iv, acc.key)
		}
	}
}

// inChunk reports whether the index interval is provably within [lo, hi)
// or provably equal to the worker id w.
func (r *hbRegion) inChunk(iv ssa.Interval) bool {
	if r.lo != nil && r.hi != nil &&
		iv.WithinHalfOpen(ssa.SymB(r.lo, 0), ssa.SymB(r.hi, 0)) {
		return true
	}
	return r.w != nil && iv.Equals(ssa.SymB(r.w, 0))
}

// visitStmt receives every executable statement (and the headers of
// compound ones) with a sound environment, and records the shared-state
// accesses it contains.
func (r *hbRegion) visitStmt(stmt ast.Stmt, env *ssa.Env) {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			r.checkWrite(lhs, env)
		}
		r.scan(s, env)
	case *ast.IncDecStmt:
		r.checkWrite(s.X, env)
		r.scan(s, env)
	case *ast.IfStmt:
		r.scan(s.Cond, env)
	case *ast.ForStmt:
		if s.Cond != nil {
			r.scan(s.Cond, env)
		}
	case *ast.RangeStmt:
		r.checkWrite(s.Key, env)
		r.checkWrite(s.Value, env)
		r.scan(s.X, env)
	case *ast.SwitchStmt:
		if s.Tag != nil {
			r.scan(s.Tag, env)
		}
	case *ast.TypeSwitchStmt:
		r.scan(s.Assign, env)
	case *ast.GoStmt:
		// Plain goroutines inside a region are sharedwrite's concern.
	default:
		r.scan(stmt, env)
	}
}

// scan walks one statement or expression subtree recording element reads,
// element-mutating method calls, and writes hidden inside nested function
// literals (which run synchronously within the region unless go'd).
func (r *hbRegion) scan(node ast.Node, env *ssa.Env) {
	if node == nil {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				r.checkWrite(lhs, env)
			}
		case *ast.IncDecStmt:
			r.checkWrite(x.X, env)
		case *ast.CallExpr:
			r.checkElementMethodCall(x, env)
		case *ast.IndexExpr:
			if r.consumed[x] {
				return true
			}
			if key, cls := r.classify(x.X, env); cls == hbShared && !isMapType(r.p, x.X) {
				r.record(hbAccess{key: key, index: x.Index, env: env,
					pos: x.Pos(), what: "read", write: false})
			}
		}
		return true
	})
}

// checkWrite classifies one assignment target.
func (r *hbRegion) checkWrite(lhs ast.Expr, env *ssa.Env) {
	if lhs == nil {
		return
	}
	lhs = ast.Unparen(lhs)
	if r.consumed[lhs] {
		return
	}
	// Mark the target consumed immediately: visitStmt and scan both reach
	// top-level assignment targets, and an already-classified lhs must not
	// report twice (nor re-record as a read).
	r.consumed[lhs] = true
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		key, cls := r.classify(ix.X, env)
		if cls == hbLocal || cls == hbPrivateRow {
			return // worker-local / worker-private: any index is fine
		}
		if isMapType(r.p, ix.X) {
			r.p.Reportf(lhs.Pos(), "parallelFor worker writes to shared map %s; concurrent map writes are unsafe even on distinct keys", key)
			return
		}
		proven := false
		if cursor, ok := ast.Unparen(ix.Index).(*ast.IndexExpr); ok {
			if _, ccls := r.classify(cursor.X, env); ccls == hbPrivateRow {
				// The scatter-cursor idiom: the index is loaded from a
				// worker-private histogram row whose cells the sequential
				// prefix merge turned into disjoint cursor bases.
				proven = true
			}
		}
		r.record(hbAccess{key: key, index: ix.Index, env: env,
			pos: lhs.Pos(), what: "write", write: true, proven: proven})
		return
	}

	root := rootObject(r.p, lhs)
	if root == nil {
		return
	}
	if r.isShared(root) {
		r.p.Reportf(lhs.Pos(), "parallelFor worker writes shared variable %s without partitioning; only element writes indexed within the worker's chunk [lo, hi) are race-free", types.ExprString(lhs))
		return
	}
	// A write through a local pointer: trace it to its one defining
	// &shared[i] site (p := &e.ctxA[w]; p.Node = v) and hold that index
	// to the chunk proof. Pointers with any other provenance are a
	// documented boundary, backed by the race detector.
	if _, isPtr := root.Type().Underlying().(*types.Pointer); !isPtr {
		return
	}
	if _, isPtrReassign := lhs.(*ast.Ident); isPtrReassign {
		return // reassigning the local pointer itself, not the pointee
	}
	d := env.Lookup(root)
	if d == nil || d.Src == nil {
		return
	}
	addr, ok := ast.Unparen(d.Src).(*ast.UnaryExpr)
	if !ok || addr.Op != token.AND {
		return
	}
	target := ast.Unparen(addr.X)
	if ix, ok := target.(*ast.IndexExpr); ok {
		if key, cls := r.classify(ix.X, d.Env); cls == hbShared && !isMapType(r.p, ix.X) {
			r.record(hbAccess{key: key, index: ix.Index, env: d.Env,
				pos: lhs.Pos(), what: "write (through " + root.Name() + " := &" + key + "[...])", write: true})
		}
		return
	}
	if troot := rootObject(r.p, target); troot != nil && r.isShared(troot) {
		r.p.Reportf(lhs.Pos(), "parallelFor worker writes shared variable %s through local pointer %s without partitioning", types.ExprString(target), root.Name())
	}
}

// checkElementMethodCall treats s[i].M() as a write to s[i] when M has a
// pointer receiver and the element is directly addressable — the call
// implicitly takes &s[i]. Interface and value-receiver calls read.
func (r *hbRegion) checkElementMethodCall(call *ast.CallExpr, env *ssa.Env) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	ix, ok := ast.Unparen(sel.X).(*ast.IndexExpr)
	if !ok {
		return
	}
	key, cls := r.classify(ix.X, env)
	if cls != hbShared || isMapType(r.p, ix.X) {
		return
	}
	elem := r.p.Pkg.Info.TypeOf(ix)
	if elem == nil {
		return
	}
	switch elem.Underlying().(type) {
	case *types.Pointer, *types.Interface:
		return // the element itself is only read; the call is indirect
	}
	fn, ok := r.p.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	if _, ptrRecv := sig.Recv().Type().(*types.Pointer); !ptrRecv {
		return
	}
	r.consumed[ix] = true
	r.record(hbAccess{key: key, index: ix.Index, env: env,
		pos: call.Pos(), what: "pointer-receiver call " + sel.Sel.Name + " on element", write: true})
}

func (r *hbRegion) record(acc hbAccess) {
	r.accesses = append(r.accesses, acc)
}

// classify resolves a container expression to a canonical spelling and its
// sharing class, following one local alias hop (rows := e.rows) so aliased
// backing arrays are still checked. A slice-expression alias over shared
// storage is the shared container itself — unless its bounds form the
// per-worker-row pattern shared[w*K : (w+1)*K], which is provably disjoint
// across worker ids and therefore private to this worker.
func (r *hbRegion) classify(x ast.Expr, env *ssa.Env) (string, hbClass) {
	x = ast.Unparen(x)
	root := rootObject(r.p, x)
	if root == nil {
		return "", hbLocal
	}
	if r.isShared(root) {
		return types.ExprString(x), hbShared
	}
	if _, isIdent := x.(*ast.Ident); isIdent {
		if d := env.Lookup(root); d != nil && d.Src != nil {
			src := ast.Unparen(d.Src)
			if sl, ok := src.(*ast.SliceExpr); ok {
				if broot := rootObject(r.p, sl.X); broot != nil && r.isShared(broot) {
					if r.isWorkerRow(sl) {
						return types.ExprString(src), hbPrivateRow
					}
					return types.ExprString(src), hbShared
				}
				return "", hbLocal
			}
			if sroot := rootObject(r.p, src); sroot != nil && r.isShared(sroot) {
				if !isIndexed(src) {
					return types.ExprString(src), hbShared
				}
			}
		}
	}
	return "", hbLocal
}

// isWorkerRow reports whether the slice bounds are w*K and (w+1)*K for the
// region's worker-id parameter and a syntactically identical K: for any K,
// distinct worker ids then address disjoint ranges.
func (r *hbRegion) isWorkerRow(sl *ast.SliceExpr) bool {
	if r.w == nil || sl.Low == nil || sl.High == nil || sl.Slice3 {
		return false
	}
	kLow, plusLow, ok := r.matchScaledW(sl.Low)
	if !ok || plusLow {
		return false
	}
	kHigh, plusHigh, ok := r.matchScaledW(sl.High)
	if !ok || !plusHigh {
		return false
	}
	return types.ExprString(kLow) == types.ExprString(kHigh)
}

// matchScaledW decomposes e as w*K or (w+1)*K (either operand order),
// returning the scale K and whether the worker factor was w+1.
func (r *hbRegion) matchScaledW(e ast.Expr) (k ast.Expr, plusOne, ok bool) {
	mul, isMul := ast.Unparen(e).(*ast.BinaryExpr)
	if !isMul || mul.Op != token.MUL {
		return nil, false, false
	}
	for _, pair := range [2][2]ast.Expr{{mul.X, mul.Y}, {mul.Y, mul.X}} {
		factor, rest := ast.Unparen(pair[0]), pair[1]
		if r.isWorkerIdent(factor) {
			return rest, false, true
		}
		if add, isAdd := factor.(*ast.BinaryExpr); isAdd && add.Op == token.ADD {
			if r.isWorkerIdent(ast.Unparen(add.X)) && isIntLiteralOne(add.Y) ||
				r.isWorkerIdent(ast.Unparen(add.Y)) && isIntLiteralOne(add.X) {
				return rest, true, true
			}
		}
	}
	return nil, false, false
}

func (r *hbRegion) isWorkerIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && r.p.Pkg.Info.ObjectOf(id) == r.w
}

func isIntLiteralOne(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Kind == token.INT && lit.Value == "1"
}

func isIndexed(e ast.Expr) bool {
	_, ok := e.(*ast.IndexExpr)
	return ok
}

// isShared reports whether the object is shared across workers: the
// method receiver, a package-level variable, or (for literal workers)
// anything captured from outside the literal.
func (r *hbRegion) isShared(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	if r.recv != nil && obj == r.recv {
		return true
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return true
	}
	if r.lit != nil {
		return obj.Pos() < r.lit.Pos() || obj.Pos() > r.lit.End()
	}
	return false
}

func isMapType(p *Pass, container ast.Expr) bool {
	t := p.Pkg.Info.TypeOf(container)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
