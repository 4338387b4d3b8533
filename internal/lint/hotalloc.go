package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotalloc statically certifies the zero-allocation contract that
// TestSteadyStateZeroAllocs pins at runtime: no function on the simulator's
// steady-state round path may allocate. Functions whose doc comment carries
// the //mtmlint:hotpath directive are certification roots; the analyzer
// walks every statically-resolvable call reachable from them — across
// module packages — and flags each construct that can allocate:
//
//   - make of maps, channels, and slices; new; map and slice literals;
//     &composite literals (potential heap escape);
//   - append (growth reallocates), closures that capture variables,
//     method-value bindings, go statements (a goroutine spawn allocates
//     its stack);
//   - string concatenation, string<->[]byte conversions, boxing a
//     non-pointer value into an interface, and calls into standard-library
//     packages outside a small audited allowlist (sync, sync/atomic,
//     math, math/bits) — fmt in particular.
//
// Steady-state idioms the round loop depends on are recognized, not
// suppressed, so the real tree certifies with zero waivers:
//
//   - amortized growth: `x = make(...)` or `x = append(x, ...)` guarded by
//     an enclosing if whose condition measures cap(x) or len(x) — the
//     Context.nbr candidate scratch — and self-append to a struct field
//     or package variable (high-water-mark scratch such as the
//     obs.WorkerBuf event buffer);
//   - panic-cold code: allocations inside panic arguments, or in a block
//     that ends by panicking, never run in the steady state;
//   - closures passed directly to sort.Search, which is documented
//     non-escaping (graph.BalancedChunks' boundary search);
//   - runtime.Gosched, the pure scheduler yield the worker pool's spin
//     loops lean on (see workerPool.dispatch/await).
//
// A //mtmlint:hotpath-end <reason> comment inside a function ends the
// certified region at that line: nothing past it is flagged, and calls past
// it do not pull their callees into the certification walk. stepCore's
// opt-in invariant audit (Config.Check) sits after one. Dynamic calls —
// interface methods, func-typed fields and parameters — are boundaries
// this analyzer cannot see across; the protocol callbacks behind them are
// certified separately (their implementations carry their own hotpath
// roots or runtime pins).
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "certify //mtmlint:hotpath call graphs allocation-free in the steady state",
	Run:  runHotalloc,
}

// hotStdlibAllowed lists stdlib packages whose functions are audited
// allocation-free (for the subset a hot path plausibly calls).
var hotStdlibAllowed = map[string]bool{
	"sync":        true,
	"sync/atomic": true,
	"math":        true,
	"math/bits":   true,
}

func runHotalloc(p *Pass) {
	w := &hotWalker{
		p:       p,
		visited: make(map[*types.Func]bool),
		decls:   map[string]map[*types.Func]*ast.FuncDecl{},
		pkgs:    map[string]*Package{},
	}
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !docHasDirective(fd.Doc, "hotpath") {
				continue
			}
			fn, _ := p.Pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil || fd.Body == nil {
				continue
			}
			w.walkFunc(fn, fd, p.Pkg, hotFuncName(fn))
		}
	}
}

type hotWalker struct {
	p       *Pass
	visited map[*types.Func]bool
	decls   map[string]map[*types.Func]*ast.FuncDecl
	pkgs    map[string]*Package
}

// declFor resolves a module-local function to its declaration and package,
// loading the defining package on demand through the Pass's Loader.
func (w *hotWalker) declFor(fn *types.Func) (*ast.FuncDecl, *Package) {
	if fn.Pkg() == nil {
		return nil, nil
	}
	path := fn.Pkg().Path()
	mod := w.p.ModulePath
	if path != mod && !strings.HasPrefix(path, mod+"/") {
		return nil, nil
	}
	pkg, ok := w.pkgs[path]
	if !ok {
		pkg, _ = w.p.Loader.PackageFor(path)
		w.pkgs[path] = pkg
	}
	if pkg == nil {
		return nil, nil
	}
	idx, ok := w.decls[path]
	if !ok {
		idx = funcDecls(pkg)
		w.decls[path] = idx
	}
	return idx[fn], pkg
}

// hotpathEndPos returns the position of a //mtmlint:hotpath-end directive
// inside the function body, or NoPos.
func hotpathEndPos(pkg *Package, decl *ast.FuncDecl) token.Pos {
	for _, f := range pkg.Files {
		if decl.Pos() < f.Pos() || decl.Pos() > f.End() {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "//mtmlint:hotpath-end") &&
					c.Pos() > decl.Body.Pos() && c.Pos() < decl.Body.End() {
					return c.Pos()
				}
			}
		}
	}
	return token.NoPos
}

func hotFuncName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

func (w *hotWalker) walkFunc(fn *types.Func, decl *ast.FuncDecl, pkg *Package, path string) {
	if w.visited[fn] {
		return
	}
	w.visited[fn] = true
	fw := &hotFuncWalk{
		w: w, pkg: pkg, path: path,
		cutoff: hotpathEndPos(pkg, decl),
	}
	fw.walk(decl.Body)
}

// hotFuncWalk certifies one function body. It keeps an explicit ancestor
// stack so flag sites can consult enclosing panics, guards, and calls.
type hotFuncWalk struct {
	w      *hotWalker
	pkg    *Package
	path   string
	cutoff token.Pos
	stack  []ast.Node
}

func (f *hotFuncWalk) info() *types.Info { return f.pkg.Info }

func (f *hotFuncWalk) flag(n ast.Node, format string, args ...any) {
	if f.cutoff.IsValid() && n.Pos() > f.cutoff {
		return // past the //mtmlint:hotpath-end region boundary
	}
	if f.isCold() {
		return // only runs while panicking
	}
	f.w.p.ReportExplained(n.Pos(), []string{"hot path: " + f.path}, format, args...)
}

// isCold reports whether the current node sits in panic-only code: inside
// the arguments of a panic call, or in a block that ends by panicking.
func (f *hotFuncWalk) isCold() bool {
	for _, anc := range f.stack {
		switch a := anc.(type) {
		case *ast.CallExpr:
			if f.isPanic(a) {
				return true
			}
		case *ast.BlockStmt:
			if len(a.List) > 0 && f.isPanicStmt(a.List[len(a.List)-1]) {
				return true
			}
		case *ast.CaseClause:
			if len(a.Body) > 0 && f.isPanicStmt(a.Body[len(a.Body)-1]) {
				return true
			}
		}
	}
	return false
}

func (f *hotFuncWalk) isPanicStmt(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	return ok && f.isPanic(call)
}

func (f *hotFuncWalk) isPanic(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := f.info().Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

func (f *hotFuncWalk) parent() ast.Node {
	if len(f.stack) < 2 {
		return nil
	}
	return f.stack[len(f.stack)-2]
}

func (f *hotFuncWalk) walk(root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			f.stack = f.stack[:len(f.stack)-1]
			return false
		}
		f.stack = append(f.stack, n)
		keep := f.check(n)
		if !keep {
			f.stack = f.stack[:len(f.stack)-1]
		}
		return keep
	})
}

// check inspects one node; returning false prunes the subtree (the stack
// entry is popped by the caller).
func (f *hotFuncWalk) check(n ast.Node) bool {
	if f.cutoff.IsValid() && n.Pos() > f.cutoff {
		// Past the //mtmlint:hotpath-end region boundary: nothing here is
		// certified, so don't flag it and don't walk its callees.
		return false
	}
	switch x := n.(type) {
	case *ast.GoStmt:
		f.flag(x, "go statement in the hot path: spawning a goroutine allocates its stack and defer records")
		return false
	case *ast.CallExpr:
		f.checkCall(x)
	case *ast.CompositeLit:
		switch f.info().TypeOf(x).Underlying().(type) {
		case *types.Map:
			f.flag(x, "map literal in the hot path allocates")
		case *types.Slice:
			f.flag(x, "slice literal in the hot path allocates its backing array")
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
				f.flag(x, "address of a composite literal may escape to the heap")
			}
		}
	case *ast.FuncLit:
		f.checkFuncLit(x)
	case *ast.BinaryExpr:
		if x.Op == token.ADD {
			if b, ok := f.info().TypeOf(x).Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				f.flag(x, "string concatenation in the hot path allocates")
			}
		}
	case *ast.SelectorExpr:
		f.checkMethodValue(x)
	}
	return true
}

func (f *hotFuncWalk) checkCall(call *ast.CallExpr) {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := f.info().Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				f.checkMake(call)
			case "new":
				f.flag(call, "new(T) in the hot path allocates")
			case "append":
				if !f.isAmortizedAppend(call) {
					f.flag(call, "append in the hot path may grow and reallocate; grow amortized scratch (a field self-append or cap-guarded make) instead")
				}
			case "print", "println":
				f.flag(call, "%s in the hot path may allocate", b.Name())
			}
			return
		}
	}
	// Type conversions.
	if tv, ok := f.info().Types[call.Fun]; ok && tv.IsType() {
		f.checkConversion(call, tv.Type)
		return
	}
	// Static function and method calls.
	if fn := staticFunc(f.info(), call.Fun); fn != nil && fn.Pkg() != nil {
		path := fn.Pkg().Path()
		mod := f.w.p.ModulePath
		switch {
		case path == mod || strings.HasPrefix(path, mod+"/"):
			if decl, pkg := f.w.declFor(fn); decl != nil && decl.Body != nil {
				f.w.walkFunc(fn, decl, pkg, f.path+" → "+hotFuncName(fn))
			}
			// Module-local calls without a body (interface methods) are
			// dynamic-dispatch boundaries: certified by their own roots.
		case hotStdlibAllowed[path]:
			// Audited allocation-free.
		case path == "sort" && fn.Name() == "Search":
			// sort.Search is non-escaping and allocation-free; its
			// callback closure is exempted in checkFuncLit.
		case path == "runtime" && fn.Name() == "Gosched":
			// A pure scheduler yield — the worker pool's spin loops call it
			// every iteration to stay live at GOMAXPROCS=1, and it never
			// allocates.
		case path == "fmt":
			f.flag(call, "fmt.%s in the hot path formats into fresh allocations", fn.Name())
			return
		default:
			f.flag(call, "call to %s.%s in the hot path may allocate (outside the audited stdlib allowlist)", path, fn.Name())
			return
		}
	}
	f.checkBoxing(call)
}

// checkMake flags make calls except the amortized-growth idiom
// `x = make(...)` under an if measuring cap(x) or len(x).
func (f *hotFuncWalk) checkMake(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	switch f.info().TypeOf(call.Args[0].(ast.Expr)).Underlying().(type) {
	case *types.Map:
		f.flag(call, "make(map) in the hot path allocates")
		return
	case *types.Chan:
		f.flag(call, "make(chan) in the hot path allocates")
		return
	}
	if f.isAmortizedMake(call) {
		return
	}
	f.flag(call, "make([]T) in the hot path allocates; reuse amortized scratch guarded by a cap check")
}

// assignTarget returns the spelling of the variable this call's result is
// assigned to, when the call is the sole RHS of an enclosing assignment.
func (f *hotFuncWalk) assignTarget(call *ast.CallExpr) (string, ast.Expr) {
	if as, ok := f.parent().(*ast.AssignStmt); ok && len(as.Rhs) == 1 && ast.Unparen(as.Rhs[0]) == call && len(as.Lhs) == 1 {
		lhs := ast.Unparen(as.Lhs[0])
		return types.ExprString(lhs), lhs
	}
	return "", nil
}

// isAmortizedMake recognizes `x = make(...)` inside an if (or else-branch)
// whose condition measures cap(x) or len(x) — capacity doubling.
func (f *hotFuncWalk) isAmortizedMake(call *ast.CallExpr) bool {
	target, _ := f.assignTarget(call)
	if target == "" {
		return false
	}
	for _, anc := range f.stack {
		ifs, ok := anc.(*ast.IfStmt)
		if !ok {
			continue
		}
		if condMeasures(ifs.Cond, target) {
			return true
		}
	}
	return false
}

// condMeasures reports whether cond contains cap(x) or len(x) for the
// given lvalue spelling.
func condMeasures(cond ast.Expr, target string) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		name := calleeName(call.Fun)
		if (name == "cap" || name == "len") && types.ExprString(ast.Unparen(call.Args[0])) == target {
			found = true
			return false
		}
		return true
	})
	return found
}

// isAmortizedAppend recognizes self-appends to amortized scratch:
// `x = append(x, ...)` where x is a struct field or package-level
// variable (a high-water-mark buffer), and `x = x[:0]`-style reuse makes
// growth amortized over the run. Self-append to a bare local is not
// amortized (the local dies each call) and stays flagged.
func (f *hotFuncWalk) isAmortizedAppend(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	target, lhs := f.assignTarget(call)
	if target == "" || types.ExprString(ast.Unparen(call.Args[0])) != target {
		return false
	}
	switch l := lhs.(type) {
	case *ast.SelectorExpr:
		return true // field scratch, e.g. c.nbr
	case *ast.Ident:
		obj := f.info().ObjectOf(l)
		return obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
	}
	return false
}

func (f *hotFuncWalk) checkConversion(call *ast.CallExpr, to types.Type) {
	if len(call.Args) != 1 {
		return
	}
	from := f.info().TypeOf(call.Args[0])
	if from == nil {
		return
	}
	toB, toIsBasic := to.Underlying().(*types.Basic)
	fromB, fromIsBasic := from.Underlying().(*types.Basic)
	if toIsBasic && toB.Info()&types.IsString != 0 {
		if !fromIsBasic || fromB.Info()&types.IsString == 0 {
			f.flag(call, "conversion to string in the hot path allocates")
		}
		return
	}
	if _, toSlice := to.Underlying().(*types.Slice); toSlice && fromIsBasic && fromB.Info()&types.IsString != 0 {
		f.flag(call, "string-to-slice conversion in the hot path allocates")
	}
}

// checkBoxing flags non-pointer concrete arguments passed to interface
// parameters (the conversion boxes the value on the heap).
func (f *hotFuncWalk) checkBoxing(call *ast.CallExpr) {
	sig, ok := f.info().TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() && i == params.Len()-1 {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := f.info().TypeOf(arg)
		if at == nil {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.Signature, *types.Map, *types.Chan, *types.Slice:
			continue // already reference-shaped; no boxing allocation
		}
		f.flag(arg, "passing %s to an interface parameter boxes it on the heap", types.TypeString(at, types.RelativeTo(f.pkg.Types)))
	}
}

// checkFuncLit flags closures that capture surrounding variables, except
// those handed directly to a known non-escaping callback taker.
func (f *hotFuncWalk) checkFuncLit(lit *ast.FuncLit) {
	if call, ok := f.parent().(*ast.CallExpr); ok {
		if fn := staticFunc(f.info(), call.Fun); fn != nil && fn.Pkg() != nil &&
			fn.Pkg().Path() == "sort" && fn.Name() == "Search" {
			return // documented non-escaping; the closure stays on the stack
		}
	}
	if name, ok := f.litCaptures(lit); ok {
		f.flag(lit, "closure captures %s and may allocate when it escapes", name)
	}
}

// litCaptures reports whether the literal captures any non-package-level
// variable declared outside it (package-level access compiles to direct
// loads and captures nothing).
func (f *hotFuncWalk) litCaptures(lit *ast.FuncLit) (string, bool) {
	var name string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := f.info().Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			name = v.Name()
			return false
		}
		return true
	})
	return name, name != ""
}

// checkMethodValue flags bound-method values (x.M used as a value, not
// called): binding allocates a closure over the receiver.
func (f *hotFuncWalk) checkMethodValue(sel *ast.SelectorExpr) {
	fn, ok := f.info().Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	if call, ok := f.parent().(*ast.CallExpr); ok && ast.Unparen(call.Fun) == sel {
		return // a plain method call, not a method value
	}
	f.flag(sel, "method value %s.%s binds its receiver in a heap closure", types.ExprString(sel.X), sel.Sel.Name)
}
