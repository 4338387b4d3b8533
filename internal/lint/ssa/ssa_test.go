package ssa

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// harness type-checks src (the body of package p), seeds the parameters of
// the function named fn as interval symbols, runs the analysis, and returns
// the environment captured at every statement carrying a // probe comment,
// keyed by probe label.
type harness struct {
	t    *testing.T
	a    *Analysis
	envs map[string]*Env // probe label → env on entry to the probed stmt
	stmt map[string]ast.Stmt
	objs map[string]types.Object // param name → object
}

func run(t *testing.T, src, fn string) *harness {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", "package p\n\n"+src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatal(err)
	}
	var decl *ast.FuncDecl
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fn {
			decl = fd
		}
	}
	if decl == nil {
		t.Fatalf("no func %s", fn)
	}

	// Map probe comments to the line they sit on.
	probes := make(map[int]string) // line → label
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if rest, ok := strings.CutPrefix(c.Text, "// probe:"); ok {
				probes[fset.Position(c.Pos()).Line] = strings.TrimSpace(rest)
			}
		}
	}

	h := &harness{t: t, envs: make(map[string]*Env), stmt: make(map[string]ast.Stmt), objs: make(map[string]types.Object)}
	h.a = &Analysis{Info: info, Fset: fset, Visit: func(stmt ast.Stmt, env *Env) {
		if label, ok := probes[fset.Position(stmt.Pos()).Line]; ok {
			h.envs[label] = env
			h.stmt[label] = stmt
		}
	}}

	var seeds []*Def
	for _, field := range decl.Type.Params.List {
		for _, name := range field.Names {
			obj := info.Defs[name]
			h.objs[name.Name] = obj
			seeds = append(seeds, &Def{Obj: obj, Ival: SymI(obj), Kind: KindSeed,
				Pos: name.Pos(), Why: "parameter " + name.Name})
		}
	}
	h.a.Run(decl.Body, seeds)
	return h
}

// ivalAt evaluates expr (an expression over the probed function's
// variables, textually matched against the probed statement) at the probe.
func (h *harness) env(label string) *Env {
	env, ok := h.envs[label]
	if !ok {
		h.t.Fatalf("probe %q never visited (unreachable or mislabeled)", label)
	}
	return env
}

// lookupIval returns the interval of variable name at the probe.
func (h *harness) lookupIval(label, name string) Interval {
	env := h.env(label)
	for obj, d := range env.m {
		if obj.Name() == name {
			return d.Ival
		}
	}
	h.t.Fatalf("probe %q: no binding for %s", label, name)
	return Interval{}
}

func wantIval(t *testing.T, got Interval, want string) {
	t.Helper()
	if got.String() != want {
		t.Fatalf("interval = %s, want %s", got, want)
	}
}

func TestSeedAndAssign(t *testing.T) {
	h := run(t, `
func f(lo, hi int) {
	i := lo
	_ = i // probe: p1
	i = hi
	_ = i // probe: p2
}`, "f")
	wantIval(t, h.lookupIval("p1", "i"), "[lo, lo]")
	wantIval(t, h.lookupIval("p2", "i"), "[hi, hi]")
}

func TestForInduction(t *testing.T) {
	h := run(t, `
func f(lo, hi int, out []int) {
	for i := lo; i < hi; i++ {
		out[i] = i // probe: body
	}
	_ = out // probe: after
}`, "f")
	wantIval(t, h.lookupIval("body", "i"), "[lo, hi-1]")
	env := h.env("body")
	iv := h.a.Eval(env, indexExpr(t, h.stmt["body"]))
	wantIval(t, iv, "[lo, hi-1]")
	if !iv.WithinHalfOpen(SymB(h.objs["lo"], 0), SymB(h.objs["hi"], 0)) {
		t.Fatal("i not proven within [lo, hi)")
	}
}

func TestDerivedIndexGuard(t *testing.T) {
	// The canonical derived-index shape: out[i+1] guarded by i+1 < hi.
	h := run(t, `
func f(lo, hi int, out []int) {
	for i := lo; i < hi; i++ {
		if i+1 < hi {
			out[i+1] = 1 // probe: guarded
		}
		out[i+1] = 2 // probe: unguarded
	}
}`, "f")
	loB, hiB := SymB(h.objs["lo"], 0), SymB(h.objs["hi"], 0)

	g := h.a.Eval(h.env("guarded"), indexExpr(t, h.stmt["guarded"]))
	wantIval(t, g, "[lo+1, hi-1]")
	if !g.WithinHalfOpen(loB, hiB) {
		t.Fatal("guarded i+1 not proven within [lo, hi)")
	}
	u := h.a.Eval(h.env("unguarded"), indexExpr(t, h.stmt["unguarded"]))
	if u.WithinHalfOpen(loB, hiB) {
		t.Fatalf("unguarded i+1 wrongly proven in-bounds: %s", u)
	}
}

func TestGuardByEarlyContinue(t *testing.T) {
	// A terminating branch (continue) must leave the negated refinement
	// in force after the if.
	h := run(t, `
func f(lo, hi int, out []int) {
	for i := lo; i < hi; i++ {
		if i+1 >= hi {
			continue
		}
		out[i+1] = 1 // probe: after
	}
}`, "f")
	iv := h.a.Eval(h.env("after"), indexExpr(t, h.stmt["after"]))
	if !iv.WithinHalfOpen(SymB(h.objs["lo"], 0), SymB(h.objs["hi"], 0)) {
		t.Fatalf("i+1 after early continue not proven in-bounds: %s", iv)
	}
}

func TestJoinAtMerge(t *testing.T) {
	// The two branches bind x to different constants; the merge joins them.
	h := run(t, `
func f(c bool) {
	x := 0
	if c {
		x = 10
	} else {
		x = 3
	}
	_ = x // probe: merged
}`, "f")
	wantIval(t, h.lookupIval("merged", "x"), "[3, 10]")

	// The merged definition must be a phi over both branch definitions.
	env := h.env("merged")
	var d *Def
	for obj, dd := range env.m {
		if obj.Name() == "x" {
			d = dd
		}
	}
	if d.Kind != KindJoin || len(d.Preds) != 2 {
		t.Fatalf("merged def kind=%v preds=%d, want join with 2 preds", d.Kind, len(d.Preds))
	}
}

func TestJoinIncomparableWidens(t *testing.T) {
	h := run(t, `
func f(c bool, lo, hi int) {
	x := lo
	if c {
		x = hi
	}
	_ = x // probe: merged
}`, "f")
	// lo and hi are unrelated symbols: the join must widen to ⊤.
	if iv := h.lookupIval("merged", "x"); !iv.IsTop() {
		t.Fatalf("join of unrelated symbols = %s, want top", iv)
	}
}

func TestRangeIndex(t *testing.T) {
	h := run(t, `
func f(xs []int) {
	for i, v := range xs {
		_ = v
		_ = i // probe: body
	}
}`, "f")
	wantIval(t, h.lookupIval("body", "i"), "[0, +inf]")
}

func TestHavocOnAddressTaken(t *testing.T) {
	h := run(t, `
func g(p *int)
func f(lo int) {
	i := lo
	g(&i)
	_ = i // probe: after
}`, "f")
	if iv := h.lookupIval("after", "i"); !iv.IsTop() {
		t.Fatalf("address-taken local kept interval %s, want top", iv)
	}
}

func TestLoopBodyReassignmentWidens(t *testing.T) {
	h := run(t, `
func f(lo, hi int, out []int) {
	for i := lo; i < hi; i++ {
		if lo > 0 {
			i = 0
		}
		_ = i // probe: body
	}
}`, "f")
	// i is reassigned in the body: the induction interval must not hold.
	env := h.env("body")
	iv := Interval{}
	for obj, d := range env.m {
		if obj.Name() == "i" {
			iv = d.Ival
		}
	}
	if iv.WithinHalfOpen(SymB(h.objs["lo"], 0), SymB(h.objs["hi"], 0)) {
		t.Fatalf("reassigned induction var wrongly proven bounded: %s", iv)
	}
}

func TestMutatedBoundWidens(t *testing.T) {
	h := run(t, `
func f(lo, hi int) {
	for i := lo; i < hi; i++ {
		hi = hi + 1
		_ = i // probe: body
	}
}`, "f")
	iv := h.lookupIval("body", "i")
	if le, ok := iv.Hi.LE(SymB(h.objs["hi"], -1)); ok && le {
		t.Fatalf("bound mutated in body but i still proven < hi: %s", iv)
	}
}

func TestExplainChain(t *testing.T) {
	h := run(t, `
func f(lo, hi int, out []int) {
	for i := lo; i < hi; i++ {
		if i+1 < hi {
			out[i+1] = 1 // probe: site
		}
	}
}`, "f")
	lines := h.a.Explain(h.env("site"), indexExpr(t, h.stmt["site"]))
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"guard i + 1 < hi", "loop i :=", "i := lo"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("explanation missing %q:\n%s", want, joined)
		}
	}
}

func TestSwapAssignUsesPreState(t *testing.T) {
	h := run(t, `
func f(lo, hi int) {
	a, b := lo, hi
	a, b = b, a
	_ = a // probe: after
}`, "f")
	wantIval(t, h.lookupIval("after", "a"), "[hi, hi]")
	wantIval(t, h.lookupIval("after", "b"), "[lo, lo]")
}

func TestCompoundAssign(t *testing.T) {
	h := run(t, `
func f(lo int) {
	i := lo
	i += 2
	_ = i // probe: p1
	i -= 1
	_ = i // probe: p2
	i++
	_ = i // probe: p3
}`, "f")
	wantIval(t, h.lookupIval("p1", "i"), "[lo+2, lo+2]")
	wantIval(t, h.lookupIval("p2", "i"), "[lo+1, lo+1]")
	wantIval(t, h.lookupIval("p3", "i"), "[lo+2, lo+2]")
}

func TestBoundCompare(t *testing.T) {
	lo := ConstB(3)
	hi := ConstB(7)
	if le, ok := lo.LE(hi); !ok || !le {
		t.Fatal("3 <= 7 undecided")
	}
	if le, ok := hi.LE(lo); !ok || le {
		t.Fatal("7 <= 3 wrong")
	}
	// Distinct symbols are incomparable.
	h := run(t, `func f(a, b int) { _ = a // probe: p
}`, "f")
	sa, sb := SymB(h.objs["a"], 0), SymB(h.objs["b"], 0)
	if _, ok := sa.LE(sb); ok {
		t.Fatal("distinct symbols compared")
	}
	if le, ok := NegInf().LE(sa); !ok || !le {
		t.Fatal("-inf <= a failed")
	}
	if le, ok := sa.LE(PosInf()); !ok || !le {
		t.Fatal("a <= +inf failed")
	}
}

// indexExpr digs the index expression out of the probed statement's
// left-hand side (out[IDX] = …).
func indexExpr(t *testing.T, stmt ast.Stmt) ast.Expr {
	t.Helper()
	as, ok := stmt.(*ast.AssignStmt)
	if !ok {
		t.Fatalf("probed stmt is %T, want assignment", stmt)
	}
	ix, ok := as.Lhs[0].(*ast.IndexExpr)
	if !ok {
		t.Fatalf("probed lhs is %T, want index expression", as.Lhs[0])
	}
	return ix.Index
}
