package matching

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"mobiletel/internal/expansion"
	"mobiletel/internal/graph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/xrand"
)

// bruteNu is the reference ν(B(S)): an exhaustive search in which each
// member of S, in ascending order, either stays unmatched or takes each free
// neighbor outside S. Exponential; only for the small graphs the tests and
// FuzzCutMatcher decode.
func bruteNu(g *graph.Graph, inSet []bool) int {
	used := make([]bool, g.N())
	var rec func(u int) int
	rec = func(u int) int {
		for u < g.N() && !inSet[u] {
			u++
		}
		if u == g.N() {
			return 0
		}
		best := rec(u + 1)
		for _, v := range g.Neighbors(u) {
			if !inSet[v] && !used[v] {
				used[v] = true
				best = max(best, 1+rec(u+1))
				used[v] = false
			}
		}
		return best
	}
	return rec(0)
}

// sides lists the members of S and of V∖S in ascending node order: the
// nodes behind CutMatcher's left and right indices.
func sides(inSet []bool) (lefts, rights []int) {
	for u, in := range inSet {
		if in {
			lefts = append(lefts, u)
		} else {
			rights = append(rights, u)
		}
	}
	return lefts, rights
}

// validateMatching checks that (matchL, matchR) is a matching of size nu on
// B(S), whose left index l stands for node lefts[l] and right index r for
// node rights[r]: partners agree, every pair is an edge of g (so it crosses
// the cut) and nu pairs are matched.
func validateMatching(g *graph.Graph, lefts, rights []int, matchL, matchR []int32, nu int) error {
	if len(matchL) != len(lefts) || len(matchR) != len(rights) {
		return fmt.Errorf("pairing array lengths (%d,%d) != (%d,%d)",
			len(matchL), len(matchR), len(lefts), len(rights))
	}
	pairs := 0
	for l, r := range matchL {
		if r == unmatched {
			continue
		}
		if r < 0 || int(r) >= len(rights) {
			return fmt.Errorf("matchL[%d]=%d out of range", l, r)
		}
		if matchR[r] != int32(l) {
			return fmt.Errorf("matchL[%d]=%d but matchR[%d]=%d", l, r, r, matchR[r])
		}
		if !g.HasEdge(lefts[l], rights[r]) {
			return fmt.Errorf("pair (%d,%d) is not an edge", lefts[l], rights[r])
		}
		pairs++
	}
	for r, l := range matchR {
		if l != unmatched && (l < 0 || int(l) >= len(matchL) || matchL[l] != int32(r)) {
			return fmt.Errorf("matchR[%d]=%d has no partner pointing back", r, l)
		}
	}
	if pairs != nu {
		return fmt.Errorf("pairing has %d pairs, ν = %d", pairs, nu)
	}
	return nil
}

// checkCut evaluates ν(B(S)) with c and requires it to equal bruteNu and
// the pairing c leaves behind to be a valid matching of that size.
func checkCut(c *CutMatcher, g *graph.Graph, inSet []bool) error {
	nu := c.Nu(inSet)
	if want := bruteNu(g, inSet); nu != want {
		return fmt.Errorf("%v, S=%v: ν=%d, brute force %d", g, inSet, nu, want)
	}
	lefts, rights := sides(inSet)
	if err := validateMatching(g, lefts, rights, c.matchL[:len(lefts)], c.matchR[:len(rights)], nu); err != nil {
		return fmt.Errorf("%v, S=%v: %w", g, inSet, err)
	}
	return nil
}

// decodeCut reads a graph of at most 12 nodes and a cut from data: byte 0
// gives n = 2 + data[0]%11, bytes 1-2 the little-endian membership mask of
// S, and the remaining bits, one per node pair (u, v), u < v in
// lexicographic order, the edge set. Missing bytes read as zero.
func decodeCut(data []byte) (*graph.Graph, []bool) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	n := 2 + int(at(0))%11
	mask := int(at(1)) | int(at(2))<<8
	inSet := make([]bool, n)
	for u := range inSet {
		inSet[u] = mask>>u&1 == 1
	}
	b := graph.NewBuilder(n)
	k := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if at(3+k/8)>>(k%8)&1 == 1 {
				b.AddEdge(u, v)
			}
			k++
		}
	}
	return b.MustBuild(), inSet
}

// randomCut encodes, in decodeCut's format, a random instance: n uniform in
// [2, 12], a uniform cut, and each node pair an edge with probability 0.3.
func randomCut(seed uint64) []byte {
	rng := xrand.New(seed)
	n := 2 + rng.Intn(11)
	pairs := n * (n - 1) / 2
	data := make([]byte, 3+(pairs+7)/8)
	data[0] = byte(n - 2)
	data[1], data[2] = byte(rng.Uint64()), byte(rng.Uint64())
	for k := 0; k < pairs; k++ {
		if rng.Float64() < 0.3 {
			data[3+k/8] |= 1 << (k % 8)
		}
	}
	return data
}

// checkEncoded decodes one instance and checks its cut and then, with the
// same matcher, the complement cut, so reuse across cuts is covered too.
func checkEncoded(data []byte) error {
	g, inSet := decodeCut(data)
	c := NewCutMatcher(g)
	if err := checkCut(c, g, inSet); err != nil {
		return err
	}
	comp := make([]bool, len(inSet))
	for u, in := range inSet {
		comp[u] = !in
	}
	return checkCut(c, g, comp)
}

// hkInstances is how many randomCut seeds TestHopcroftKarpMatchesBruteForce
// checks and FuzzCutMatcher starts from.
const hkInstances = 200

func TestHopcroftKarpMatchesBruteForce(t *testing.T) {
	for seed := uint64(0); seed < hkInstances; seed++ {
		if err := checkEncoded(randomCut(seed)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzCutMatcher holds CutMatcher.Nu to bruteNu, and its pairing to
// validateMatching, on decoded graphs of at most 12 nodes.
func FuzzCutMatcher(f *testing.F) {
	for seed := uint64(0); seed < hkInstances; seed++ {
		f.Add(randomCut(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkEncoded(data); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPerfectMatchingOnCompleteBipartite(t *testing.T) {
	f := gen.CompleteBipartite(5, 5)
	inSet := make([]bool, f.N())
	for u := 0; u < 5; u++ {
		inSet[u] = true
	}
	c := NewCutMatcher(f.Graph)
	if err := checkCut(c, f.Graph, inSet); err != nil {
		t.Fatal(err)
	}
	if nu := c.Nu(inSet); nu != 5 {
		t.Fatalf("K_{5,5} matching size %d, want 5", nu)
	}
}

func TestEmptyBipartite(t *testing.T) {
	g := graph.NewBuilder(7).MustBuild()
	inSet := []bool{true, false, true, false, true, false, false}
	if err := checkCut(NewCutMatcher(g), g, inSet); err != nil {
		t.Fatal(err)
	}
	if nu := Nu(g, inSet); nu != 0 {
		t.Fatalf("edgeless graph matching size %d", nu)
	}
}

func TestZeroSides(t *testing.T) {
	// A cut with an empty side has no crossing edge.
	g := gen.Clique(4).Graph
	c := NewCutMatcher(g)
	for _, inSet := range [][]bool{make([]bool, 4), {true, true, true, true}} {
		if nu := c.Nu(inSet); nu != 0 {
			t.Fatalf("S=%v: matching size %d, want 0", inSet, nu)
		}
	}
}

func TestKnownSmallInstance(t *testing.T) {
	// S = {0, 1, 2}; crossing edges 0-3, 1-3, 1-4, 2-4, so {3, 4} is a
	// vertex cover of B(S) and ν = 2. Edges inside a side (0-1, 3-4) are not
	// in B(S).
	g := graph.NewBuilder(5).
		AddEdge(0, 3).AddEdge(1, 3).AddEdge(1, 4).AddEdge(2, 4).
		AddEdge(0, 1).AddEdge(3, 4).MustBuild()
	inSet := []bool{true, true, true, false, false}
	if nu := Nu(g, inSet); nu != 2 {
		t.Fatalf("matching size %d, want 2", nu)
	}
	if err := checkCut(NewCutMatcher(g), g, inSet); err != nil {
		t.Fatal(err)
	}
}

func TestNuSetLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a membership slice of the wrong length did not panic")
		}
	}()
	Nu(gen.Path(4).Graph, make([]bool, 5))
}

func TestCutGraphPath(t *testing.T) {
	// B(S) of a 6-path cut in the middle: three nodes a side and only the
	// 2-3 edge crossing.
	f := gen.Path(6)
	inSet := []bool{true, true, true, false, false, false}
	c := NewCutMatcher(f.Graph)
	nu := c.Nu(inSet)
	if c.curL != 3 || c.curR != 3 {
		t.Fatalf("cut sides %d,%d", c.curL, c.curR)
	}
	if len(c.adjDat) != 1 || c.lefts[2] != 2 || c.adjDat[0] != 0 {
		t.Fatalf("cut adjacency lefts=%v adj=%v, want the one edge from node 2 to node 3 (right index 0)",
			c.lefts, c.adjDat)
	}
	if nu != 1 {
		t.Fatalf("ν = %d, want 1", nu)
	}
}

func TestNuOnCliqueHalfCut(t *testing.T) {
	f := gen.Clique(8)
	inSet := make([]bool, 8)
	for i := 0; i < 4; i++ {
		inSet[i] = true
	}
	if nu := Nu(f.Graph, inSet); nu != 4 {
		t.Fatalf("K_8 half-cut ν = %d, want 4", nu)
	}
}

func TestLemmaV1OnKnownFamilies(t *testing.T) {
	// Lemma V.1: γ >= α/4. This is a theorem — a violation indicates a bug
	// in our matching or expansion code.
	families := []gen.Family{
		gen.Clique(8),
		gen.Path(10),
		gen.Cycle(12),
		gen.Star(9),
		gen.LineOfStars(3, 3),
		gen.RingOfCliques(3, 4),
		gen.Barbell(5),
		gen.CompleteBinaryTree(3),
	}
	for _, f := range families {
		gamma := GammaExact(f.Graph)
		alpha, _ := expansion.Exact(f.Graph)
		if gamma < alpha/4 {
			t.Errorf("%s: γ=%.4f < α/4=%.4f — Lemma V.1 violated", f.Name, gamma, alpha/4)
		}
	}
}

func TestLemmaV1OnRandomGraphs(t *testing.T) {
	rng := xrand.New(2024)
	for trial := 0; trial < 25; trial++ {
		g := randomConnected(rng, 7+trial%6, 0.4)
		gamma := GammaExact(g)
		alpha, _ := expansion.Exact(g)
		if gamma < alpha/4 {
			t.Fatalf("random graph %v: γ=%.4f < α/4=%.4f — Lemma V.1 violated", g, gamma, alpha/4)
		}
	}
}

func TestGammaExactMatchesBruteForce(t *testing.T) {
	// GammaExact reuses one CutMatcher over every cut in Gray-code order;
	// the reference takes each cut's ν from bruteNu.
	rng := xrand.New(77)
	for trial := 0; trial < 20; trial++ {
		g := randomConnected(rng, 4+trial%7, 0.35)
		n := g.N()
		want := math.Inf(1)
		inSet := make([]bool, n)
		for mask := 1; mask < 1<<n; mask++ {
			size := bits.OnesCount(uint(mask))
			if size > n/2 {
				continue
			}
			for u := range inSet {
				inSet[u] = mask>>u&1 == 1
			}
			want = min(want, float64(bruteNu(g, inSet))/float64(size))
		}
		if got := GammaExact(g); got != want {
			t.Fatalf("%v: GammaExact %v, brute force %v", g, got, want)
		}
	}
}

func TestGammaAtMostOne(t *testing.T) {
	// ν(B(S)) ≤ |S| so γ ≤ 1 for any graph.
	rng := xrand.New(5)
	for trial := 0; trial < 10; trial++ {
		g := randomConnected(rng, 8, 0.5)
		if gamma := GammaExact(g); gamma > 1 {
			t.Fatalf("γ=%v > 1", gamma)
		}
	}
}

func TestGammaExactBoundsChecked(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized GammaExact did not panic")
		}
	}()
	GammaExact(gen.Cycle(21).Graph)
}

func TestValidateMatchingCatchesCorruption(t *testing.T) {
	// The 4-path 0-1-2-3 cut as S = {0, 2}: B(S) has the edges 0-1, 2-1
	// and 2-3, and ν = 2 (0-1, 2-3).
	g := gen.Path(4).Graph
	inSet := []bool{true, false, true, false}
	lefts, rights := sides(inSet)
	c := NewCutMatcher(g)
	nu := c.Nu(inSet)
	mL, mR := c.matchL[:2], c.matchR[:2]
	if err := validateMatching(g, lefts, rights, mL, mR, nu); err != nil {
		t.Fatal(err)
	}

	// Corrupt: break partner symmetry.
	badR := append([]int32(nil), mR...)
	badR[0] = unmatched
	if err := validateMatching(g, lefts, rights, mL, badR, nu); err == nil {
		t.Fatal("asymmetric pairing not caught")
	}

	// Corrupt: claim a non-edge (0-3).
	if err := validateMatching(g, lefts, rights, []int32{1, 0}, []int32{1, 0}, nu); err == nil {
		t.Fatal("non-edge pair not caught")
	}

	// Corrupt: wrong lengths.
	if err := validateMatching(g, lefts, rights, mL[:1], mR, nu); err == nil {
		t.Fatal("length mismatch not caught")
	}

	// Corrupt: a size the pairing does not have.
	if err := validateMatching(g, lefts, rights, mL, mR, nu+1); err == nil {
		t.Fatal("size mismatch not caught")
	}
}

func randomConnected(rng *xrand.RNG, n int, p float64) *graph.Graph {
	for {
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					b.AddEdge(u, v)
				}
			}
		}
		g := b.MustBuild()
		if g.Connected() {
			return g
		}
	}
}

func BenchmarkCutMatching(b *testing.B) {
	f := gen.RingOfCliques(20, 10)
	inSet := make([]bool, f.N())
	for i := 0; i < f.N()/2; i++ {
		inSet[i] = true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Nu(f.Graph, inSet)
	}
}
