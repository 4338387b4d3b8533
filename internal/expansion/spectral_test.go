package expansion_test

import (
	"math"
	"testing"

	"mobiletel/internal/expansion"
	"mobiletel/internal/graph/gen"
)

func TestSpectralGapCycleMatchesClosedForm(t *testing.T) {
	// For the n-cycle the normalized Laplacian eigenvalues are
	// 1 − cos(2πk/n); λ₂ = 1 − cos(2π/n).
	for _, n := range []int{8, 16, 40} {
		f := gen.Cycle(n)
		want := 1 - math.Cos(2*math.Pi/float64(n))
		got := expansion.SpectralGap(f.Graph, 3000)
		if math.Abs(got-want) > 1e-4 {
			t.Errorf("cycle(%d): λ₂ = %v, want %v", n, got, want)
		}
	}
}

func TestSpectralGapCompleteGraph(t *testing.T) {
	// K_n has normalized Laplacian eigenvalues 0 and n/(n−1).
	f := gen.Clique(10)
	want := 10.0 / 9.0
	got := expansion.SpectralGap(f.Graph, 2000)
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("K10: λ₂ = %v, want %v", got, want)
	}
}

func TestSpectralAlphaEstimateBelowExact(t *testing.T) {
	// The Cheeger-style estimate should sit at or below the exact α
	// (within the eigenvalue tolerance) on small regular-ish graphs.
	families := []gen.Family{
		gen.Cycle(12),
		gen.Clique(8),
		gen.Hypercube(3),
		gen.Petersen(),
		gen.RingOfCliques(3, 4),
	}
	for _, f := range families {
		exact, _ := expansion.Exact(f.Graph)
		est := expansion.SpectralAlphaEstimate(f.Graph, 3000)
		if est > exact*1.01+1e-9 {
			t.Errorf("%s: spectral estimate %v exceeds exact α %v", f.Name, est, exact)
		}
		if est <= 0 {
			t.Errorf("%s: spectral estimate %v not positive on a connected graph", f.Name, est)
		}
	}
}

func TestSpectralSandwichOnExpanders(t *testing.T) {
	// On a random regular expander, the spectral lower estimate and the
	// sweep upper bound must bracket a healthy constant range.
	f := gen.RandomRegular(256, 8, 5)
	lower := expansion.SpectralAlphaEstimate(f.Graph, 2000)
	upper, _ := expansion.SweepUpperBound(f.Graph)
	if lower <= 0.01 {
		t.Fatalf("expander spectral bound %v collapsed", lower)
	}
	if lower > upper*1.01 {
		t.Fatalf("sandwich inverted: spectral %v > sweep %v", lower, upper)
	}
}

func TestSpectralGapSmallOnBottleneck(t *testing.T) {
	// Barbell: two cliques joined by one edge — tiny spectral gap,
	// much smaller than the clique's.
	barbell := expansion.SpectralGap(gen.Barbell(8).Graph, 3000)
	clique := expansion.SpectralGap(gen.Clique(16).Graph, 3000)
	if barbell*10 > clique {
		t.Fatalf("barbell gap %v not much smaller than clique gap %v", barbell, clique)
	}
}

func TestSpectralGapPanics(t *testing.T) {
	cases := []func(){
		func() { expansion.SpectralGap(gen.Clique(1).Graph, 10) },
		func() { expansion.SpectralGap(gen.Clique(4).Graph, 0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkSpectralGap(b *testing.B) {
	f := gen.RandomRegular(1000, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expansion.SpectralGap(f.Graph, 200)
	}
}
