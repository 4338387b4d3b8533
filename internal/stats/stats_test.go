package stats

import (
	"math"
	"testing"
	"testing/quick"

	"mobiletel/internal/xrand"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarizeKnownSample(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Count != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary wrong: %+v", s)
	}
	if !almostEqual(s.Std, math.Sqrt(2.5), 1e-12) {
		t.Fatalf("std = %v", s.Std)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Std != 0 || s.Median != 7 || s.P99 != 7 {
		t.Fatalf("singleton summary wrong: %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty sample did not panic")
		}
	}()
	Summarize(nil)
}

func TestQuantileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if q := Quantile(sorted, 0.5); q != 5 {
		t.Fatalf("median of {0,10} = %v", q)
	}
	if q := Quantile(sorted, 0); q != 0 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(sorted, 1); q != 10 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile([]float64{1, 2, 3, 4}, 0.25); !almostEqual(q, 1.75, 1e-12) {
		t.Fatalf("q0.25 of {1..4} = %v", q)
	}
}

func TestQuantileOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("q=1.5 did not panic")
		}
	}()
	Quantile([]float64{1}, 1.5)
}

func TestQuantileOrderedProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		s := Summarize(xs)
		return s.Min <= s.Median && s.Median <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntSummary(t *testing.T) {
	s := IntSummary([]int{2, 4, 6})
	if s.Mean != 4 || s.Count != 3 {
		t.Fatalf("IntSummary wrong: %+v", s)
	}
}

func TestLinearFitExactLine(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{5, 7, 9, 11} // y = 2x + 3
	f := LinearFit(x, y)
	if !almostEqual(f.Slope, 2, 1e-12) || !almostEqual(f.Intercept, 3, 1e-12) {
		t.Fatalf("fit %+v", f)
	}
	if !almostEqual(f.R2, 1, 1e-12) {
		t.Fatalf("R2 = %v", f.R2)
	}
}

func TestLinearFitNoise(t *testing.T) {
	rng := xrand.New(5)
	x := make([]float64, 200)
	y := make([]float64, 200)
	for i := range x {
		x[i] = float64(i)
		y[i] = 3*x[i] + 10 + (rng.Float64()-0.5)*2
	}
	f := LinearFit(x, y)
	if !almostEqual(f.Slope, 3, 0.01) {
		t.Fatalf("slope %v", f.Slope)
	}
	if f.R2 < 0.999 {
		t.Fatalf("R2 %v too low", f.R2)
	}
}

func TestLinearFitDegeneratePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("constant x did not panic")
		}
	}()
	LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3})
}

func TestLogLogFitRecoverExponent(t *testing.T) {
	// y = 4 * x^2.5
	x := []float64{1, 2, 4, 8, 16, 32}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = 4 * math.Pow(x[i], 2.5)
	}
	f := LogLogFit(x, y)
	if !almostEqual(f.Slope, 2.5, 1e-9) {
		t.Fatalf("exponent %v, want 2.5", f.Slope)
	}
	if !almostEqual(math.Exp(f.Intercept), 4, 1e-9) {
		t.Fatalf("constant %v, want 4", math.Exp(f.Intercept))
	}
}

func TestLogLogFitRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive value did not panic")
		}
	}()
	LogLogFit([]float64{1, 0}, []float64{1, 1})
}
