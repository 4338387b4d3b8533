// Package stats provides the statistical plumbing the experiment harness
// uses to read "with high probability" theorems empirically: trial
// aggregation with quantiles, and least-squares fits (including log-log
// fits for estimating scaling exponents like the Δ² in Theorem VI.1).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of float64 observations.
type Summary struct {
	Count  int
	Mean   float64
	Std    float64 // sample standard deviation (n-1)
	Min    float64
	Max    float64
	Median float64
	P90    float64
	P99    float64
}

// Summarize computes a Summary. It panics on an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: Summarize on empty sample")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)

	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	mean := sum / float64(len(sorted))
	varSum := 0.0
	for _, x := range sorted {
		d := x - mean
		varSum += d * d
	}
	std := 0.0
	if len(sorted) > 1 {
		std = math.Sqrt(varSum / float64(len(sorted)-1))
	}
	return Summary{
		Count:  len(sorted),
		Mean:   mean,
		Std:    std,
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Median: Quantile(sorted, 0.5),
		P90:    Quantile(sorted, 0.9),
		P99:    Quantile(sorted, 0.99),
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) of a sorted sample using
// linear interpolation between order statistics.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile on empty sample")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// IntSummary converts integer observations (e.g. stabilization rounds) and
// summarizes them.
func IntSummary(xs []int) Summary {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Summarize(fs)
}

// Fit is a least-squares line y = Slope*x + Intercept with goodness R2.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearFit computes the ordinary least squares fit of y on x.
// It panics if the slices differ in length or have fewer than 2 points.
func LinearFit(x, y []float64) Fit {
	if len(x) != len(y) {
		panic("stats: LinearFit length mismatch")
	}
	n := float64(len(x))
	if len(x) < 2 {
		panic("stats: LinearFit needs at least 2 points")
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
		syy += y[i] * y[i]
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		panic("stats: LinearFit degenerate x values")
	}
	slope := (n*sxy - sx*sy) / denom
	intercept := (sy - slope*sx) / n

	// R² = 1 - SSres/SStot.
	meanY := sy / n
	ssTot, ssRes := 0.0, 0.0
	for i := range x {
		pred := slope*x[i] + intercept
		ssRes += (y[i] - pred) * (y[i] - pred)
		ssTot += (y[i] - meanY) * (y[i] - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Fit{Slope: slope, Intercept: intercept, R2: r2}
}

// LogLogFit fits log(y) = Slope*log(x) + Intercept, i.e. estimates the
// exponent p in y ≈ c·x^p. All inputs must be strictly positive.
func LogLogFit(x, y []float64) Fit {
	lx := make([]float64, len(x))
	ly := make([]float64, len(y))
	for i := range x {
		if x[i] <= 0 || y[i] <= 0 {
			panic("stats: LogLogFit needs positive values")
		}
		lx[i] = math.Log(x[i])
		ly[i] = math.Log(y[i])
	}
	return LinearFit(lx, ly)
}
