package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples a reported percentile must leave above
// it: a tail percentile estimated from fewer samples is one outlier wide.
const minBeyond = 10

// Percentiles are parts per ten thousand, so the rank arithmetic is exact
// (0.95·200 is 190.00000000000003 in float64).
const (
	p50 = 5000
	p75 = 7500
	p90 = 9000
)

// rank is the 1-based nearest-rank position of percentile p among n
// samples: the smallest k with k/n ≥ p/10000.
func rank(n, p int) int {
	k := (n*p + 9999) / 10000
	if k < 1 {
		k = 1
	}
	return k
}

// beyond is how many of n samples lie strictly above percentile p.
func beyond(n, p int) int { return n - rank(n, p) }

// minSamples is the smallest sample count leaving minBeyond samples above
// percentile p: 20 for the median, 100 for p90, 1000 for p99.
func minSamples(p int) int {
	n := 1
	for beyond(n, p) < minBeyond {
		n++
	}
	return n
}

// latencies holds one run's op latencies in seconds. A failed op counts as
// missing every latency limit, so it ranks above all successful ops; if a
// percentile lands on one, its own duration (a lower bound) is reported.
type latencies struct {
	ok, failed []float64
}

func (l *latencies) add(sec float64, failed bool) {
	if failed {
		l.failed = append(l.failed, sec)
	} else {
		l.ok = append(l.ok, sec)
	}
}

func (l *latencies) n() int { return len(l.ok) + len(l.failed) }

// percentile returns the nearest-rank percentile p and whether minBeyond
// samples lie above it.
func (l *latencies) percentile(p int) (float64, bool) {
	n := l.n()
	if n == 0 {
		return 0, false
	}
	all := make([]float64, 0, n)
	all = append(all, l.ok...)
	sort.Float64s(all)
	failed := append([]float64(nil), l.failed...)
	sort.Float64s(failed)
	all = append(all, failed...)
	return all[rank(n, p)-1], beyond(n, p) >= minBeyond
}

// opSample is one timed op: its duration, when it ended (seconds since the
// timed loop started) and whether it failed.
type opSample struct {
	sec, end float64
	failed   bool
}

// windowOps is how many consecutive ops each of a run's latency and
// throughput figures covers: the fewest that leave ten beyond p90.
var windowOps = minSamples(p90)

// figures are a run's latency and throughput figures.
type figures struct {
	p50, tail, perSec float64 // seconds, seconds, ops per second
	windows           int
	tailOK            bool // every window has ten samples beyond the tail
}

// windowed splits the ops, in issue order, into windows of w and reports
// the median over the windows of each window's p50, tail percentile and
// throughput. A slow stretch of the host then moves a few windows rather
// than the figures; over a whole run, the stretch would supply most of the
// slowest ops and set the tail by itself.
func windowed(samples []opSample, w, tailP int) figures {
	var p50s, tails, rates []float64
	f := figures{tailOK: true}
	for _, win := range windows(len(samples), w) {
		var l latencies
		for _, s := range samples[win[0]:win[1]] {
			l.add(s.sec, s.failed)
		}
		m, _ := l.percentile(p50)
		t, ok := l.percentile(tailP)
		f.tailOK = f.tailOK && ok
		begin := 0.0
		if win[0] > 0 {
			begin = samples[win[0]-1].end
		}
		p50s = append(p50s, m)
		tails = append(tails, t)
		rates = append(rates, ratio(float64(win[1]-win[0]), samples[win[1]-1].end-begin))
		f.windows++
	}
	f.p50, f.tail, f.perSec = median(p50s), median(tails), median(rates)
	return f
}

// windows splits n ops, in issue order, into consecutive windows of w ops,
// as [start, end) index pairs; the last window takes the remainder, so each
// has at least w ops. Fewer than w ops make one window.
func windows(n, w int) [][2]int {
	w = max(w, 1)
	var out [][2]int
	for lo := 0; lo < n; lo += w {
		hi := lo + w
		if hi > n || n-hi < w {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
		if hi == n {
			break
		}
	}
	return out
}

// median of xs (the mean of the middle two for an even count); 0 if empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is a/b, or 0 when b is 0, so an unexercised layer reads 0 rather
// than NaN.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) {
		return 0
	}
	return a / b
}
