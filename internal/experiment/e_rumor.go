package experiment

import (
	"fmt"

	"mobiletel/internal/bounds"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/matching"
	"mobiletel/internal/rumor"
	"mobiletel/internal/sim"
	"mobiletel/internal/stats"
	"mobiletel/internal/trace"
	"mobiletel/internal/xrand"
)

func init() {
	register(Experiment{
		ID: "E5-ppush-approx",
		Claim: "Theorem V.2: over r stable rounds, PPUSH informs at least " +
			"m/f(r) nodes across a cut with an m-matching, f(r) = Δ^{1/r}·c·r·log n " +
			"— so the informed fraction rises steeply with the stable stretch r.",
		Run: runE5,
	})
}

// e5CutGraph builds the Theorem V.2 scenario: bipartitions L (informed) and
// R (uninformed) of m nodes each, a planted perfect matching L_i–R_i, plus
// extra random cross edges until informed-side degrees approach targetDeg —
// creating the contention PPUSH must fight through.
func e5CutGraph(m, targetDeg int, seed uint64) *graph.Graph {
	rng := xrand.New(seed)
	b := graph.NewBuilder(2 * m)
	type edge struct{ l, r int }
	seen := make(map[edge]bool, m*targetDeg)
	add := func(l, r int) {
		e := edge{l, r}
		if !seen[e] {
			seen[e] = true
			b.AddEdge(l, m+r)
		}
	}
	for i := 0; i < m; i++ {
		add(i, i)
	}
	for i := 0; i < m; i++ {
		for d := 1; d < targetDeg; d++ {
			add(i, rng.Intn(m))
		}
	}
	return b.MustBuild()
}

func runE5(cfg Config) (*trace.Table, error) {
	trials := pickTrials(cfg, 10, 30)
	m := pick(cfg.Quick, 64, 256)
	targetDeg := pick(cfg.Quick, 8, 16)

	table := trace.NewTable("E5 PPUSH matching approximation over stable stretches (Theorem V.2)",
		"m", "Δ", "r", "median informed frac", "min frac", "1/f(r) with c=1", "matching ν")

	// Confirm the planted cut really has an m-matching (Hopcroft–Karp).
	probe := e5CutGraph(m, targetDeg, xrand.Mix3(cfg.Seed, 5, 0))
	inSet := make([]bool, 2*m)
	for i := 0; i < m; i++ {
		inSet[i] = true
	}
	nu := matching.Nu(probe, inSet)

	maxR := max(bounds.Log2(probe.MaxDegree()), 1)
	heavy := targetDeg - 1
	horizon := 6
	taus := []int{1, 2, 3, horizon}

	// Both sweeps share one batch: points 0..maxR-1 are the first, the
	// last len(taus) the second. A cell is the trial's count of newly
	// informed nodes at its horizon: PPUSH with the left half L = 0..m-1
	// informed, run for exactly that many rounds.
	newly, err := RunCells(cfg, maxR+len(taus), trials, func(p, trial int) (int, error) {
		var sched dyngraph.Schedule
		var seed uint64
		h := horizon
		if p < maxR {
			// First sweep: r = p+1 stable rounds on one cut graph.
			h, seed = p+1, trialSeed(cfg.Seed, p+1, trial)
			g := e5CutGraph(m, targetDeg, xrand.Mix3(seed, 7, 0))
			sched = dyngraph.NewStatic(gen.Family{Name: "e5cut", Graph: g})
		} else {
			// Second sweep: the τ effect proper. Fix a horizon and
			// re-randomize the cut graph every τ rounds using the attractor
			// construction below: the planted matching (hence ν = m)
			// survives every epoch, but each fresh epoch hides it behind
			// heavy edges to a small rotating attractor set. One stable
			// round mostly floods the attractors; only the *second* stable
			// round on the same graph lets informed nodes find their hidden
			// matching partners. Larger τ therefore raises the informed
			// fraction at the horizon — the mechanism behind the Δ^{1/τ̂}
			// term of Theorems VII.2 and VIII.2.
			tau := taus[p-maxR]
			seed = trialSeed(cfg.Seed, 5000+tau, trial)
			sched = dyngraph.NewRegenerate("e5attract", tau, seed, func(s uint64) gen.Family {
				return gen.Family{Name: "e5attract", Graph: e5AttractorGraph(m, heavy, s)}
			})
			seed++ // the engine's seed
		}
		informed := make(map[int]bool, m)
		for i := 0; i < m; i++ {
			informed[i] = true
		}
		protocols := rumor.NewPPushNetwork(2*m, informed)
		if _, err := runTrial(cfg, p, trial, trialRun{sched: sched, protocols: protocols,
			cfg:  sim.Config{Seed: seed, TagBits: 1, MaxRounds: h},
			stop: atHorizon(h)}); err != nil {
			return 0, err
		}
		return rumor.CountInformed(protocols) - m, nil
	})
	if err != nil {
		return nil, err
	}

	fracs := func(point int) stats.Summary {
		f := make([]float64, trials)
		for trial, k := range newly[point] {
			f[trial] = float64(k) / float64(m)
		}
		return stats.Summarize(f)
	}
	for r := 1; r <= maxR; r++ {
		s := fracs(r - 1)
		delta := probe.MaxDegree()
		fr := bounds.F(r, delta, 2*m)
		table.AddRow(m, delta, r, s.Median, s.Min, 1/fr, nu)
	}
	for ti, tau := range taus {
		s := fracs(maxR + ti)
		table.AddRow(m, heavy+1, fmt.Sprintf("τ=%d (horizon %d)", tau, horizon),
			s.Median, s.Min, "", nu)
	}
	return table, nil
}

// e5AttractorGraph builds the contention cut for the τ sweep: bipartitions
// L (informed roles, nodes 0..m-1) and R (uninformed roles, nodes m..2m-1),
// a planted perfect matching L_i–R_i, plus `heavy` edges from each L node
// to a small attractor subset of R (size m/16, re-drawn per seed). On a
// fresh graph, PPUSH proposals overwhelmingly land on the few attractors;
// the hidden matching only resolves once the attractors are informed, which
// takes an extra stable round.
func e5AttractorGraph(m, heavy int, seed uint64) *graph.Graph {
	rng := xrand.New(seed)
	attractors := rng.Perm(m)[:max(1, m/16)]
	b := graph.NewBuilder(2 * m)
	type edge struct{ l, r int }
	seen := make(map[edge]bool, m*(heavy+1))
	add := func(l, r int) {
		e := edge{l, r}
		if !seen[e] {
			seen[e] = true
			b.AddEdge(l, m+r)
		}
	}
	for i := 0; i < m; i++ {
		add(i, i)
		for d := 0; d < heavy; d++ {
			add(i, attractors[rng.Intn(len(attractors))])
		}
	}
	return b.MustBuild()
}
