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

// rumorSpec builds the trial spec for rumor-spreading trials (PUSH-PULL when
// ppush is false) over an E1 grid point; trials complete when all nodes are
// informed.
func rumorSpec(baseSeed uint64, pointID int, pt e1Point, ppush bool) trialSpec {
	tagBits := 0
	if ppush {
		tagBits = 1
	}
	return trialSpec{
		Build: func(trial int) (dyngraph.Schedule, []sim.Protocol, sim.Config) {
			seed := trialSeed(baseSeed, pointID, trial)
			// Source is a pseudo-random node.
			src := int(xrand.Mix3(seed, 0x5c, 0) % uint64(pt.family.N()))
			var protocols []sim.Protocol
			if ppush {
				protocols = rumor.NewPPushNetwork(pt.family.N(), map[int]bool{src: true})
			} else {
				protocols = rumor.NewPushPullNetwork(pt.family.N(), map[int]bool{src: true})
			}
			var sched dyngraph.Schedule
			if pt.tau > 0 {
				sched = dyngraph.NewPermuted(pt.family, pt.tau, seed+1)
			} else {
				sched = dyngraph.NewStatic(pt.family)
			}
			return sched, protocols, sim.Config{Seed: seed + 2, TagBits: tagBits, MaxRounds: 50_000_000}
		},
		Stop: rumor.AllInformed,
		Check: func(_ int, protocols []sim.Protocol) error {
			if rumor.CountInformed(protocols) != len(protocols) {
				return fmt.Errorf("stop fired before full dissemination")
			}
			return nil
		},
	}
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

	maxR := core0Log2(probe.MaxDegree())
	heavy := targetDeg - 1
	horizon := 6
	taus := []int{1, 2, 3, horizon}

	// Both sweeps share one batch: points 0..maxR-1 are the first, the
	// last len(taus) the second. newly[point][trial] is the trial's count
	// of newly informed nodes at its horizon, stored by Check.
	newly := make([][]int, maxR+len(taus))
	specs := make([]pointSpec, 0, len(newly))
	// First sweep: r stable rounds on one cut graph.
	for r := 1; r <= maxR; r++ {
		newly[r-1] = make([]int, trials)
		specs = append(specs, pointSpec{Trials: trials, Spec: e5Spec(m, r, newly[r-1],
			func(trial int) (dyngraph.Schedule, uint64) {
				seed := trialSeed(cfg.Seed, r, trial)
				g := e5CutGraph(m, targetDeg, xrand.Mix3(seed, 7, 0))
				return dyngraph.NewStatic(gen.Family{Name: "e5cut", Graph: g}), seed
			})})
	}
	// Second sweep: the τ effect proper. Fix a horizon and re-randomize the
	// cut graph every τ rounds using the attractor construction below: the
	// planted matching (hence ν = m) survives every epoch, but each fresh
	// epoch hides it behind heavy edges to a small rotating attractor set.
	// One stable round mostly floods the attractors; only the *second*
	// stable round on the same graph lets informed nodes find their hidden
	// matching partners. Larger τ therefore raises the informed fraction at
	// the horizon — the mechanism behind the Δ^{1/τ̂} term of Theorems VII.2
	// and VIII.2.
	for ti, tau := range taus {
		newly[maxR+ti] = make([]int, trials)
		specs = append(specs, pointSpec{Trials: trials, Spec: e5Spec(m, horizon, newly[maxR+ti],
			func(trial int) (dyngraph.Schedule, uint64) {
				seed := trialSeed(cfg.Seed, 5000+tau, trial)
				sched := dyngraph.NewRegenerate("e5attract", tau, seed, func(s uint64) gen.Family {
					return gen.Family{Name: "e5attract", Graph: e5AttractorGraph(m, heavy, s)}
				})
				return sched, seed + 1
			})})
	}
	if _, err := runPointTrials(withoutCheckpoint(cfg), specs); err != nil {
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
		fr := fOfR(delta, r, 2*m)
		table.AddRow(m, delta, r, s.Median, s.Min, 1/fr, nu)
	}
	for ti, tau := range taus {
		s := fracs(maxR + ti)
		table.AddRow(m, heavy+1, fmt.Sprintf("τ=%d (horizon %d)", tau, horizon),
			s.Median, s.Min, "", nu)
	}
	return table, nil
}

// e5Spec is one E5 point: PPUSH with the left half L = 0..m-1 informed,
// run for exactly horizon rounds over the schedule sched returns with the
// trial's engine seed. Check stores each trial's count of newly informed
// nodes in newly[trial].
func e5Spec(m, horizon int, newly []int, sched func(trial int) (dyngraph.Schedule, uint64)) trialSpec {
	return trialSpec{
		Build: func(trial int) (dyngraph.Schedule, []sim.Protocol, sim.Config) {
			s, seed := sched(trial)
			informed := make(map[int]bool, m)
			for i := 0; i < m; i++ {
				informed[i] = true
			}
			return s, rumor.NewPPushNetwork(2*m, informed),
				sim.Config{Seed: seed, TagBits: 1, MaxRounds: horizon}
		},
		Stop: atHorizon(horizon),
		Check: func(trial int, protocols []sim.Protocol) error {
			newly[trial] = rumor.CountInformed(protocols) - m
			return nil
		},
	}
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
	attractors := rng.Perm(m)[:maxInt(1, m/16)]
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// fOfR evaluates the approximation factor f(r) = Δ^{1/r}·c·r·log₂ n with
// c = 1 (the theorem's constant is unspecified; shape is what matters).
func fOfR(delta, r, n int) float64 {
	return bounds.F(r, delta, n)
}

// core0Log2 is ⌈log₂ x⌉ with a floor of 1.
func core0Log2(x int) int {
	l := 0
	for v := x - 1; v > 0; v >>= 1 {
		l++
	}
	if l < 1 {
		l = 1
	}
	return l
}
