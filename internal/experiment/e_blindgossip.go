package experiment

import (
	"fmt"

	"mobiletel/internal/bounds"
	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/rumor"
	"mobiletel/internal/sim"
	"mobiletel/internal/stats"
	"mobiletel/internal/trace"
	"mobiletel/internal/xrand"
)

func init() {
	register(Experiment{
		ID: "E1-blindgossip-scaling",
		Claim: "Theorem VI.1: blind gossip leader election stabilizes in " +
			"O((1/α)Δ²log²n) rounds for any τ >= 1 and b = 0. The measured-to-" +
			"predicted ratio should stay roughly flat within each family as n grows.",
		Run: runE1,
	})
	register(Experiment{
		ID: "E2-blindgossip-lowerbound",
		Claim: "Section VI lower bound: on the line of √n stars of √n points, " +
			"blind gossip needs Ω(Δ²√n) rounds; measured rounds should grow like " +
			"side³ (log-log slope ≈ 3 in the star side length).",
		Run: runE2,
	})
	register(Experiment{
		ID: "E3-pushpull-bound",
		Claim: "Corollary VI.6: PUSH-PULL rumor spreading completes in " +
			"O((1/α)Δ²log²n) rounds in the mobile telephone model with b = 0, τ >= 1.",
		Run: runE3,
	})
}

// e1Point is one (family, n) cell of the E1/E3 sweeps.
type e1Point struct {
	family gen.Family
	tau    int // 0 = static
}

// e1Families builds the sweep grid: one constant-α family (clique), one
// shrinking-α family (ring of cliques), one expander (random regular).
func e1Families(quick bool, seed uint64) []e1Point {
	var sizes []int
	if quick {
		sizes = []int{24, 48}
	} else {
		sizes = []int{32, 64, 128}
	}
	var points []e1Point
	for _, n := range sizes {
		points = append(points, e1Point{family: gen.Clique(n)})
		points = append(points, e1Point{family: gen.RingOfCliques(n/8, 8)})
		points = append(points, e1Point{family: gen.RandomRegular(n, 8, seed)})
	}
	// Also one dynamic row per size: the adversarial τ=1 permuted expander.
	for _, n := range sizes {
		points = append(points, e1Point{family: gen.RandomRegular(n, 8, seed+1), tau: 1})
	}
	return points
}

// schedule serves the point's family: statically, or relabelled every τ
// rounds from seed.
func (pt e1Point) schedule(seed uint64) dyngraph.Schedule {
	if pt.tau > 0 {
		return dyngraph.NewPermuted(pt.family, pt.tau, seed)
	}
	return dyngraph.NewStatic(pt.family)
}

func runE1(cfg Config) (*trace.Table, error) {
	trials := pickTrials(cfg, 5, 15)
	table := trace.NewTable("E1 blind gossip scaling (Theorem VI.1)",
		"family", "n", "Δ", "α", "τ", "median", "p90", "bound", "median/bound")

	points := e1Families(cfg.Quick, cfg.Seed+1000)
	builds := make([]func(int) trialRun, len(points))
	for pi, pt := range points {
		builds[pi] = func(trial int) trialRun {
			seed := trialSeed(cfg.Seed, pi, trial)
			uids := core.UniqueUIDs(pt.family.N(), seed)
			protocols := core.NewBlindGossipNetwork(uids)
			return trialRun{sched: pt.schedule(seed + 1), protocols: protocols,
				cfg:   sim.Config{Seed: seed + 2, TagBits: 0, MaxRounds: 50_000_000},
				check: leaderIsMin(uids, nil, protocols)}
		}
	}
	allRounds, err := runPointTrials(cfg, trials, builds)
	if err != nil {
		return nil, err
	}
	for pi, pt := range points {
		s := stats.IntSummary(allRounds[pi])
		bound := bounds.BlindGossip(pt.family.Alpha, pt.family.MaxDegree(), pt.family.N())
		tau := "inf"
		if pt.tau > 0 {
			tau = fmt.Sprintf("%d", pt.tau)
		}
		table.AddRow(pt.family.Name, pt.family.N(), pt.family.MaxDegree(), pt.family.Alpha,
			tau, s.Median, s.P90, bound, s.Median/bound)
	}
	return table, nil
}

func runE2(cfg Config) (*trace.Table, error) {
	trials := pickTrials(cfg, 5, 15)
	var sides []int
	if cfg.Quick {
		sides = []int{4, 6}
	} else {
		sides = []int{4, 6, 8, 11}
	}
	table := trace.NewTable("E2 blind gossip lower bound on the line of stars (Section VI)",
		"side", "n", "Δ", "median", "p90", "Δ²·side", "median/(Δ²·side)")

	families := make([]gen.Family, len(sides))
	builds := make([]func(int) trialRun, len(sides))
	for pi, side := range sides {
		f := gen.SqrtLineOfStars(side)
		families[pi] = f
		builds[pi] = func(trial int) trialRun {
			seed := trialSeed(cfg.Seed, pi, trial)
			uids := core.UniqueUIDs(f.N(), seed)
			// Plant the minimum UID at the head-of-line star center
			// (node 0), the paper's worst-case initialization.
			minIdx := 0
			for i, u := range uids {
				if u < uids[minIdx] {
					minIdx = i
				}
			}
			uids[0], uids[minIdx] = uids[minIdx], uids[0]
			return trialRun{sched: dyngraph.NewStatic(f), protocols: core.NewBlindGossipNetwork(uids),
				cfg: sim.Config{Seed: seed + 2, TagBits: 0, MaxRounds: 100_000_000}}
		}
	}
	allRounds, err := runPointTrials(cfg, trials, builds)
	if err != nil {
		return nil, err
	}

	var xs, ys []float64
	for pi, side := range sides {
		f := families[pi]
		s := stats.IntSummary(allRounds[pi])
		pred := float64(f.MaxDegree()*f.MaxDegree()) * float64(side)
		table.AddRow(side, f.N(), f.MaxDegree(), s.Median, s.P90, pred, s.Median/pred)
		xs = append(xs, float64(side))
		ys = append(ys, s.Median)
	}
	fit := stats.LogLogFit(xs, ys)
	table.AddRow("fit", "", "", "", "", "slope(side)", fmt.Sprintf("%.2f (R²=%.3f)", fit.Slope, fit.R2))
	return table, nil
}

func runE3(cfg Config) (*trace.Table, error) {
	trials := pickTrials(cfg, 5, 15)
	table := trace.NewTable("E3 PUSH-PULL rumor spreading bound (Corollary VI.6)",
		"family", "n", "Δ", "α", "τ", "median", "p90", "bound", "median/bound")

	// Reuse the E1 grid; the corollary claims the same bound shape.
	points := e1Families(cfg.Quick, cfg.Seed+2000)
	builds := make([]func(int) trialRun, len(points))
	for pi, pt := range points {
		builds[pi] = func(trial int) trialRun {
			seed := trialSeed(cfg.Seed, pi+100, trial)
			// Source is a pseudo-random node.
			src := int(xrand.Mix3(seed, 0x5c, 0) % uint64(pt.family.N()))
			return trialRun{sched: pt.schedule(seed + 1),
				protocols: rumor.NewPushPullNetwork(pt.family.N(), map[int]bool{src: true}),
				cfg:       sim.Config{Seed: seed + 2, TagBits: 0, MaxRounds: 50_000_000},
				stop:      rumor.AllInformed}
		}
	}
	allRounds, err := runPointTrials(cfg, trials, builds)
	if err != nil {
		return nil, err
	}
	for pi, pt := range points {
		s := stats.IntSummary(allRounds[pi])
		bound := bounds.BlindGossip(pt.family.Alpha, pt.family.MaxDegree(), pt.family.N())
		tau := "inf"
		if pt.tau > 0 {
			tau = fmt.Sprintf("%d", pt.tau)
		}
		table.AddRow(pt.family.Name, pt.family.N(), pt.family.MaxDegree(), pt.family.Alpha,
			tau, s.Median, s.P90, bound, s.Median/bound)
	}
	return table, nil
}
