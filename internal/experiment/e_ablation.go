package experiment

import (
	"fmt"
	"slices"

	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/sim"
	"mobiletel/internal/stats"
	"mobiletel/internal/trace"
)

func init() {
	register(Experiment{
		ID: "A1-ablation-grouplen",
		Claim: "Design choice (Lemma VII.5): groups of 2·logΔ rounds guarantee " +
			"a τ̂-stable stretch inside every group. Shorter groups shrink phases " +
			"but lose stable stretches under churn; longer groups waste rounds.",
		Run: runA1,
	})
	register(Experiment{
		ID: "A2-ablation-tagbits",
		Claim: "Design choice (Section VII): ID tags of k = β·log n bits are " +
			"unique w.h.p. for β ≥ 2 — and uniqueness is load-bearing: if two " +
			"nodes draw the same *minimum* tag, the UID tie-break cannot " +
			"propagate (advertisements carry only tag bits) and the network " +
			"never stabilizes. Small β must show convergence failures.",
		Run: runA2,
	})
	register(Experiment{
		ID: "A3-ablation-accept",
		Claim: "Model choice (Section III): uniform-random acceptance is what " +
			"the analysis assumes. Deterministic lowest-id acceptance biases " +
			"contention but leader election remains correct; round counts shift.",
		Run: runA3,
	})
}

func runA1(cfg Config) (*trace.Table, error) {
	trials := pickTrials(cfg, 5, 15)
	n := pick(cfg.Quick, 48, 96)
	d := 16
	logDelta := core.Log2Ceil(d + 1)
	base := gen.RandomRegular(n, d, cfg.Seed+7000)
	tau := logDelta // churn at the knee

	table := trace.NewTable(
		fmt.Sprintf("A1 group length ablation (bit convergence), n=%d d=%d τ=%d", n, d, tau),
		"group length", "phase length", "median rounds", "p90")

	k := core.DefaultBitConvParams(n, d).K
	mults := []int{1, 2, 4}
	paramsFor := make([]core.BitConvParams, len(mults))
	for mi, mult := range mults {
		paramsFor[mi] = core.BitConvParams{K: k, GroupLen: mult * logDelta}
	}
	allRounds, err := RunCells(cfg, len(mults), trials, func(mi, trial int) (int, error) {
		seed := trialSeed(cfg.Seed, 1100+mults[mi], trial)
		uids := core.UniqueUIDs(n, seed)
		protocols, _ := core.NewBitConvNetwork(uids, paramsFor[mi], seed+1)
		return runTrial(cfg, mi, trial, trialRun{sched: dyngraph.NewPermuted(base, tau, seed+2), protocols: protocols,
			cfg: sim.Config{Seed: seed + 3, TagBits: 1, MaxRounds: 50_000_000}})
	})
	if err != nil {
		return nil, err
	}
	for mi, mult := range mults {
		s := stats.IntSummary(allRounds[mi])
		table.AddRow(fmt.Sprintf("%d·logΔ = %d", mult, paramsFor[mi].GroupLen), paramsFor[mi].PhaseLen(), s.Median, s.P90)
	}
	return table, nil
}

func runA2(cfg Config) (*trace.Table, error) {
	trials := pickTrials(cfg, 5, 15)
	n := pick(cfg.Quick, 48, 96)
	d := 8
	base := gen.RandomRegular(n, d, cfg.Seed+8000)
	logN := core.Log2Ceil(n + 1)

	table := trace.NewTable(
		fmt.Sprintf("A2 ID tag length ablation (bit convergence), n=%d", n),
		"β", "k bits", "collision rate", "min-tag collided", "stabilized", "median rounds (ok trials)")

	// A trial whose *minimum* tag is shared by two nodes cannot stabilize
	// (the UID tie-break never propagates through 1-bit advertisements), so
	// its stop condition also fires at a round cap instead of running
	// forever, and its check sorts it as stabilized or capped.
	limit := pick(cfg.Quick, 100_000, 400_000)
	agreeOrCap := func(round int, protocols []sim.Protocol) bool {
		return round >= limit || sim.AllLeadersEqual(round, protocols)
	}

	betas := []float64{0.5, 1, 2, 3}
	ks := make([]int, len(betas))
	for bi, beta := range betas {
		ks[bi] = max(int(beta*float64(logN)), 1)
	}
	results, err := RunCells(cfg, len(betas), trials, func(bi, trial int) (a2Cell, error) {
		beta := betas[bi]
		params := core.BitConvParams{K: ks[bi], GroupLen: 2 * core.Log2Ceil(d+1)}
		seed := trialSeed(cfg.Seed, 1200+int(beta*10), trial)
		uids := core.UniqueUIDs(n, seed)
		protocols, tags := core.NewBitConvNetwork(uids, params, seed+1)
		var c a2Cell
		sorted := slices.Clone(tags)
		slices.Sort(sorted)
		for i := 1; i < n; i++ {
			if sorted[i] == sorted[i-1] {
				c.Collisions++
			}
		}
		c.MinCollided = sorted[0] == sorted[1]
		var err error
		c.Rounds, err = runTrial(cfg, bi, trial, trialRun{sched: dyngraph.NewStatic(base), protocols: protocols,
			cfg:  sim.Config{Seed: seed + 2, TagBits: 1, MaxRounds: limit},
			stop: agreeOrCap,
			check: func() error {
				if sim.AllLeadersEqual(0, protocols) {
					c.Stabilized = true
					return leaderIsMin(uids, tags, protocols)()
				}
				if !c.MinCollided {
					// A real failure, not the expected collision deadlock.
					return fmt.Errorf("beta=%v: unique min tag yet no stabilization within %d rounds", beta, limit)
				}
				return nil
			}})
		return c, err
	})
	if err != nil {
		return nil, err
	}
	for bi, beta := range betas {
		sumCollisions, collided := 0, 0
		var okRounds []int
		for _, c := range results[bi] {
			sumCollisions += c.Collisions
			if c.MinCollided {
				collided++
			}
			if c.Stabilized {
				okRounds = append(okRounds, c.Rounds)
			}
		}
		med := "—"
		if len(okRounds) > 0 {
			med = fmt.Sprintf("%.0f", stats.IntSummary(okRounds).Median)
		}
		table.AddRow(beta, ks[bi], float64(sumCollisions)/float64(n*trials),
			fmt.Sprintf("%d/%d", collided, trials),
			fmt.Sprintf("%d/%d", len(okRounds), trials), med)
	}
	return table, nil
}

// a2Cell is what one A2 trial contributes to its row: the run's rounds, the
// tag collisions its draw made, whether the minimum tag was among them, and
// whether the run stabilized before the cap.
type a2Cell struct {
	Rounds      int  `json:"rounds"`
	Collisions  int  `json:"collisions"`
	MinCollided bool `json:"min_collided"`
	Stabilized  bool `json:"stabilized"`
}

func runA3(cfg Config) (*trace.Table, error) {
	trials := pickTrials(cfg, 5, 15)
	side := pick(cfg.Quick, 6, 9)
	f := gen.SqrtLineOfStars(side) // acceptance contention is the bottleneck here

	table := trace.NewTable(
		fmt.Sprintf("A3 acceptance policy ablation (blind gossip on %s, n=%d)", f.Name, f.N()),
		"policy", "median rounds", "p90", "all correct")

	policies := []struct {
		name   string
		policy sim.AcceptPolicy
	}{
		{"uniform (model)", sim.AcceptUniform},
		{"lowest-id", sim.AcceptLowestID},
		{"highest-id", sim.AcceptHighestID},
	}
	allRounds, err := RunCells(cfg, len(policies), trials, func(pi, trial int) (int, error) {
		seed := trialSeed(cfg.Seed, 1300+pi, trial)
		uids := core.UniqueUIDs(f.N(), seed)
		protocols := core.NewBlindGossipNetwork(uids)
		return runTrial(cfg, pi, trial, trialRun{sched: dyngraph.NewStatic(f), protocols: protocols,
			cfg:   sim.Config{Seed: seed + 1, TagBits: 0, MaxRounds: 100_000_000, Accept: policies[pi].policy},
			check: leaderIsMin(uids, nil, protocols)})
	})
	if err != nil {
		return nil, err
	}
	for pi, pol := range policies {
		s := stats.IntSummary(allRounds[pi])
		table.AddRow(pol.name, s.Median, s.P90, "yes")
	}
	return table, nil
}
