package experiment

import (
	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/sim"
	"mobiletel/internal/stats"
	"mobiletel/internal/trace"
	"mobiletel/internal/xrand"
)

func init() {
	register(Experiment{
		ID: "E8-async-bitconv",
		Claim: "Theorem VIII.2: the non-synchronized bit convergence algorithm " +
			"(b = loglog n + O(1)) stabilizes within polylog factors of the " +
			"synchronized algorithm, measured from the last activation.",
		Run: runE8,
	})
	register(Experiment{
		ID: "E9-self-stabilization",
		Claim: "Section VIII: joining components that ran the non-synchronized " +
			"algorithm for arbitrary durations still stabilizes to one leader in " +
			"the usual time — post-merge rounds should not grow with pre-merge age.",
		Run: runE9,
	})
	register(Experiment{
		ID: "E10-churn-robustness",
		Claim: "All algorithms adapt to whatever stability they encounter (no " +
			"advance knowledge of τ): they stabilize correctly under adversarial " +
			"permutation, link churn, and random-waypoint mobility schedules.",
		Run: runE10,
	})
}

func runE8(cfg Config) (*trace.Table, error) {
	trials := pickTrials(cfg, 5, 15)
	n := pick(cfg.Quick, 48, 96)
	d := 8
	base := gen.RandomRegular(n, d, cfg.Seed+5000)
	params := core.DefaultBitConvParams(n, d)

	table := trace.NewTable("E8 synchronized vs non-synchronized bit convergence (Theorem VIII.2)",
		"variant", "b (bits)", "activation spread", "median rounds*", "p90", "vs sync median")

	// Point 0 is the synchronized baseline; points 1.. are the async
	// variants at increasing activation spreads. All share one pipelined
	// pool.
	spreads := []int{0, 200, 2000}
	allRounds, err := RunCells(cfg, 1+len(spreads), trials, func(p, trial int) (int, error) {
		if p == 0 {
			seed := trialSeed(cfg.Seed, 800, trial)
			uids := core.UniqueUIDs(n, seed)
			protocols, _ := core.NewBitConvNetwork(uids, params, seed+1)
			return runTrial(cfg, p, trial, trialRun{sched: dyngraph.NewStatic(base), protocols: protocols,
				cfg: sim.Config{Seed: seed + 2, TagBits: 1, MaxRounds: 50_000_000}})
		}
		spread := spreads[p-1]
		seed := trialSeed(cfg.Seed, 810+spread, trial)
		uids := core.UniqueUIDs(n, seed)
		protocols, _ := core.NewAsyncBitConvNetwork(uids, params, seed+1)
		cfgSim := sim.Config{
			Seed: seed + 2, TagBits: core.TagBitsNeeded(params), MaxRounds: 50_000_000,
		}
		if spread > 0 {
			rng := xrand.New(seed + 3)
			acts := make([]int, n)
			for i := range acts {
				acts[i] = 1 + rng.Intn(spread)
			}
			cfgSim.Activations = acts
		}
		return runTrial(cfg, p, trial, trialRun{sched: dyngraph.NewStatic(base), protocols: protocols, cfg: cfgSim})
	})
	if err != nil {
		return nil, err
	}

	syncRounds := allRounds[0]
	syncMed := stats.IntSummary(syncRounds).Median
	table.AddRow("bitconv (sync)", 1, 0, syncMed, stats.IntSummary(syncRounds).P90, 1.0)

	// Rounds measured after the last activation (the Section VIII
	// convention): subtract the activation spread. StabilizedRound includes
	// the ramp-up, so report the adjusted value via the spread upper bound.
	for si, spread := range spreads {
		rounds := allRounds[1+si]
		adjusted := make([]int, len(rounds))
		for i, r := range rounds {
			adjusted[i] = r - spread
			if adjusted[i] < 0 {
				adjusted[i] = 0
			}
		}
		s := stats.IntSummary(adjusted)
		table.AddRow("asyncbitconv", core.TagBitsNeeded(params), spread, s.Median, s.P90, s.Median/syncMed)
	}
	return table, nil
}

func runE9(cfg Config) (*trace.Table, error) {
	trials := pickTrials(cfg, 5, 15)
	n := pick(cfg.Quick, 48, 96)
	d := 6
	params := core.DefaultBitConvParams(n, d+1)

	table := trace.NewTable("E9 self-stabilization under component merges (Section VIII)",
		"pre-merge rounds", "median post-merge rounds", "p90", "correct leader")

	preMerges := []int{1, 500, 5000}
	allRounds, err := RunCells(cfg, len(preMerges), trials, func(pi, trial int) (int, error) {
		preMerge := preMerges[pi]
		seed := trialSeed(cfg.Seed, 900+preMerge, trial)
		pre := gen.DisjointUnion(gen.RandomRegular(n/2, d, seed+10), gen.RandomRegular(n/2, d, seed+11))
		post := gen.RandomRegular(n, d, seed+11)
		sched := dyngraph.NewSwitch(dyngraph.NewStatic(pre), dyngraph.NewStatic(post), preMerge+1)

		uids := core.UniqueUIDs(n, seed)
		protocols, tags := core.NewAsyncBitConvNetwork(uids, params, seed+1)
		return runTrial(cfg, pi, trial, trialRun{sched: sched, protocols: protocols,
			cfg:   sim.Config{Seed: seed + 2, TagBits: core.TagBitsNeeded(params), MaxRounds: 50_000_000},
			check: leaderIsMin(uids, tags, protocols)})
	})
	if err != nil {
		return nil, err
	}
	for pi, preMerge := range preMerges {
		postRounds := make([]float64, trials)
		for trial, r := range allRounds[pi] {
			postRounds[trial] = float64(max(r-preMerge, 0))
		}
		s := stats.Summarize(postRounds)
		table.AddRow(preMerge, s.Median, s.P90, "yes")
	}
	return table, nil
}

func runE10(cfg Config) (*trace.Table, error) {
	trials := pickTrials(cfg, 5, 10)
	n := pick(cfg.Quick, 40, 80)
	d := 6
	base := gen.RandomRegular(n, d, cfg.Seed+6000)

	type schedPoint struct {
		name string
		mk   func(seed uint64) dyngraph.Schedule
	}
	schedules := []schedPoint{
		{"static", func(seed uint64) dyngraph.Schedule { return dyngraph.NewStatic(base) }},
		{"permuted τ=4", func(seed uint64) dyngraph.Schedule { return dyngraph.NewPermuted(base, 4, seed) }},
		{"churn τ=4", func(seed uint64) dyngraph.Schedule { return dyngraph.NewChurn(base, 4, n/4, seed) }},
		{"waypoint τ=4", func(seed uint64) dyngraph.Schedule {
			return dyngraph.NewWaypoint(n, 0.35, 0.05, 4, seed)
		}},
	}

	// build returns the protocols and their tag assignment (nil for blind
	// gossip), which the check reads.
	type algoPoint struct {
		name    string
		tagBits int
		build   func(uids []uint64, seed uint64) ([]sim.Protocol, []uint64)
	}
	params := core.DefaultBitConvParams(n, n-1) // waypoint Δ can be large; be generous
	algos := []algoPoint{
		{"blindgossip", 0, func(uids []uint64, _ uint64) ([]sim.Protocol, []uint64) {
			return core.NewBlindGossipNetwork(uids), nil
		}},
		{"bitconv", 1, func(uids []uint64, seed uint64) ([]sim.Protocol, []uint64) {
			return core.NewBitConvNetwork(uids, params, seed)
		}},
		{"asyncbitconv", core.TagBitsNeeded(params), func(uids []uint64, seed uint64) ([]sim.Protocol, []uint64) {
			return core.NewAsyncBitConvNetwork(uids, params, seed)
		}},
	}

	table := trace.NewTable("E10 robustness across dynamic schedules (τ-adaptivity)",
		"schedule", "algorithm", "median rounds", "p90", "all correct")

	// Point si*len(algos)+ai is schedule si under algorithm ai.
	allRounds, err := RunCells(cfg, len(schedules)*len(algos), trials, func(p, trial int) (int, error) {
		si, ai := p/len(algos), p%len(algos)
		seed := trialSeed(cfg.Seed, 1000+si*10+ai, trial)
		uids := core.UniqueUIDs(n, seed)
		protocols, tags := algos[ai].build(uids, seed+1)
		return runTrial(cfg, p, trial, trialRun{sched: schedules[si].mk(seed + 2), protocols: protocols,
			cfg:   sim.Config{Seed: seed + 3, TagBits: algos[ai].tagBits, MaxRounds: 50_000_000},
			check: leaderIsMin(uids, tags, protocols)})
	})
	if err != nil {
		return nil, err
	}
	for si, sp := range schedules {
		for ai, ap := range algos {
			s := stats.IntSummary(allRounds[si*len(algos)+ai])
			table.AddRow(sp.name, ap.name, s.Median, s.P90, "yes")
		}
	}
	return table, nil
}
