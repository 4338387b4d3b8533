package experiment

import (
	"fmt"
	"slices"

	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/fault"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/sim"
	"mobiletel/internal/stats"
	"mobiletel/internal/trace"
)

// The R-series exercises the fault-injection layer: where the E-series
// validates the paper's bounds under clean executions, these experiments
// measure recovery — what Section VIII's self-stabilization buys once
// crashes, state corruption, and message loss actually happen.

func init() {
	register(Experiment{
		ID: "R1-leader-crash-reelection",
		Claim: "Section VIII self-stabilization, applied: when the elected " +
			"min-pair owner crashes and the survivors' state is reset (a " +
			"failure-detector-triggered restart), the non-synchronized bit " +
			"convergence algorithm re-elects the surviving minimum in " +
			"ordinary stabilization time, regardless of how long the old " +
			"leader had been in place.",
		Run: runR1,
	})
	register(Experiment{
		ID: "R2-corruption-recovery",
		Claim: "Section VIII: the non-synchronized algorithm converges from " +
			"*any* state, so recovery time after an adversary corrupts k of " +
			"n nodes should stay within ordinary stabilization time even at " +
			"k = n (a full restart).",
		Run: runR2,
	})
	register(Experiment{
		ID: "R4-partition-heal",
		Claim: "Model robustness: while the network is partitioned each " +
			"component converges to its own local minimum, and once the " +
			"partition heals the global minimum overruns the stale local " +
			"leaders within ordinary stabilization time — the re-election " +
			"cost after a heal is independent of how long the partition " +
			"lasted.",
		Run: runR4,
	})
	register(Experiment{
		ID: "R3-message-loss-slowdown",
		Claim: "Model robustness (Sections VI-VIII): proposal and connection " +
			"loss thins each round's matching by a constant factor, so " +
			"election should slow by a bounded multiple of the loss rate " +
			"rather than stall — the bounds degrade gracefully.",
		Run: runR3,
	})
}

// mustInjector compiles a plan the experiment constructed itself; a
// validation failure is a bug in the experiment, not an input error.
func mustInjector(plan fault.Plan, n int) *fault.Injector {
	in, err := fault.NewInjector(plan, n)
	if err != nil {
		panic(err)
	}
	return in
}

// asyncNetworkDistinctTags builds an AsyncBitConv network whose tags are all
// distinct, bumping the tag seed deterministically until they are. The A2
// ablation showed that a tag collision involving the minimum deadlocks bit
// convergence permanently — a real finding, but one that would contaminate
// the R-series, which measures *recovery* time: after a corruption burst the
// victims' original tags rejoin the tag population, so any collision with
// the minimum tag (≈ n/2^k per trial) would turn a recovery measurement
// into the known collision pathology.
func asyncNetworkDistinctTags(uids []uint64, params core.BitConvParams, seed uint64) ([]sim.Protocol, []uint64) {
	for {
		protocols, tags := core.NewAsyncBitConvNetwork(uids, params, seed)
		seen := make(map[uint64]bool, len(tags))
		ok := true
		for _, t := range tags {
			if seen[t] {
				ok = false
				break
			}
			seen[t] = true
		}
		if ok {
			return protocols, tags
		}
		seed++
	}
}

func runR1(cfg Config) (*trace.Table, error) {
	trials := pickTrials(cfg, 3, 10)
	n := pick(cfg.Quick, 32, 64)
	d := 6
	base := gen.RandomRegular(n, d, cfg.Seed+7000)
	params := core.DefaultBitConvParams(n, d)

	table := trace.NewTable("R1 leader crash and re-election (Section VIII, applied)",
		"crash round", "median re-election rounds", "p90", "new leader correct")

	crashRounds := []int{1, pick(cfg.Quick, 100, 400), pick(cfg.Quick, 400, 2000)}
	builds := make([]func(int) trialRun, len(crashRounds))
	for pi, rc := range crashRounds {
		builds[pi] = func(trial int) trialRun {
			seed := trialSeed(cfg.Seed, 1100+pi, trial)
			uids := core.UniqueUIDs(n, seed)
			protocols, tags := asyncNetworkDistinctTags(uids, params, seed+1)
			// Crash the min-pair owner and reset everyone else.
			pairs := idPairs(uids, tags)
			crashed := slices.Index(pairs, core.MinPair(pairs))
			survivors := make([]int, 0, n-1)
			for u := range n {
				if u != crashed {
					survivors = append(survivors, u)
				}
			}
			want := core.MinPair(slices.Delete(pairs, crashed, crashed+1)).UID
			in := mustInjector(fault.Plan{
				Seed:        seed + 2,
				Crashes:     []fault.NodeRound{{Round: rc, Node: crashed}},
				Corruptions: []fault.Burst{{Round: rc, Nodes: survivors}},
			}, n)
			// The crashed leader keeps its stale state forever, so the stop
			// condition and the check quantify over *up* nodes only.
			upAgree := sim.UpOnly(in, sim.AllLeadersEqual)
			return trialRun{sched: dyngraph.NewStatic(base), protocols: protocols,
				cfg: sim.Config{
					Seed: seed + 3, TagBits: core.TagBitsNeeded(params),
					MaxRounds: 50_000_000, Faults: in,
				},
				stop: func(round int, protocols []sim.Protocol) bool {
					return round > rc && upAgree(round, protocols)
				},
				check: func() error {
					for _, u := range survivors {
						if got := protocols[u].Leader(); got != want {
							return fmt.Errorf("node %d elected %d, want surviving min %d", u, got, want)
						}
					}
					return nil
				}}
		}
	}
	allRounds, err := runPointTrials(cfg, trials, builds)
	if err != nil {
		return nil, err
	}
	for pi, rc := range crashRounds {
		recovery := make([]int, len(allRounds[pi]))
		for i, r := range allRounds[pi] {
			recovery[i] = r - rc
		}
		s := stats.IntSummary(recovery)
		table.AddRow(rc, s.Median, s.P90, "yes")
	}
	return table, nil
}

func runR2(cfg Config) (*trace.Table, error) {
	trials := pickTrials(cfg, 3, 10)
	n := pick(cfg.Quick, 32, 64)
	d := 6
	base := gen.RandomRegular(n, d, cfg.Seed+7100)
	params := core.DefaultBitConvParams(n, d)
	// Corrupt well after a clean execution would have stabilized, so the
	// measurement isolates recovery rather than initial convergence.
	rc := pick(cfg.Quick, 200, 600)

	table := trace.NewTable("R2 recovery time vs corrupted nodes k (Section VIII adversary)",
		"k corrupted", "of n", "median recovery rounds", "p90", "correct leader")

	// Gate past the burst so a pre-burst stabilization (expected: rc is
	// chosen after clean convergence) does not end the run.
	afterBurst := func(round int, protocols []sim.Protocol) bool {
		return round > rc && sim.AllLeadersEqual(round, protocols)
	}
	ks := []int{1, n / 4, n / 2, n}
	builds := make([]func(int) trialRun, len(ks))
	for pi, k := range ks {
		builds[pi] = func(trial int) trialRun {
			seed := trialSeed(cfg.Seed, 1200+pi, trial)
			uids := core.UniqueUIDs(n, seed)
			protocols, tags := asyncNetworkDistinctTags(uids, params, seed+1)
			// The UIDs are random, so corrupting the first k indices is
			// already a uniformly random victim set.
			victims := make([]int, k)
			for i := range victims {
				victims[i] = i
			}
			in := mustInjector(fault.Plan{
				Seed:        seed + 2,
				Corruptions: []fault.Burst{{Round: rc, Nodes: victims}},
			}, n)
			return trialRun{sched: dyngraph.NewStatic(base), protocols: protocols,
				cfg: sim.Config{
					Seed: seed + 3, TagBits: core.TagBitsNeeded(params),
					MaxRounds: 50_000_000, Faults: in,
				},
				stop:  afterBurst,
				check: leaderIsMin(uids, tags, protocols)}
		}
	}
	allRounds, err := runPointTrials(cfg, trials, builds)
	if err != nil {
		return nil, err
	}
	for pi, k := range ks {
		recovery := make([]int, len(allRounds[pi]))
		for i, r := range allRounds[pi] {
			recovery[i] = r - rc
		}
		s := stats.IntSummary(recovery)
		table.AddRow(k, fmt.Sprintf("%d", n), s.Median, s.P90, "yes")
	}
	return table, nil
}

func runR4(cfg Config) (*trace.Table, error) {
	trials := pickTrials(cfg, 3, 10)
	n := pick(cfg.Quick, 64, 128)
	d := 6
	base := gen.RandomRegular(n, d, cfg.Seed+7300)
	// The partition drops at round 2, before the clean execution stabilizes,
	// so every component elects its local minimum in isolation.
	const start = 2

	table := trace.NewTable("R4 re-election time after a partition heals",
		"parts", "partition rounds", "median re-election rounds", "p90", "global leader correct")

	type point struct {
		parts, heal int
	}
	points := []point{
		{2, start + pick(cfg.Quick, 40, 100)},
		{2, start + pick(cfg.Quick, 150, 400)},
		{4, start + pick(cfg.Quick, 40, 100)},
		{4, start + pick(cfg.Quick, 150, 400)},
	}
	builds := make([]func(int) trialRun, len(points))
	for pi, pt := range points {
		builds[pi] = func(trial int) trialRun {
			seed := trialSeed(cfg.Seed, 1400+pi, trial)
			uids := core.UniqueUIDs(n, seed)
			protocols := core.NewBlindGossipNetwork(uids)
			in := mustInjector(fault.Plan{
				Seed:       seed + 2,
				Partitions: []fault.Partition{{Start: start, Heal: pt.heal, Parts: pt.parts}},
			}, n)
			// Config.Check audits the partition's deterministic connection
			// cuts against the conservation invariant on every round.
			return trialRun{sched: dyngraph.NewStatic(base), protocols: protocols,
				cfg: sim.Config{Seed: seed + 3, MaxRounds: 50_000_000, Faults: in, Check: true},
				// Gate past the heal: agreement inside one component (or a
				// lucky pre-partition stabilization) does not count.
				stop: func(round int, protocols []sim.Protocol) bool {
					return round >= pt.heal && sim.AllLeadersEqual(round, protocols)
				},
				check: leaderIsMin(uids, nil, protocols)}
		}
	}
	allRounds, err := runPointTrials(cfg, trials, builds)
	if err != nil {
		return nil, err
	}
	for pi, pt := range points {
		recovery := make([]int, len(allRounds[pi]))
		for i, r := range allRounds[pi] {
			recovery[i] = r - pt.heal
		}
		s := stats.IntSummary(recovery)
		table.AddRow(pt.parts, pt.heal-start, s.Median, s.P90, "yes")
	}
	return table, nil
}

func runR3(cfg Config) (*trace.Table, error) {
	trials := pickTrials(cfg, 3, 10)
	n := pick(cfg.Quick, 32, 64)
	d := 6
	base := gen.RandomRegular(n, d, cfg.Seed+7200)
	params := core.DefaultBitConvParams(n, d)

	// build returns the protocols and their tags (nil for blind gossip).
	type algoPoint struct {
		name    string
		tagBits int
		build   func(uids []uint64, seed uint64) ([]sim.Protocol, []uint64)
	}
	algos := []algoPoint{
		{"blindgossip", 0, func(uids []uint64, _ uint64) ([]sim.Protocol, []uint64) {
			return core.NewBlindGossipNetwork(uids), nil
		}},
		{"asyncbitconv", core.TagBitsNeeded(params), func(uids []uint64, seed uint64) ([]sim.Protocol, []uint64) {
			return asyncNetworkDistinctTags(uids, params, seed)
		}},
	}
	rates := []float64{0, 0.1, 0.3, 0.5}

	table := trace.NewTable("R3 election slowdown vs message loss rate",
		"algorithm", "loss rate", "median rounds", "p90", "slowdown vs lossless")

	builds := make([]func(int) trialRun, 0, len(algos)*len(rates))
	for ai, ap := range algos {
		for ri, rate := range rates {
			builds = append(builds, func(trial int) trialRun {
				seed := trialSeed(cfg.Seed, 1300+ai*10+ri, trial)
				uids := core.UniqueUIDs(n, seed)
				protocols, tags := ap.build(uids, seed+1)
				simCfg := sim.Config{
					Seed: seed + 3, TagBits: ap.tagBits, MaxRounds: 50_000_000,
				}
				if rate > 0 {
					// Losses split evenly between the two failure points:
					// the proposal in flight and the accepted connection.
					simCfg.Faults = mustInjector(fault.Plan{
						Seed: seed + 2, ProposalLoss: rate, ConnLoss: rate,
					}, n)
				}
				return trialRun{sched: dyngraph.NewStatic(base), protocols: protocols, cfg: simCfg,
					check: leaderIsMin(uids, tags, protocols)}
			})
		}
	}
	allRounds, err := runPointTrials(cfg, trials, builds)
	if err != nil {
		return nil, err
	}
	for ai, ap := range algos {
		baseMed := stats.IntSummary(allRounds[ai*len(rates)]).Median
		for ri, rate := range rates {
			s := stats.IntSummary(allRounds[ai*len(rates)+ri])
			slow := 1.0
			if baseMed > 0 {
				slow = s.Median / baseMed
			}
			table.AddRow(ap.name, rate, s.Median, s.P90, slow)
		}
	}
	return table, nil
}
