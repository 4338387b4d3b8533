package experiment

import (
	"fmt"

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

// r1Setup derives everything round-trippable from a trial seed, so Build and
// Check (which only receives the trial index) agree on the cast.
func r1Setup(cfg Config, point, trial, n int, params core.BitConvParams) (seed uint64, uids, tags []uint64, crashed int) {
	seed = trialSeed(cfg.Seed, 1100+point, trial)
	uids = core.UniqueUIDs(n, seed)
	_, tags = asyncNetworkDistinctTags(uids, params, seed+1)
	pairs := make([]core.IDPair, n)
	for i := range uids {
		pairs[i] = core.IDPair{UID: uids[i], Tag: tags[i]}
	}
	min := core.MinPair(pairs)
	for i, p := range pairs {
		if p == min {
			crashed = i
		}
	}
	return seed, uids, tags, crashed
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
	specs := make([]pointSpec, 0, len(crashRounds))
	for pi, rc := range crashRounds {
		pi, rc := pi, rc
		specs = append(specs, pointSpec{Trials: trials, Spec: trialSpec{
			Build: func(trial int) (dyngraph.Schedule, []sim.Protocol, sim.Config) {
				seed, uids, _, crashed := r1Setup(cfg, pi, trial, n, params)
				protocols, _ := asyncNetworkDistinctTags(uids, params, seed+1)
				survivors := make([]int, 0, n-1)
				for u := 0; u < n; u++ {
					if u != crashed {
						survivors = append(survivors, u)
					}
				}
				in := mustInjector(fault.Plan{
					Seed:        seed + 2,
					Crashes:     []fault.NodeRound{{Round: rc, Node: crashed}},
					Corruptions: []fault.Burst{{Round: rc, Nodes: survivors}},
				}, n)
				return dyngraph.NewStatic(base), protocols, sim.Config{
					Seed: seed + 3, TagBits: core.TagBitsNeeded(params),
					MaxRounds: 50_000_000, Faults: in,
				}
			},
			// The crashed leader keeps its stale state forever, so the stop
			// condition (and Check below) quantify over *up* nodes only.
			MakeStop: func(trial int, simCfg sim.Config) sim.StopCondition {
				upAgree := sim.UpLeadersEqual(simCfg.Faults)
				return func(round int, protocols []sim.Protocol) bool {
					return round > rc && upAgree(round, protocols)
				}
			},
			Check: func(trial int, protocols []sim.Protocol) error {
				_, uids, tags, crashed := r1Setup(cfg, pi, trial, n, params)
				pairs := make([]core.IDPair, 0, n-1)
				for u := 0; u < n; u++ {
					if u != crashed {
						pairs = append(pairs, core.IDPair{UID: uids[u], Tag: tags[u]})
					}
				}
				want := core.MinPair(pairs).UID
				for u, p := range protocols {
					if u == crashed {
						continue
					}
					if got := p.Leader(); got != want {
						return fmt.Errorf("node %d elected %d, want surviving min %d", u, got, want)
					}
				}
				return nil
			},
		}})
	}
	allRounds, err := runPointTrials(cfg, specs)
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

	ks := []int{1, n / 4, n / 2, n}
	specs := make([]pointSpec, 0, len(ks))
	for pi, k := range ks {
		pi, k := pi, k
		specs = append(specs, pointSpec{Trials: trials, Spec: trialSpec{
			Build: func(trial int) (dyngraph.Schedule, []sim.Protocol, sim.Config) {
				seed := trialSeed(cfg.Seed, 1200+pi, trial)
				uids := core.UniqueUIDs(n, seed)
				protocols, _ := asyncNetworkDistinctTags(uids, params, seed+1)
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
				return dyngraph.NewStatic(base), protocols, sim.Config{
					Seed: seed + 3, TagBits: core.TagBitsNeeded(params),
					MaxRounds: 50_000_000, Faults: in,
				}
			},
			// Gate past the burst so a pre-burst stabilization (expected:
			// rc is chosen after clean convergence) does not end the run.
			Stop: func(round int, protocols []sim.Protocol) bool {
				return round > rc && sim.AllLeadersEqual(round, protocols)
			},
			Check: func(trial int, protocols []sim.Protocol) error {
				seed := trialSeed(cfg.Seed, 1200+pi, trial)
				uids := core.UniqueUIDs(n, seed)
				_, tags := asyncNetworkDistinctTags(uids, params, seed+1)
				return checkMinPair(uids, tags, protocols)
			},
		}})
	}
	allRounds, err := runPointTrials(cfg, specs)
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
	specs := make([]pointSpec, 0, len(points))
	for pi, pt := range points {
		pi, pt := pi, pt
		specs = append(specs, pointSpec{Trials: trials, Spec: trialSpec{
			Build: func(trial int) (dyngraph.Schedule, []sim.Protocol, sim.Config) {
				seed := trialSeed(cfg.Seed, 1400+pi, trial)
				uids := core.UniqueUIDs(n, seed)
				in := mustInjector(fault.Plan{
					Seed:       seed + 2,
					Partitions: []fault.Partition{{Start: start, Heal: pt.heal, Parts: pt.parts}},
				}, n)
				// Check audits the partition's deterministic connection cuts
				// against the conservation invariant on every round.
				return dyngraph.NewStatic(base), core.NewBlindGossipNetwork(uids), sim.Config{
					Seed: seed + 3, MaxRounds: 50_000_000, Faults: in, Check: true,
				}
			},
			// Gate past the heal: agreement inside one component (or a
			// lucky pre-partition stabilization) does not count.
			Stop: func(round int, protocols []sim.Protocol) bool {
				return round >= pt.heal && sim.AllLeadersEqual(round, protocols)
			},
			Check: func(trial int, protocols []sim.Protocol) error {
				seed := trialSeed(cfg.Seed, 1400+pi, trial)
				uids := core.UniqueUIDs(n, seed)
				if got, want := protocols[0].Leader(), core.MinUID(uids); got != want {
					return fmt.Errorf("elected %d, want global min %d", got, want)
				}
				return nil
			},
		}})
	}
	allRounds, err := runPointTrials(cfg, specs)
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

	type algoPoint struct {
		name    string
		tagBits int
		build   func(uids []uint64, seed uint64) []sim.Protocol
		check   func(uids []uint64, seed uint64, protocols []sim.Protocol) error
	}
	algos := []algoPoint{
		{
			name: "blindgossip", tagBits: 0,
			build: func(uids []uint64, seed uint64) []sim.Protocol {
				return core.NewBlindGossipNetwork(uids)
			},
			check: func(uids []uint64, _ uint64, protocols []sim.Protocol) error {
				if got, want := protocols[0].Leader(), core.MinUID(uids); got != want {
					return fmt.Errorf("elected %d, want %d", got, want)
				}
				return nil
			},
		},
		{
			name: "asyncbitconv", tagBits: core.TagBitsNeeded(params),
			build: func(uids []uint64, seed uint64) []sim.Protocol {
				protocols, _ := asyncNetworkDistinctTags(uids, params, seed)
				return protocols
			},
			check: func(uids []uint64, seed uint64, protocols []sim.Protocol) error {
				_, tags := asyncNetworkDistinctTags(uids, params, seed)
				return checkMinPair(uids, tags, protocols)
			},
		},
	}
	rates := []float64{0, 0.1, 0.3, 0.5}

	table := trace.NewTable("R3 election slowdown vs message loss rate",
		"algorithm", "loss rate", "median rounds", "p90", "slowdown vs lossless")

	specs := make([]pointSpec, 0, len(algos)*len(rates))
	for ai, ap := range algos {
		for ri, rate := range rates {
			ai, ri, ap, rate := ai, ri, ap, rate
			specs = append(specs, pointSpec{Trials: trials, Spec: trialSpec{
				Build: func(trial int) (dyngraph.Schedule, []sim.Protocol, sim.Config) {
					seed := trialSeed(cfg.Seed, 1300+ai*10+ri, trial)
					uids := core.UniqueUIDs(n, seed)
					protocols := ap.build(uids, seed+1)
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
					return dyngraph.NewStatic(base), protocols, simCfg
				},
				Check: func(trial int, protocols []sim.Protocol) error {
					seed := trialSeed(cfg.Seed, 1300+ai*10+ri, trial)
					uids := core.UniqueUIDs(n, seed)
					return ap.check(uids, seed+1, protocols)
				},
			}})
		}
	}
	allRounds, err := runPointTrials(cfg, specs)
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
