package main

import (
	"fmt"
	"os"

	"mobiletel"
	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/fault"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/obs"
	"mobiletel/internal/sim"
)

// suiteSeed is the fixed base seed for all workloads: recordings are only
// comparable when they ran the same per-iteration simulations.
const suiteSeed = 20170529

// iterSeed spreads the iteration index into a well-mixed per-op seed, so
// every op is an independent — but reproducible — simulation.
func iterSeed(i int) uint64 { return uint64(i)*0x9e3779b97f4a7c15 + suiteSeed }

// buildSuite assembles the curated macro suite. Each entry exercises a hot
// path the ROADMAP cares about: full elections across τ regimes (τ=1 is the
// paper's adversarial regime — the schedule rebuilds every round), rumor
// spreading, the steady-state round loop, and whole experiments in quick
// mode.
func buildSuite() []Benchmark {
	mesh := mobiletel.RandomRegular(256, 8, 1)
	stars := mobiletel.SqrtLineOfStars(10) // n = 110, the E2 lower-bound family
	expander := mobiletel.RandomRegular(512, 12, 2)

	var suite []Benchmark

	elect := func(name string, topo mobiletel.Topology, algo mobiletel.Algorithm, tau int, quick bool) {
		suite = append(suite, Benchmark{
			Name:  name,
			Nodes: topo.N(),
			Quick: quick,
			Fn: func(iters int) int64 {
				var rounds int64
				for i := 0; i < iters; i++ {
					seed := iterSeed(i)
					sched := mobiletel.Static(topo)
					if tau > 0 {
						sched = mobiletel.Permuted(topo, tau, seed+1)
					}
					res, err := mobiletel.ElectLeader(sched, algo, mobiletel.Options{Seed: seed, Workers: 1})
					if err != nil {
						fatalf("%s: %v", name, err)
					}
					rounds += int64(res.Rounds)
				}
				return rounds
			},
		})
	}

	rumorBench := func(name string, topo mobiletel.Topology, strategy mobiletel.RumorStrategy, tau int, quick bool) {
		suite = append(suite, Benchmark{
			Name:  name,
			Nodes: topo.N(),
			Quick: quick,
			Fn: func(iters int) int64 {
				var rounds int64
				for i := 0; i < iters; i++ {
					seed := iterSeed(i)
					sched := mobiletel.Static(topo)
					if tau > 0 {
						sched = mobiletel.Permuted(topo, tau, seed+1)
					}
					res, err := mobiletel.SpreadRumor(sched, strategy, []int{0}, mobiletel.Options{Seed: seed, Workers: 1})
					if err != nil {
						fatalf("%s: %v", name, err)
					}
					rounds += int64(res.Rounds)
				}
				return rounds
			},
		})
	}

	elect("elect/blindgossip/mesh256/tau=inf", mesh, mobiletel.BlindGossip, 0, true)
	elect("elect/blindgossip/mesh256/tau=8", mesh, mobiletel.BlindGossip, 8, false)
	elect("elect/blindgossip/mesh256/tau=1", mesh, mobiletel.BlindGossip, 1, false)
	elect("elect/blindgossip/lineofstars110/tau=inf", stars, mobiletel.BlindGossip, 0, false)
	elect("elect/blindgossip/lineofstars110/tau=1", stars, mobiletel.BlindGossip, 1, true)
	elect("elect/bitconv/expander512/tau=8", expander, mobiletel.BitConv, 8, false)
	elect("elect/bitconv/expander512/tau=1", expander, mobiletel.BitConv, 1, false)

	rumorBench("rumor/pushpull/expander512/tau=inf", expander, mobiletel.PushPull, 0, true)
	rumorBench("rumor/ppush/expander512/tau=8", expander, mobiletel.PPush, 8, false)

	suite = append(suite, steadyRoundBench(), steadyRoundTracedBench())
	suite = append(suite, roundsBenches()...)
	suite = append(suite, scaleBenches()...)

	for _, exp := range []struct {
		id    string
		quick bool
	}{
		{"E1-blindgossip-scaling", false},
		{"E4-lemma-v1-gamma", true},
	} {
		exp := exp
		name := "exp/" + exp.id + "/quick"
		suite = append(suite, Benchmark{
			Name:  name,
			Quick: exp.quick,
			Fn: func(iters int) int64 {
				for i := 0; i < iters; i++ {
					if _, err := mobiletel.RunExperiment(exp.id, mobiletel.ExperimentOptions{
						Seed: suiteSeed, Trials: 2, Quick: true,
					}); err != nil {
						fatalf("%s: %v", name, err)
					}
				}
				return 0
			},
		})
	}

	return suite
}

// roundsBenches is the paper-scale round tier: one op = one steady-state
// round at the n the paper's experiments actually use (10³–10⁴ nodes),
// where per-round dispatch overhead — not per-node work — decides whether
// parallelism pays. Each family runs w=8 (the persistent pool, resolving
// inline on single-P hosts) alongside the w=1 inline baseline, and
// -compare against the seed watches the w=8 entry for regressions in
// exactly that regime.
func roundsBenches() []Benchmark {
	var suite []Benchmark
	for _, nodes := range []int{1 << 10, 1 << 12} {
		nodes := nodes
		label := fmt.Sprintf("expander%d", nodes)
		var shared *gen.Family
		family := func() gen.Family {
			if shared == nil {
				fam := gen.Expander(nodes, 8, suiteSeed)
				shared = &fam
			}
			return *shared
		}
		sweep := []struct {
			suffix  string
			workers int
		}{
			{"w=1", 1},
			{"w=8", 8},
		}
		for i, sw := range sweep {
			sw := sw
			last := i == len(sweep)-1
			name := fmt.Sprintf("rounds/%s/%s", label, sw.suffix)
			var (
				eng  *sim.Engine
				next = 1
			)
			suite = append(suite, Benchmark{
				Name:  name,
				Nodes: nodes,
				// The production-config entry at the larger n joins the quick
				// subset: CI's compare gate watches the exact configuration
				// the pool rework promises to speed up.
				Quick:   nodes == 1<<12 && sw.suffix == "w=8",
				Workers: sw.workers,
				Fn: func(iters int) int64 {
					if eng == nil {
						fam := family()
						protocols := core.NewBlindGossipNetwork(core.UniqueUIDs(fam.N(), suiteSeed))
						var err error
						eng, err = sim.New(dyngraph.NewStatic(fam), protocols,
							sim.Config{Seed: suiteSeed, Workers: sw.workers})
						if err != nil {
							fatalf("rounds bench (%s): %v", name, err)
						}
					}
					eng.RunRounds(next, iters)
					next += iters
					return int64(iters)
				},
				Cleanup: func() {
					if eng != nil {
						eng.Close() // pool entries own parked worker goroutines
						eng = nil
					}
					if last {
						shared = nil
					}
				},
			})
		}
	}
	return suite
}

// scaleBenches is the scale tier: one op = one steady-state round on giant
// topologies (a 2^16-node expander and a 2^20-node torus mesh), swept across
// worker counts 1/2/8 so a recording carries its own parallel-speedup data
// (workers and gomaxprocs are per-entry fields since mtmbench/v2). Each
// family is materialized lazily on first use and shared across its sweep —
// building a million-node graph once, not three times — and every entry
// releases its engine in Cleanup so the tier's working set never stacks up.
// ns/op is host-dependent as always; allocs/op is the portable signal that
// the parallel round core stays out of the allocator at scale.
func scaleBenches() []Benchmark {
	var suite []Benchmark
	families := []struct {
		label  string
		nodes  int
		quick  int  // worker count whose entry joins the -quick subset (0: none)
		traced bool // also sweep a w=8 entry with a ring sink attached
		build  func() gen.Family
	}{
		{"expander65536", 1 << 16, 2, true, func() gen.Family { return gen.Expander(1<<16, 8, suiteSeed) }},
		{"torus1048576", 1 << 20, 0, false, func() gen.Family { return gen.Torus(1024, 1024) }},
	}
	for _, f := range families {
		f := f
		var shared *gen.Family
		family := func() gen.Family {
			if shared == nil {
				fam := f.build()
				shared = &fam
			}
			return *shared
		}
		type sweepEntry struct {
			workers int
			traced  bool
			faulted bool
		}
		sweep := []sweepEntry{{1, false, false}, {2, false, false}, {8, false, false}}
		if f.traced {
			// The traced entry records what buffered parallel emission costs
			// at scale: per-worker buffers plus the chunk-order flush into a
			// ring sink, compared against the untraced w=8 entry beside it.
			sweep = append(sweep, sweepEntry{8, true, false})
			// The faulted entries record what node-addressed fault draws cost
			// inside the parallel phase bodies (a stack-local reseed per
			// queried node), swept across the same worker counts as the
			// fault-free rows so the overhead and its scaling are both in
			// every recording.
			sweep = append(sweep, sweepEntry{1, false, true}, sweepEntry{2, false, true}, sweepEntry{8, false, true})
		}
		for i, sw := range sweep {
			sw := sw
			last := i == len(sweep)-1
			name := fmt.Sprintf("scale/round/%s/w=%d", f.label, sw.workers)
			if sw.traced {
				name += "-traced"
			}
			if sw.faulted {
				name += "-faulted"
			}
			var (
				eng  *sim.Engine
				next = 1
			)
			suite = append(suite, Benchmark{
				Name:  name,
				Nodes: f.nodes,
				// The traced entry joins the quick subset so CI's compare gate
				// watches buffered parallel emission, not just records it.
				Quick:   sw.traced || sw.workers == f.quick,
				Workers: sw.workers,
				Fn: func(iters int) int64 {
					if eng == nil {
						fam := family()
						protocols := core.NewBlindGossipNetwork(core.UniqueUIDs(fam.N(), suiteSeed))
						cfg := sim.Config{Seed: suiteSeed, Workers: sw.workers}
						if sw.traced {
							cfg.Sink = obs.NewRing(1 << 16)
						}
						if sw.faulted {
							in, err := fault.NewInjector(fault.Plan{
								Seed: suiteSeed, CrashRate: 0.001, RecoverRate: 0.2,
								ProposalLoss: 0.02, ConnLoss: 0.01,
							}, fam.N())
							if err != nil {
								fatalf("scale round bench (%s): %v", name, err)
							}
							cfg.Faults = in
						}
						var err error
						eng, err = sim.New(dyngraph.NewStatic(fam), protocols, cfg)
						if err != nil {
							fatalf("scale round bench (%s): %v", name, err)
						}
					}
					eng.RunRounds(next, iters)
					next += iters
					return int64(iters)
				},
				Cleanup: func() {
					eng = nil
					if last {
						shared = nil
					}
				},
			})
		}
	}
	return suite
}

// steadyRoundBench measures one op = one steady-state engine round of blind
// gossip on a static mesh, the regime the round loop must keep allocation-
// free: its allocs_per_op recording is the zero-allocs/round contract.
func steadyRoundBench() Benchmark {
	const n = 256
	var (
		eng  *sim.Engine
		next = 1
	)
	return Benchmark{
		Name:  "steady/blindgossip/mesh256/round",
		Nodes: n,
		Quick: true,
		Fn: func(iters int) int64 {
			if eng == nil {
				fam := gen.RandomRegular(n, 8, 1)
				protocols := core.NewBlindGossipNetwork(core.UniqueUIDs(n, suiteSeed))
				var err error
				eng, err = sim.New(dyngraph.NewStatic(fam), protocols,
					sim.Config{Seed: suiteSeed, Workers: 1})
				if err != nil {
					fatalf("steady round bench: %v", err)
				}
			}
			eng.RunRounds(next, iters)
			next += iters
			return int64(iters)
		},
	}
}

// steadyRoundTracedBench is steadyRoundBench with a ring sink attached: the
// delta against the untraced recording is the cost of *enabled* tracing
// (event construction plus ring writes). Its allocs_per_op must also stay 0
// — once the ring is warm, emission overwrites events in place.
func steadyRoundTracedBench() Benchmark {
	const n = 256
	var (
		eng  *sim.Engine
		next = 1
	)
	return Benchmark{
		Name:  "steady/blindgossip/mesh256/round-traced",
		Nodes: n,
		Quick: true,
		Fn: func(iters int) int64 {
			if eng == nil {
				fam := gen.RandomRegular(n, 8, 1)
				protocols := core.NewBlindGossipNetwork(core.UniqueUIDs(n, suiteSeed))
				var err error
				eng, err = sim.New(dyngraph.NewStatic(fam), protocols,
					sim.Config{Seed: suiteSeed, Workers: 1, Sink: obs.NewRing(1 << 12)})
				if err != nil {
					fatalf("steady traced round bench: %v", err)
				}
			}
			eng.RunRounds(next, iters)
			next += iters
			return int64(iters)
		},
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mtmbench: "+format+"\n", args...)
	os.Exit(1)
}
