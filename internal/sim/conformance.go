package sim

import (
	"fmt"

	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph/gen"
)

// ConformanceConfig parameterizes CheckConformance.
type ConformanceConfig struct {
	// Seed drives the randomized schedules and engine randomness.
	Seed uint64
	// Rounds per scenario (default 200).
	Rounds int
	// TagBits the protocol is entitled to (checked by the engine).
	TagBits int
}

// CheckConformance runs a protocol factory through a battery of randomized
// scenarios and verifies it behaves as a well-formed mobile telephone model
// protocol:
//
//   - it never panics and never violates engine-enforced budgets (tag
//     width, message size, topological adjacency of proposals) across
//     static, permuted, churn, and waypoint schedules;
//   - it is deterministic: the same seed yields an identical per-round
//     connection trace on two independent instances;
//   - it tolerates activation staggering (callbacks only after activation).
//
// The factory is invoked once per node per scenario. Any violation is
// returned as an error describing the scenario. Protocol packages call this
// from their tests; it is exported (rather than in a _test file) so every
// protocol package can reuse it.
func CheckConformance(factory func(node int) Protocol, cfg ConformanceConfig) error {
	if cfg.Rounds == 0 {
		cfg.Rounds = 200
	}

	scenarios := buildConformanceScenarios(cfg.Seed)
	for _, sc := range scenarios {
		trace1, err := runConformance(factory, sc, cfg)
		if err != nil {
			return fmt.Errorf("sim: conformance scenario %q: %w", sc.name, err)
		}
		trace2, err := runConformance(factory, sc, cfg)
		if err != nil {
			return fmt.Errorf("sim: conformance scenario %q (replay): %w", sc.name, err)
		}
		if len(trace1) != len(trace2) {
			return fmt.Errorf("sim: conformance scenario %q: nondeterministic trace lengths %d vs %d",
				sc.name, len(trace1), len(trace2))
		}
		for i := range trace1 {
			if trace1[i] != trace2[i] {
				return fmt.Errorf("sim: conformance scenario %q: nondeterministic at round %d: %+v vs %+v",
					sc.name, i+1, trace1[i], trace2[i])
			}
		}
	}
	return nil
}

type conformanceScenario struct {
	name        string
	sched       dyngraph.Schedule
	activations []int
}

// conformanceTopologies builds the fixed test network shapes.
type conformanceTopologies struct {
	n    int
	base gen.Family
	seed uint64
}

func newConformanceTopologies(seed uint64) conformanceTopologies {
	return conformanceTopologies{n: 32, base: gen.RandomRegular(32, 4, seed), seed: seed}
}

func (c conformanceTopologies) static() dyngraph.Schedule { return dyngraph.NewStatic(c.base) }
func (c conformanceTopologies) permuted(tau int) dyngraph.Schedule {
	return dyngraph.NewPermuted(c.base, tau, c.seed+1)
}
func (c conformanceTopologies) churn() dyngraph.Schedule {
	return dyngraph.NewChurn(c.base, 2, 8, c.seed+2)
}
func (c conformanceTopologies) waypoint() dyngraph.Schedule {
	return dyngraph.NewWaypoint(c.n, 0.35, 0.05, 3, c.seed+3)
}

// buildConformanceScenarios assembles the schedule battery. It lives behind
// a function so each CheckConformance call gets fresh (stateful) schedules.
func buildConformanceScenarios(seed uint64) []conformanceScenario {
	// Import cycle note: sim may not import graph generators' tests, but
	// dyngraph + gen are lower layers, which is fine.
	mk := newConformanceTopologies(seed)
	acts := make([]int, mk.n)
	for i := range acts {
		acts[i] = 1 + (i*17)%50
	}
	return []conformanceScenario{
		{"static", mk.static(), nil},
		{"permuted tau=1", mk.permuted(1), nil},
		{"permuted tau=5", mk.permuted(5), nil},
		{"churn", mk.churn(), nil},
		{"waypoint", mk.waypoint(), nil},
		{"staggered activations", mk.static(), acts},
	}
}

func runConformance(factory func(node int) Protocol, sc conformanceScenario, cfg ConformanceConfig) (trace []RoundStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	n := sc.sched.N()
	protocols := make([]Protocol, n)
	for i := range protocols {
		protocols[i] = factory(i)
	}
	eng, err := New(sc.sched, protocols, Config{
		Seed:        cfg.Seed,
		TagBits:     cfg.TagBits,
		MaxRounds:   cfg.Rounds,
		Activations: sc.activations,
		Workers:     1,
		Observer:    func(s RoundStats) { trace = append(trace, s) },
	})
	if err != nil {
		return nil, err
	}
	// Run the full horizon; not stabilizing is fine (conformance is about
	// behavior, not convergence).
	if _, err := eng.Run(nil); err == nil {
		return nil, fmt.Errorf("engine stopped without a stop condition")
	}
	// Post-run invariants on the trace.
	for _, s := range trace {
		if s.Connections > s.Proposals {
			return nil, fmt.Errorf("round %d: connections %d exceed proposals %d", s.Round, s.Connections, s.Proposals)
		}
		if 2*s.Connections > n {
			return nil, fmt.Errorf("round %d: %d connections exceed n/2", s.Round, s.Connections)
		}
	}
	return trace, nil
}
