package sim_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/fault"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/obs"
	"mobiletel/internal/rumor"
	"mobiletel/internal/sim"
)

// oracleCase is one configuration the engine must execute exactly as
// sim.RunOracle, the reference executor, does.
type oracleCase struct {
	name   string
	n      int
	rounds int
	sched  func() dyngraph.Schedule
	build  func() []sim.Protocol
	cfg    sim.Config // Seed, TagBits, Activations, Accept, Classical
	plan   *fault.Plan
}

// execution is everything a run shows: the full mtmtrace/v1 JSONL trace,
// every round's statistics and each node's final leader variable. The trace
// is unfiltered and compared byte for byte, so it also fixes every
// connection and with it every node's lifetime connection load.
type execution struct {
	trace   []byte
	stats   []sim.RoundStats
	leaders []uint64
}

// oracleColumns are the engine configurations every case runs under: inline
// at Workers 1 and 2, and on the forced pool with even and uneven chunks.
var oracleColumns = []struct {
	name    string
	workers int
	pool    bool
}{
	{"w1", 1, false},
	{"w2", 2, false},
	{"w2-pool", 2, true},
	{"w5-pool", 5, true},
}

// config returns the case's configuration with a JSONL sink into buf and,
// for a faulted case, a fresh injector (injectors are single-run state).
func (c oracleCase) config(t *testing.T, buf *bytes.Buffer) sim.Config {
	cfg := c.cfg
	cfg.Sink = obs.NewJSONL(buf)
	if c.plan != nil {
		cfg.Faults = mustInjector(t, *c.plan, c.n)
	}
	return cfg
}

func (c oracleCase) runOracle(t *testing.T) execution {
	var buf bytes.Buffer
	protocols := c.build()
	stats := sim.RunOracle(c.sched(), protocols, c.config(t, &buf), c.rounds)
	return execution{buf.Bytes(), stats, leaders(protocols)}
}

func (c oracleCase) runEngine(t *testing.T, workers int, pool bool) execution {
	var buf bytes.Buffer
	var stats []sim.RoundStats
	cfg := c.config(t, &buf)
	cfg.Workers, cfg.MaxRounds = workers, c.rounds
	cfg.Observer = func(s sim.RoundStats) { stats = append(stats, s) }
	if pool {
		cfg = sim.ForcePool(cfg)
	}
	protocols := c.build()
	eng, err := sim.New(c.sched(), protocols, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run(nil)
	eng.Close()
	if !errors.Is(err, sim.ErrNotStabilized) {
		t.Fatalf("Run without a stop condition returned %v", err)
	}
	return execution{buf.Bytes(), stats, leaders(protocols)}
}

func leaders(protocols []sim.Protocol) []uint64 {
	out := make([]uint64, len(protocols))
	for u, p := range protocols {
		out[u] = p.Leader()
	}
	return out
}

// diff describes the first way got differs from the reference run want, or
// returns nil when the runs are identical.
func (want execution) diff(got execution) error {
	if !bytes.Equal(got.trace, want.trace) {
		wl, gl := bytes.Split(want.trace, []byte("\n")), bytes.Split(got.trace, []byte("\n"))
		i := 0
		for i < len(wl) && i < len(gl) && bytes.Equal(wl[i], gl[i]) {
			i++
		}
		line := func(ls [][]byte) string {
			if i < len(ls) {
				return string(ls[i])
			}
			return "<end of trace>"
		}
		return fmt.Errorf("trace line %d:\n engine %s\n oracle %s", i+1, line(gl), line(wl))
	}
	for i := range min(len(got.stats), len(want.stats)) {
		if got.stats[i] != want.stats[i] {
			return fmt.Errorf("round stats:\n engine %+v\n oracle %+v", got.stats[i], want.stats[i])
		}
	}
	if len(got.stats) != len(want.stats) {
		return fmt.Errorf("engine ran %d rounds, oracle %d", len(got.stats), len(want.stats))
	}
	if !slices.Equal(got.leaders, want.leaders) {
		return errors.New("final leader variables differ")
	}
	return nil
}

// checkAgainstOracle runs c on the oracle once and on the engine in every
// column, and fails on the first difference.
func checkAgainstOracle(t *testing.T, c oracleCase) {
	t.Helper()
	want := c.runOracle(t)
	for _, col := range oracleColumns {
		if err := want.diff(c.runEngine(t, col.workers, col.pool)); err != nil {
			t.Fatalf("%s: engine diverged from the oracle at %v", col.name, err)
		}
	}
}

// TestEngineMatchesOracle holds the engine to the reference executor byte
// for byte (trace, round statistics and final leaders) at
// Workers 1 and 2 inline and on the forced pool, over a fixed number of
// rounds. The cases are TestTracePin's five configurations, the conformance
// sweep's five protocols on its topology fault-free and under its fault
// plan, classical mode, and each accept policy. Unlike the conformance
// sweep, which compares the engine with itself, this catches a change of
// semantics that every worker count shares.
func TestEngineMatchesOracle(t *testing.T) {
	var cases []oracleCase
	pins, pinPlan, pinActs := tracePinCases()
	for _, pc := range pins {
		c := oracleCase{name: "pin/" + pc.name, n: tracePinN, rounds: tracePinRounds,
			sched: pc.sched, build: pc.build,
			cfg: sim.Config{Seed: tracePinSeed, TagBits: pc.tagBits, Classical: pc.classical}}
		if pc.faulted {
			c.cfg.Activations, c.plan = pinActs, &pinPlan
		}
		cases = append(cases, c)
	}

	const rounds = 60 // covers the sweep plan's partition, heal and burst
	f := gen.SqrtLineOfStars(20)
	n := f.N()
	plan := sweepPlan(n)
	sched := func() dyngraph.Schedule { return dyngraph.NewPermuted(f, 2, 17) }
	for _, cc := range conformanceCases(n, 22) {
		build := func() []sim.Protocol { return cc.build(n) }
		cfg := sim.Config{Seed: 29, TagBits: cc.tagBits}
		cases = append(cases,
			oracleCase{name: "sweep/fault-free/" + cc.name, n: n, rounds: rounds, sched: sched, build: build, cfg: cfg},
			oracleCase{name: "sweep/faulted/" + cc.name, n: n, rounds: rounds, sched: sched, build: build, cfg: cfg, plan: &plan})
	}

	blind := func() []sim.Protocol { return core.NewBlindGossipNetwork(core.UniqueUIDs(n, 94)) }
	cases = append(cases, oracleCase{name: "classical", n: n, rounds: rounds, sched: sched, build: blind,
		cfg: sim.Config{Seed: 33, Classical: true}})
	for i, name := range []string{"uniform", "lowest-id", "highest-id"} { // in AcceptPolicy order
		cases = append(cases, oracleCase{name: "accept/" + name, n: n, rounds: rounds, sched: sched,
			build: blind, cfg: sim.Config{Seed: 35, Accept: sim.AcceptPolicy(i)}, plan: &plan})
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkAgainstOracle(t, c) })
	}
}

// fuzzRounds is how many rounds each fuzzed configuration runs.
const fuzzRounds = 40

// FuzzEngineMatchesOracle decodes small configurations and requires the
// engine to run each exactly as the oracle does:
//
//   - size: n in [5, 64];
//   - shape: bits 0-1 the topology (random 4-regular, star, clique,
//     line of stars), bits 2-3 the schedule (static, permuted, churn,
//     waypoint), bits 4-5 its τ − 1;
//   - proto: blind gossip, bit convergence, asynchronous bit convergence,
//     push-pull or PPUSH;
//   - faults: one bit per fault-plan feature, bit 8 staggered activations;
//   - mode: bits 0-1 Workers − 1, bit 2 the forced pool, bit 3 classical
//     mode, bits 4-5 the accept policy.
//
// The seed corpus runs in plain go test; make fuzz-smoke explores beyond it.
func FuzzEngineMatchesOracle(f *testing.F) {
	f.Add(uint64(1), uint8(19), uint8(0x00), uint8(0), uint16(0x000), uint8(0x00))
	f.Add(uint64(2), uint8(35), uint8(0x14), uint8(1), uint16(0x0ff), uint8(0x01))
	f.Add(uint64(3), uint8(59), uint8(0x29), uint8(2), uint16(0x1c3), uint8(0x06))
	f.Add(uint64(4), uint8(28), uint8(0x3e), uint8(3), uint16(0x03c), uint8(0x17))
	f.Add(uint64(5), uint8(11), uint8(0x07), uint8(4), uint16(0x1f0), uint8(0x2b))
	f.Add(uint64(6), uint8(44), uint8(0x1b), uint8(0), uint16(0x10c), uint8(0x0f))
	f.Add(uint64(7), uint8(2), uint8(0x0f), uint8(2), uint16(0x0aa), uint8(0x25))
	f.Fuzz(func(t *testing.T, seed uint64, size, shape, proto uint8, faults uint16, mode uint8) {
		c := decodeFuzzCase(seed, size, shape, proto, faults, mode)
		want := c.runOracle(t)
		workers, pool := 1+int(mode&3), mode&4 != 0
		if err := want.diff(c.runEngine(t, workers, pool)); err != nil {
			t.Fatalf("n=%d Workers=%d pool=%v: engine diverged from the oracle at %v", c.n, workers, pool, err)
		}
	})
}

func decodeFuzzCase(seed uint64, size, shape, proto uint8, faults uint16, mode uint8) oracleCase {
	n := 5 + int(size)%60
	var base gen.Family
	switch shape & 3 {
	case 0:
		base = gen.RandomRegular(n, 4, seed)
	case 1:
		base = gen.Star(n)
	case 2:
		base = gen.Clique(n)
	case 3:
		base = gen.LineOfStars(2+n%3, n/(2+n%3)-1)
	}
	n = base.N()
	tau := 1 + int(shape>>4&3)
	var sched func() dyngraph.Schedule
	switch shape >> 2 & 3 {
	case 0:
		sched = func() dyngraph.Schedule { return dyngraph.NewStatic(base) }
	case 1:
		sched = func() dyngraph.Schedule { return dyngraph.NewPermuted(base, tau, seed+1) }
	case 2:
		sched = func() dyngraph.Schedule { return dyngraph.NewChurn(base, tau, 4, seed+2) }
	case 3:
		sched = func() dyngraph.Schedule { return dyngraph.NewWaypoint(n, 0.35, 0.05, tau, seed+3) }
	}

	uids := core.UniqueUIDs(n, seed)
	params := core.DefaultBitConvParams(n, n-1)
	c := oracleCase{n: n, rounds: fuzzRounds, sched: sched, cfg: sim.Config{Seed: seed}}
	switch proto % 5 {
	case 0:
		c.build = func() []sim.Protocol { return core.NewBlindGossipNetwork(uids) }
	case 1:
		c.cfg.TagBits = 1
		c.build = func() []sim.Protocol { p, _ := core.NewBitConvNetwork(uids, params, seed); return p }
	case 2:
		c.cfg.TagBits = core.TagBitsNeeded(params)
		c.build = func() []sim.Protocol { p, _ := core.NewAsyncBitConvNetwork(uids, params, seed); return p }
	case 3:
		c.build = func() []sim.Protocol { return rumor.NewPushPullNetwork(n, map[int]bool{0: true}) }
	case 4:
		c.cfg.TagBits = 1
		c.build = func() []sim.Protocol { return rumor.NewPPushNetwork(n, map[int]bool{0: true}) }
	}

	if faults&0xff != 0 {
		plan := fault.Plan{Seed: seed ^ 0x5eed}
		if faults&0x01 != 0 {
			plan.CrashRate, plan.RecoverRate, plan.MaxDown = 0.05, 0.3, n/4
		}
		plan.ResetOnRecover = faults&0x02 != 0
		if faults&0x04 != 0 {
			plan.ProposalLoss = 0.1
		}
		if faults&0x08 != 0 {
			plan.ConnLoss = 0.1
		}
		if faults&0x10 != 0 {
			plan.TagFlipRate = 0.1
		}
		if faults&0x20 != 0 {
			plan.Partitions = []fault.Partition{{Start: 3, Heal: 20, Parts: 2}}
		}
		if faults&0x40 != 0 {
			plan.Corruptions = []fault.Burst{{Round: 5, Nodes: []int{0, n / 2, n - 1}}}
		}
		if faults&0x80 != 0 {
			plan.Crashes = []fault.NodeRound{{Round: 4, Node: 1}}
			plan.Recoveries = []fault.NodeRound{{Round: 12, Node: 1}}
		}
		c.plan = &plan
	}
	if faults&0x100 != 0 {
		c.cfg.Activations = make([]int, n)
		for u := range c.cfg.Activations {
			c.cfg.Activations[u] = 1 + (u*5)%9
		}
	}
	c.cfg.Classical = mode&8 != 0
	c.cfg.Accept = sim.AcceptPolicy((mode >> 4 & 3) % 3)
	return c
}
