package sim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/fault"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/obs"
	"mobiletel/internal/rumor"
	"mobiletel/internal/sim"
)

// Size, length and engine seed of the TestTracePin configurations.
const (
	tracePinN      = 48
	tracePinRounds = 150
	tracePinSeed   = 31
)

// tracePinCase is one configuration TestTracePin holds to a digest.
type tracePinCase struct {
	name      string
	want      string
	sched     func() dyngraph.Schedule
	build     func() []sim.Protocol
	tagBits   int
	faulted   bool
	classical bool
}

// tracePinCases returns TestTracePin's configurations, and the fault plan
// and activations the faulted ones run under.
func tracePinCases() (cases []tracePinCase, plan fault.Plan, acts []int) {
	const n = tracePinN
	base := gen.RandomRegular(n, 6, 21)
	permuted := func() dyngraph.Schedule { return dyngraph.NewPermuted(base, 3, 22) }
	acts = make([]int, n)
	for u := range acts {
		acts[u] = 1 + (u*7)%12
	}
	plan = fault.Plan{
		Seed: 23, CrashRate: 0.02, RecoverRate: 0.3, MaxDown: 6, ResetOnRecover: true,
		ProposalLoss: 0.05, ConnLoss: 0.05, TagFlipRate: 0.05,
		// Nodes 0 and 12 are active at round 4; nodes 1 and 30 activate at
		// rounds 8 and 7, so the first burst must skip them.
		Corruptions: []fault.Burst{{Round: 4, Nodes: []int{0, 1, 12, 30}}, {Round: 40, Nodes: []int{5, 20}}},
		Partitions:  []fault.Partition{{Start: 20, Heal: 60, Parts: 2}},
	}
	params := core.DefaultBitConvParams(n, 6)
	cases = []tracePinCase{
		{
			name:  "asyncbitconv-faulted",
			want:  "96518f68c66f59169baa2b2dbe12fb29fc7c9942609ee10d3a443a5090fcae1d",
			sched: permuted, tagBits: core.TagBitsNeeded(params), faulted: true,
			build: func() []sim.Protocol {
				p, _ := core.NewAsyncBitConvNetwork(core.UniqueUIDs(n, 24), params, 25)
				return p
			},
		},
		{
			name:  "blindgossip-faulted",
			want:  "a18a2b6fb150aa96b07ea6daee66b20f6736560eab017235a1664b900e29caac",
			sched: permuted, faulted: true,
			build: func() []sim.Protocol { return core.NewBlindGossipNetwork(core.UniqueUIDs(n, 26)) },
		},
		{
			name:  "classical-faulted",
			want:  "7ed1852113a3efce87ae98a2df767b486498beb7d6c9f2e21e1000cc0de48f74",
			sched: permuted, faulted: true, classical: true,
			build: func() []sim.Protocol { return core.NewBlindGossipNetwork(core.UniqueUIDs(n, 27)) },
		},
		{
			name:  "bitconv",
			want:  "0998be60564ae558df57a7ec7b20a7273b03ac785d241224d373b481d0b7b19d",
			sched: func() dyngraph.Schedule { return dyngraph.NewStatic(base) }, tagBits: 1,
			build: func() []sim.Protocol {
				p, _ := core.NewBitConvNetwork(core.UniqueUIDs(n, 28), params, 29)
				return p
			},
		},
		{
			name:  "ppush-churn",
			want:  "2f2d0728d0187e2a1309e8f7ec3aafba3cc314966f1ea90c050e0efa5f180a3d",
			sched: func() dyngraph.Schedule { return dyngraph.NewChurn(base, 2, 8, 30) }, tagBits: 1,
			build: func() []sim.Protocol { return rumor.NewPPushNetwork(n, map[int]bool{0: true}) },
		},
	}
	return cases, plan, acts
}

// TestTracePin pins the engine's observable output across versions. The
// conformance sweep compares worker counts and dispatch modes within one
// build, and TestEngineMatchesOracle compares the engine with the reference
// executor; this test compares the build against SHA-256 digests recorded
// from an earlier one, so a refactor of the round core that changes a
// single trace byte, round statistic or final leader fails here even when
// every column still agrees with every other.
//
// Each digest covers the full mtmtrace/v1 JSONL trace (header through the
// final round_end), every RoundStats the observer saw, and the final leader
// variable of every node. Runs go through Run with a MaxRounds cap and no
// stop condition, so every case executes exactly the same rounds and the
// sink is ended (its tail flushed). Each case runs inline at Workers 1 and 2
// and on the forced pool at Workers 3; all three must match the pin.
//
// The faulted cases exercise every round-start fault path: staggered
// activations with a corruption burst that names both active and
// not-yet-active nodes, rate churn with crash-with-amnesia recovery,
// proposal and connection loss, tag flips and a healing partition.
//
// A digest changes only when the engine's semantics or the trace format
// change on purpose; regenerate the pins then, and say why in the commit.
func TestTracePin(t *testing.T) {
	cases, plan, acts := tracePinCases()
	columns := []struct {
		name    string
		workers int
		pool    bool
	}{
		{"w1", 1, false},
		{"w2", 2, false},
		{"w3-pool", 3, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, col := range columns {
				protocols := tc.build()
				var trace bytes.Buffer
				h := sha256.New()
				cfg := sim.Config{
					Seed: tracePinSeed, TagBits: tc.tagBits, MaxRounds: tracePinRounds, Workers: col.workers,
					Classical: tc.classical, Sink: obs.NewJSONL(&trace),
					Observer: func(s sim.RoundStats) { fmt.Fprintf(h, "%+v\n", s) },
				}
				if tc.faulted {
					cfg.Activations = acts
					cfg.Faults = mustInjector(t, plan, tracePinN)
				}
				if col.pool {
					cfg = sim.ForcePool(cfg)
				}
				eng, err := sim.New(tc.sched(), protocols, cfg)
				if err != nil {
					t.Fatal(err)
				}
				_, err = eng.Run(nil)
				eng.Close()
				if !errors.Is(err, sim.ErrNotStabilized) {
					t.Fatalf("%s: Run without a stop condition returned %v", col.name, err)
				}
				h.Write(trace.Bytes())
				var leader [8]byte
				for _, p := range protocols {
					binary.LittleEndian.PutUint64(leader[:], p.Leader())
					h.Write(leader[:])
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
					t.Errorf("%s: digest %s, pinned %s", col.name, got, tc.want)
				}
			}
		})
	}
}
