// External test package: core implements sim.Protocol, so importing it from
// an in-package test would be an import cycle.
package sim_test

import (
	"testing"

	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/obs"
	"mobiletel/internal/sim"
)

// TestSteadyStateZeroAllocs pins the engine's zero-allocation contract: once
// warm, a round on a static mesh with Workers=1 must not allocate at all,
// for blind gossip and for both b >= 1 protocols, whose rounds also run the
// tagged neighbor pick and whose exchanges serve UIDs from protocol-owned
// arrays. Any regression here (an escaping Context, a per-round closure, a
// message slice literal) shows up as a nonzero average. With no
// Config.Sink configured, every observability emission site must reduce to
// one predictable nil-check branch — this test is what holds the tracing
// layer to its zero-overhead-when-disabled invariant.
func TestSteadyStateZeroAllocs(t *testing.T) {
	const n = 256
	uids := core.UniqueUIDs(n, 42)
	params := core.DefaultBitConvParams(n, 8)
	bitconv, _ := core.NewBitConvNetwork(uids, params, 42)
	async, _ := core.NewAsyncBitConvNetwork(uids, params, 42)
	cases := []struct {
		name      string
		protocols []sim.Protocol
		tagBits   int
	}{
		{"blindgossip", core.NewBlindGossipNetwork(uids), 0},
		{"bitconv", bitconv, 1},
		{"asyncbitconv", async, core.TagBitsNeeded(params)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng, err := sim.New(
				dyngraph.NewStatic(gen.RandomRegular(n, 8, 1)),
				c.protocols,
				sim.Config{Seed: 42, TagBits: c.tagBits, Workers: 1},
			)
			if err != nil {
				t.Fatal(err)
			}
			// Warm up: one-time growth (candidate scratch, lazy state).
			eng.RunRounds(1, 50)
			next := 51
			avg := testing.AllocsPerRun(200, func() {
				eng.RunRounds(next, 1)
				next++
			})
			if avg != 0 {
				t.Fatalf("steady-state round allocates: %v allocs/round, want 0", avg)
			}
		})
	}
}

// TestSteadyStateZeroAllocsTraced pins the stronger claim: even with
// tracing *enabled*, the emit path itself allocates nothing — events are
// flat values passed on the stack, and the ring sink overwrites in place
// once warm. Only a sink that itself allocates (e.g. JSONL encoding) adds
// allocations to a traced round.
func TestSteadyStateZeroAllocsTraced(t *testing.T) {
	const n = 256
	eng, err := sim.New(
		dyngraph.NewStatic(gen.RandomRegular(n, 8, 1)),
		core.NewBlindGossipNetwork(core.UniqueUIDs(n, 42)),
		sim.Config{Seed: 42, Workers: 1, Sink: obs.NewRing(4096)},
	)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunRounds(1, 50)
	next := 51
	avg := testing.AllocsPerRun(200, func() {
		eng.RunRounds(next, 1)
		next++
	})
	if avg != 0 {
		t.Fatalf("traced steady-state round allocates: %v allocs/round, want 0", avg)
	}
}

// TestSteadyStateZeroAllocsTracedParallel pins the parallel-emission claim:
// with Workers > 1 on the pool the emit path itself — per-worker buffer
// appends plus the chunk-order flush — must amortize to zero allocations
// per round once the buffers are warm. The pin is differential: a traced
// parallel round may cost at most a fraction of an allocation per round
// more than an untraced parallel round of the same configuration.
func TestSteadyStateZeroAllocsTracedParallel(t *testing.T) {
	const (
		n       = 512
		workers = 4
	)
	run := func(sink obs.Sink) float64 {
		eng, err := sim.New(
			dyngraph.NewStatic(gen.RandomRegular(n, 8, 1)),
			core.NewBlindGossipNetwork(core.UniqueUIDs(n, 42)),
			sim.ForcePool(sim.Config{Seed: 42, Workers: workers, Sink: sink}),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		// Warm up: one-time growth (the Context scratch and the worker-buffer
		// high-water marks, lazy state).
		eng.RunRounds(1, 50)
		next := 51
		return testing.AllocsPerRun(200, func() {
			eng.RunRounds(next, 1)
			next++
		})
	}
	untraced := run(nil)
	traced := run(obs.NewRing(1 << 13))
	if delta := traced - untraced; delta > 0.25 {
		t.Fatalf("traced parallel round allocates %v/round over untraced (%v vs %v), want amortized 0",
			delta, traced, untraced)
	}
}
