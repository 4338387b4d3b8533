// External test package: core implements sim.Protocol, so importing it from
// an in-package test would be an import cycle.
package sim_test

import (
	"runtime"
	"testing"

	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/sim"
)

// poolEngine builds a blind-gossip engine on the forced pool: with
// Workers > 1 every phase of every round is published to the persistent
// workers, even below the node-count gate and on a single-P host where the
// engine would otherwise run inline (Workers == 1 still runs inline). The
// protocol slice comes back too — engines mutate it in place, and the
// stress tests digest it after the run.
func poolEngine(t *testing.T, n, workers int) (*sim.Engine, []sim.Protocol) {
	t.Helper()
	protocols := core.NewBlindGossipNetwork(core.UniqueUIDs(n, 42))
	eng, err := sim.New(
		dyngraph.NewStatic(gen.RandomRegular(n, 8, 1)),
		protocols,
		sim.ForcePool(sim.Config{Seed: 42, Workers: workers}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return eng, protocols
}

// TestPoolStressRapidDispatch is the -race stress for the persistent worker
// pool's epoch barrier: more workers than GOMAXPROCS, a node count small
// enough that each dispatch is over in microseconds, and thousands of rounds
// — tens of thousands of publish/spin/park/wake cycles in rapid succession,
// exactly the regime where a missing release/acquire edge between the
// dispatcher's slot writes and a worker's reads would surface as a detector
// report or a divergent result. The run must also stay bit-identical to the
// inline Workers=1 execution, so a lost wakeup that silently skipped a chunk
// cannot hide.
func TestPoolStressRapidDispatch(t *testing.T) {
	const (
		n       = 256
		workers = 16 // > GOMAXPROCS on typical CI hosts: forces preemption inside the barrier
		rounds  = 2000
	)
	run := func(w int) uint64 {
		eng, protocols := poolEngine(t, n, w)
		defer eng.Close()
		eng.RunRounds(1, rounds)
		return leaderDigest(protocols)
	}
	want := run(1)
	if got := run(workers); got != want {
		t.Fatalf("pool run diverged from inline: leader digest %#x vs %#x", got, want)
	}
}

// TestPoolStressCloseCycles churns pool lifetimes: many engines created,
// briefly run, and deterministically closed. Under -race this exercises the
// shutdown edge — the nil-fn close publish racing parked and spinning
// workers — and under normal runs it pins Close as idempotent and safe to
// call twice.
func TestPoolStressCloseCycles(t *testing.T) {
	const cycles = 40
	for i := 0; i < cycles; i++ {
		eng, _ := poolEngine(t, 128, 8)
		eng.RunRounds(1, 25)
		eng.Close()
		eng.Close() // idempotent
	}
	// Give any straggling worker a chance to trip the detector before exit.
	runtime.Gosched()
}

// TestSteadyStateZeroAllocsPool pins the pool's hot path: once warm, a
// round dispatched through the persistent pool allocates nothing — the
// epoch publish is an atomic increment — same as the Workers=1 inline path.
func TestSteadyStateZeroAllocsPool(t *testing.T) {
	const (
		n       = 512
		workers = 4
	)
	eng, _ := poolEngine(t, n, workers)
	defer eng.Close()
	// Warm up: one-time growth (the Context scratch, lazy state).
	eng.RunRounds(1, 50)
	next := 51
	avg := testing.AllocsPerRun(200, func() {
		eng.RunRounds(next, 1)
		next++
	})
	if avg != 0 {
		t.Fatalf("pool steady-state round allocates: %v allocs/round, want 0", avg)
	}
}
