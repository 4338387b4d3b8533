package sim_test

import (
	"errors"
	"testing"

	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/fault"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/sim"
)

// A node that leaves the network for good is a scheduled crash with no
// recovery: a departure after round d is fault.Plan.Crashes {Round: d+1}.

func TestDepartedNodesInvisible(t *testing.T) {
	// Node 1 (middle of a path) departs after round 5; thereafter the two
	// halves cannot exchange UIDs, so the network never fully agrees.
	uids := []uint64{30, 20, 10}
	protocols := core.NewBlindGossipNetwork(uids)
	plan := fault.Plan{Crashes: []fault.NodeRound{{Round: 6, Node: 1}}}
	eng, err := sim.New(dyngraph.NewStatic(gen.Path(3)), protocols, sim.Config{
		Seed: 3, MaxRounds: 2000, Workers: 1, Faults: mustInjector(t, plan, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run(func(round int, ps []sim.Protocol) bool {
		// Require agreement between the still-active endpoints only.
		return ps[0].Leader() == ps[2].Leader()
	})
	// Agreement requires 10 to cross node 1 within 5 rounds — possible but
	// not guaranteed; either way the run must be well-formed. If it did not
	// stabilize, node 0 must still hold a value >= 20 (10 never crossed).
	if err != nil {
		if !errors.Is(err, sim.ErrNotStabilized) {
			t.Fatal(err)
		}
		if protocols[0].Leader() == 10 {
			t.Fatal("UID 10 crossed a departed bridge")
		}
	}
}

// TestGhostLeaderLimitation documents a limitation the paper does not
// address (it never models departures): if the minimum-UID node departs
// after its UID has spread, the network stabilizes on a *departed* leader
// and no algorithm in the paper re-elects. This is expected behavior of the
// blind gossip invariant (candidates only improve), recorded here as a
// negative result.
func TestGhostLeaderLimitation(t *testing.T) {
	n := 24
	f := gen.Clique(n)
	uids := core.UniqueUIDs(n, 9)
	minIdx := 0
	for i, u := range uids {
		if u < uids[minIdx] {
			minIdx = i
		}
	}
	protocols := core.NewBlindGossipNetwork(uids)
	const departAfter = 40 // leave after the UID has had time to spread
	plan := fault.Plan{Crashes: []fault.NodeRound{{Round: departAfter + 1, Node: minIdx}}}

	eng, err := sim.New(dyngraph.NewStatic(f), protocols, sim.Config{
		Seed: 5, MaxRounds: 100_000, Faults: mustInjector(t, plan, n),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(sim.AllLeadersEqual)
	if err != nil {
		t.Fatal(err)
	}
	if protocols[0].Leader() != uids[minIdx] {
		// The min spread before departure on a clique with overwhelming
		// probability; if not, the run is still valid — just not the
		// scenario under test.
		t.Skipf("minimum did not spread before departure (round %d)", res.StabilizedRound)
	}
	// The elected leader is gone — the ghost-leader outcome.
	if departAfter >= res.StabilizedRound {
		t.Skip("network stabilized before the departure; scenario not exercised")
	}
}

func TestStopGateWithoutActivations(t *testing.T) {
	// With no activations the gate is round 1: stabilization can fire
	// immediately (e.g. all-equal UIDs... impossible; use rumor-like probe).
	protocols := core.NewBlindGossipNetwork([]uint64{7, 8})
	eng, err := sim.New(dyngraph.NewStatic(gen.Path(2)), protocols, sim.Config{
		Seed: 1, MaxRounds: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(sim.AllLeadersEqual)
	if err != nil {
		t.Fatal(err)
	}
	if res.StabilizedRound < 1 {
		t.Fatal("no stabilization")
	}
}
