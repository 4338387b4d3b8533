package sim_test

import (
	"testing"

	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/fault"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/rumor"
	"mobiletel/internal/sim"
)

func TestClassicalHubServesAllLeaves(t *testing.T) {
	// In classical mode, a star hub that knows the rumor can be pulled by
	// every leaf simultaneously: full dissemination in O(1) rounds. In the
	// mobile model the same workload needs >= n-1 rounds.
	n := 64
	f := gen.Star(n)
	run := func(classical bool) int {
		protocols := rumor.NewPushPullNetwork(n, map[int]bool{0: true})
		eng, err := sim.New(dyngraph.NewStatic(f), protocols, sim.Config{
			Seed: 7, MaxRounds: 1_000_000, Classical: classical, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(rumor.AllInformed)
		if err != nil {
			t.Fatal(err)
		}
		return res.StabilizedRound
	}
	classical := run(true)
	mobile := run(false)
	if classical > 12 {
		t.Fatalf("classical star dissemination took %d rounds; hub not serving all", classical)
	}
	if mobile < n-1 {
		t.Fatalf("mobile star dissemination took %d < n-1 rounds; acceptance cap broken", mobile)
	}
}

func TestClassicalConnectionsCanExceedHalfN(t *testing.T) {
	// All leaves pull the hub at once: connections per round can reach n-1,
	// impossible under the mobile model's one-connection cap.
	n := 32
	f := gen.Star(n)
	protocols := rumor.NewPushPullNetwork(n, map[int]bool{0: true})
	maxConns := 0
	eng, err := sim.New(dyngraph.NewStatic(f), protocols, sim.Config{
		Seed: 3, MaxRounds: 50, Classical: true, Workers: 1,
		Observer: func(s sim.RoundStats) {
			if s.Connections > maxConns {
				maxConns = s.Connections
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = eng.Run(rumor.AllInformed)
	if maxConns <= n/2 {
		t.Fatalf("classical max connections/round = %d; expected hub fan-in beyond n/2", maxConns)
	}
}

func TestClassicalLeaderElectionStillCorrect(t *testing.T) {
	uids := core.UniqueUIDs(40, 5)
	protocols := core.NewBlindGossipNetwork(uids)
	eng, err := sim.New(dyngraph.NewStatic(gen.RandomRegular(40, 4, 9)), protocols, sim.Config{
		Seed: 11, MaxRounds: 1_000_000, Classical: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(sim.AllLeadersEqual); err != nil {
		t.Fatal(err)
	}
	if protocols[0].Leader() != core.MinUID(uids) {
		t.Fatal("classical-mode election elected wrong leader")
	}
}

func TestClassicalDeterministic(t *testing.T) {
	run := func() sim.Result {
		protocols := rumor.NewPushPullNetwork(30, map[int]bool{0: true})
		eng, err := sim.New(dyngraph.NewStatic(gen.Cycle(30)), protocols, sim.Config{
			Seed: 4, MaxRounds: 1_000_000, Classical: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(rumor.AllInformed)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("classical mode nondeterministic: %+v vs %+v", a, b)
	}
}

// TestClassicalRoundStatsConserveProposals holds faulted classical rounds to
// the conservation identity RoundStats documents: every proposal lands in
// exactly one bucket, so a proposal that fault injection drops counts in
// FaultLost.
func TestClassicalRoundStatsConserveProposals(t *testing.T) {
	const n = 48
	protocols := core.NewBlindGossipNetwork(core.UniqueUIDs(n, 27))
	dropped, rounds := 0, 0
	eng, err := sim.New(dyngraph.NewPermuted(gen.RandomRegular(n, 6, 21), 3, 22), protocols, sim.Config{
		Seed: 31, MaxRounds: 150, Classical: true,
		Faults: mustInjector(t, fault.Plan{Seed: 23, CrashRate: 0.02, RecoverRate: 0.3, MaxDown: 6,
			ResetOnRecover: true, ProposalLoss: 0.05, ConnLoss: 0.05}, n),
		Observer: func(s sim.RoundStats) {
			rounds++
			dropped += s.FaultLost
			if got := s.Accepts + s.Rejects + s.BusyLost + s.FaultLost; got != s.Proposals {
				t.Errorf("round %d: accepts %d + rejects %d + busy %d + fault %d = %d, want %d proposals",
					s.Round, s.Accepts, s.Rejects, s.BusyLost, s.FaultLost, got, s.Proposals)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = eng.Run(nil)
	if rounds != 150 || dropped == 0 {
		t.Fatalf("ran %d rounds with %d fault-dropped proposals; want 150 rounds and some drops", rounds, dropped)
	}
}
