package gossip_test

import (
	"testing"

	"mobiletel/internal/dyngraph"
	"mobiletel/internal/gossip"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/sim"
)

func runGossip(t *testing.T, sched dyngraph.Schedule, n int, seed uint64) []sim.Protocol {
	t.Helper()
	protocols := gossip.NewNetwork(n)
	eng, err := sim.New(sched, protocols, sim.Config{Seed: seed, MaxRounds: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(gossip.AllComplete); err != nil {
		t.Fatalf("gossip did not complete: %v", err)
	}
	return protocols
}

func TestGossipCompletesOnFamilies(t *testing.T) {
	families := []gen.Family{
		gen.Clique(24),
		gen.Cycle(20),
		gen.RandomRegular(32, 4, 3),
		gen.SqrtLineOfStars(4),
	}
	for _, f := range families {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			protocols := runGossip(t, dyngraph.NewStatic(f), f.N(), 5)
			for i, p := range protocols {
				node := p.(*gossip.Node)
				for r := 0; r < f.N(); r++ {
					if !node.Knows(r) {
						t.Fatalf("node %d missing rumor %d at completion", i, r)
					}
				}
			}
		})
	}
}

func TestGossipUnderChurn(t *testing.T) {
	f := gen.RandomRegular(24, 4, 7)
	runGossip(t, dyngraph.NewPermuted(f, 1, 9), 24, 11)
}

func TestGossipMonotoneAndConservative(t *testing.T) {
	// Known counts never decrease, and nobody can know more than n rumors
	// (no rumor is invented).
	n := 20
	protocols := gossip.NewNetwork(n)
	prev := make([]int, n)
	for i, p := range protocols {
		prev[i] = p.(*gossip.Node).Count()
		if prev[i] != 1 {
			t.Fatalf("node %d starts knowing %d rumors", i, prev[i])
		}
	}
	stop := func(round int, ps []sim.Protocol) bool {
		for i, p := range ps {
			c := p.(*gossip.Node).Count()
			if c < prev[i] {
				t.Fatalf("round %d: node %d forgot rumors (%d -> %d)", round, i, prev[i], c)
			}
			if c > n {
				t.Fatalf("round %d: node %d knows %d > n rumors", round, i, c)
			}
			prev[i] = c
		}
		return gossip.AllComplete(round, ps)
	}
	eng, err := sim.New(dyngraph.NewStatic(gen.Clique(n)), protocols, sim.Config{Seed: 3, MaxRounds: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(stop); err != nil {
		t.Fatal(err)
	}
}

func TestGossipNodeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad node index did not panic")
		}
	}()
	gossip.NewNode(5, 5)
}

func TestGossipConformance(t *testing.T) {
	if err := sim.CheckConformance(func(node int) sim.Protocol {
		return gossip.NewNode(32, node)
	}, sim.ConformanceConfig{Seed: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestGossipKnowsBoundsChecked(t *testing.T) {
	node := gossip.NewNode(8, 2)
	if node.Knows(-1) || node.Knows(8) {
		t.Fatal("out-of-range Knows should be false")
	}
	if !node.Knows(2) {
		t.Fatal("node must know its own rumor")
	}
}
