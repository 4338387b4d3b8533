package sim_test

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/sim"
	"mobiletel/internal/xrand"
)

// probe wraps a random send/receive behavior and records every established
// connection so tests can check engine invariants.
type probe struct {
	id        int32
	mu        *sync.Mutex
	conns     *[][2]int32 // shared log of (self, peer) per delivery
	sentRound map[int]bool
	lastRound int
}

func newProbeNetwork(n int) ([]sim.Protocol, *sync.Mutex, *[][2]int32) {
	mu := &sync.Mutex{}
	log := &[][2]int32{}
	protocols := make([]sim.Protocol, n)
	for i := range protocols {
		protocols[i] = &probe{id: int32(i), mu: mu, conns: log, sentRound: map[int]bool{}}
	}
	return protocols, mu, log
}

func (p *probe) Advertise(*sim.Context) uint64 { return 0 }

func (p *probe) Decide(ctx *sim.Context) (int32, bool) {
	p.lastRound = ctx.Round
	if ctx.RNG().Bool() {
		return 0, false
	}
	t, ok := ctx.RandomNeighbor()
	if !ok {
		return 0, false
	}
	p.sentRound[ctx.Round] = true
	return t, true
}

func (p *probe) Outgoing(*sim.Context, int32) sim.Message { return sim.Message{} }

func (p *probe) Deliver(ctx *sim.Context, peer int32, _ sim.Message) {
	p.mu.Lock()
	*p.conns = append(*p.conns, [2]int32{p.id, peer})
	p.mu.Unlock()
}

func (p *probe) EndRound(*sim.Context) {}
func (p *probe) Leader() uint64        { return 0 }

func TestEngineInvariants(t *testing.T) {
	f := gen.RandomRegular(60, 4, 3)
	sched := dyngraph.NewPermuted(f, 1, 5)
	const rounds = 50

	for _, workers := range []int{1, 4} {
		protocols, mu, connLog := newProbeNetwork(60)
		var stats []sim.RoundStats
		eng, err := sim.New(sched, protocols, sim.Config{
			Seed:      7,
			TagBits:   0,
			Workers:   workers,
			MaxRounds: rounds,
			Observer:  func(s sim.RoundStats) { stats = append(stats, s) },
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = eng.Run(nil)
		if !errors.Is(err, sim.ErrNotStabilized) {
			t.Fatalf("expected ErrNotStabilized sentinel, got %v", err)
		}

		mu.Lock()
		conns := append([][2]int32(nil), *connLog...)
		mu.Unlock()

		// Each delivery appears twice (once per endpoint); total deliveries
		// must equal 2 * sum of per-round connection counts.
		totalConns := 0
		for _, s := range stats {
			totalConns += s.Connections
			if s.ActiveNodes != 60 {
				t.Fatalf("round %d: active=%d", s.Round, s.ActiveNodes)
			}
			if s.Connections > s.Proposals {
				t.Fatalf("round %d: more connections (%d) than proposals (%d)", s.Round, s.Connections, s.Proposals)
			}
			if s.Connections > 30 {
				t.Fatalf("round %d: %d connections exceeds n/2", s.Round, s.Connections)
			}
		}
		if len(conns) != 2*totalConns {
			t.Fatalf("delivery log has %d entries, want %d", len(conns), 2*totalConns)
		}
		if totalConns == 0 {
			t.Fatal("no connections at all in 50 rounds (engine broken)")
		}
	}
}

func TestSendersNeverAccept(t *testing.T) {
	// In every round, a node that proposed must not also appear as a
	// receiver. We detect this by checking each node has at most one
	// delivery per round, and a sender's delivery partner must be the node
	// it proposed to (sender connected as proposer, not acceptor).
	n := 40
	f := gen.Clique(n)
	sched := dyngraph.NewStatic(f)
	protocols, mu, connLog := newProbeNetwork(n)
	eng, err := sim.New(sched, protocols, sim.Config{Seed: 3, MaxRounds: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(nil); !errors.Is(err, sim.ErrNotStabilized) {
		t.Fatalf("unexpected err %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	seen := map[int32]int{}
	for _, c := range *connLog {
		seen[c[0]]++
	}
	for node, count := range seen {
		if count > 1 {
			t.Fatalf("node %d participated in %d connections in one round", node, count)
		}
	}
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	f := gen.RandomRegular(512, 6, 9)
	run := func(workers int) (uint64, sim.Result) {
		sched := dyngraph.NewPermuted(f, 2, 11)
		uids := core.UniqueUIDs(512, 77)
		protocols := core.NewBlindGossipNetwork(uids)
		eng, err := sim.New(sched, protocols, sim.Config{
			Seed: 5, TagBits: 0, Workers: workers, MaxRounds: 200_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(sim.AllLeadersEqual)
		if err != nil {
			t.Fatal(err)
		}
		return protocols[0].Leader(), res
	}
	l1, r1 := run(1)
	l8, r8 := run(8)
	if l1 != l8 || r1 != r8 {
		t.Fatalf("parallel execution diverged: (%d, %+v) vs (%d, %+v)", l1, r1, l8, r8)
	}
}

// TestRaceSmokeParallelElection extends the divergence check above into a
// race-detector smoke test: it runs a full election with every available
// worker — large enough (n >= 256) that parallelFor actually spawns
// goroutines — and asserts bit-identical results against the sequential
// engine. Under `go test -race` (see the Makefile's race target and CI)
// this exercises all four parallel bulk-synchronous steps of a round.
func TestRaceSmokeParallelElection(t *testing.T) {
	f := gen.RandomRegular(600, 6, 21)
	run := func(workers int) (uint64, sim.Result) {
		sched := dyngraph.NewPermuted(f, 2, 13)
		uids := core.UniqueUIDs(600, 33)
		protocols := core.NewBlindGossipNetwork(uids)
		eng, err := sim.New(sched, protocols, sim.Config{
			Seed: 9, Workers: workers, MaxRounds: 100_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(sim.AllLeadersEqual)
		if err != nil {
			t.Fatal(err)
		}
		return protocols[0].Leader(), res
	}
	wantLeader, wantRes := run(1)
	gotLeader, gotRes := run(runtime.GOMAXPROCS(0))
	if gotLeader != wantLeader || gotRes != wantRes {
		t.Fatalf("Workers=GOMAXPROCS diverged from Workers=1: (%#x, %+v) vs (%#x, %+v)",
			gotLeader, gotRes, wantLeader, wantRes)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	f := gen.Cycle(30)
	run := func(seed uint64) sim.Result {
		uids := core.UniqueUIDs(30, 1)
		eng, err := sim.New(dyngraph.NewStatic(f), core.NewBlindGossipNetwork(uids),
			sim.Config{Seed: seed, MaxRounds: 100_000})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(sim.AllLeadersEqual)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	c := run(43)
	if a.StabilizedRound == c.StabilizedRound && a.Proposals == c.Proposals {
		t.Fatal("different seeds produced identical executions (suspicious)")
	}
}

func TestTagBudgetEnforced(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized tag did not panic")
		}
	}()
	protocols := []sim.Protocol{&badTagProto{}, &badTagProto{}}
	eng, err := sim.New(dyngraph.NewStatic(gen.Path(2)), protocols, sim.Config{Seed: 1, TagBits: 1, MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = eng.Run(nil)
}

type badTagProto struct{}

func (b *badTagProto) Advertise(*sim.Context) uint64            { return 2 } // needs 2 bits
func (b *badTagProto) Decide(*sim.Context) (int32, bool)        { return 0, false }
func (b *badTagProto) Outgoing(*sim.Context, int32) sim.Message { return sim.Message{} }
func (b *badTagProto) Deliver(*sim.Context, int32, sim.Message) {}
func (b *badTagProto) EndRound(*sim.Context)                    {}
func (b *badTagProto) Leader() uint64                           { return 0 }

func TestMessageBudgetEnforced(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized message did not panic")
		}
	}()
	protocols := []sim.Protocol{&chattyProto{}, &chattyProto{}}
	eng, err := sim.New(dyngraph.NewStatic(gen.Path(2)), protocols,
		sim.Config{Seed: 4, MaxRounds: 100})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = eng.Run(nil)
}

// chattyProto always proposes to its first neighbor and sends 3 UIDs.
type chattyProto struct{}

func (c *chattyProto) Advertise(*sim.Context) uint64 { return 0 }
func (c *chattyProto) Decide(ctx *sim.Context) (int32, bool) {
	// Node 0 proposes to 1; node 1 receives.
	if ctx.Node == 0 {
		return 1, true
	}
	return 0, false
}
func (c *chattyProto) Outgoing(*sim.Context, int32) sim.Message {
	return sim.Message{UIDs: []uint64{1, 2, 3}}
}
func (c *chattyProto) Deliver(*sim.Context, int32, sim.Message) {}
func (c *chattyProto) EndRound(*sim.Context)                    {}
func (c *chattyProto) Leader() uint64                           { return 0 }

func TestProposalToNonNeighborPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-neighbor proposal did not panic")
		}
	}()
	protocols := []sim.Protocol{&rogueProto{}, &rogueProto{}, &rogueProto{}}
	eng, err := sim.New(dyngraph.NewStatic(gen.Path(3)), protocols, sim.Config{Seed: 1, MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = eng.Run(nil)
}

// rogueProto: node 0 proposes to node 2, which is not adjacent on path(3).
type rogueProto struct{}

func (p *rogueProto) Advertise(*sim.Context) uint64 { return 0 }
func (p *rogueProto) Decide(ctx *sim.Context) (int32, bool) {
	if ctx.Node == 0 {
		return 2, true
	}
	return 0, false
}
func (p *rogueProto) Outgoing(*sim.Context, int32) sim.Message { return sim.Message{} }
func (p *rogueProto) Deliver(*sim.Context, int32, sim.Message) {}
func (p *rogueProto) EndRound(*sim.Context)                    {}
func (p *rogueProto) Leader() uint64                           { return 0 }

func TestConfigValidation(t *testing.T) {
	f := gen.Path(3)
	protocols, _, _ := newProbeNetwork(3)

	if _, err := sim.New(dyngraph.NewStatic(f), protocols[:2], sim.Config{}); err == nil {
		t.Fatal("protocol count mismatch accepted")
	}
	if _, err := sim.New(dyngraph.NewStatic(f), protocols, sim.Config{TagBits: 65}); err == nil {
		t.Fatal("TagBits=65 accepted")
	}
	if _, err := sim.New(dyngraph.NewStatic(f), protocols, sim.Config{Activations: []int{1, 2}}); err == nil {
		t.Fatal("short activations accepted")
	}
	if _, err := sim.New(dyngraph.NewStatic(f), protocols, sim.Config{Activations: []int{1, 0, 1}}); err == nil {
		t.Fatal("activation round 0 accepted")
	}
}

func TestInactiveNodesInvisible(t *testing.T) {
	// Node 2 activates at round 100; before that, node 1 must never see it
	// as a neighbor and never connect to it.
	n := 3
	uids := []uint64{30, 20, 10} // node 2 holds the minimum
	protocols := core.NewBlindGossipNetwork(uids)
	eng, err := sim.New(dyngraph.NewStatic(gen.Path(n)), protocols, sim.Config{
		Seed:        9,
		MaxRounds:   99,
		Activations: []int{1, 1, 100},
		Workers:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Run 99 rounds: stop condition can't fire with node 2 inactive.
	_, err = eng.Run(sim.AllLeadersEqual)
	if !errors.Is(err, sim.ErrNotStabilized) {
		t.Fatalf("run with inactive min-holder should not stabilize: %v", err)
	}
	// Nodes 0 and 1 must have converged to 20, not 10: UID 10 was invisible.
	if protocols[0].Leader() != 20 || protocols[1].Leader() != 20 {
		t.Fatalf("leaders %d,%d; inactive node's UID leaked", protocols[0].Leader(), protocols[1].Leader())
	}
	if protocols[2].Leader() != 10 {
		t.Fatalf("inactive node changed state: leader=%d", protocols[2].Leader())
	}
}

func TestStopConditionWaitsForAllActive(t *testing.T) {
	// With equal UIDs impossible, but with staggered activation the stop
	// condition must not fire while some node is inactive even if the active
	// subset agrees.
	uids := []uint64{5, 7}
	protocols := core.NewBlindGossipNetwork(uids)
	eng, err := sim.New(dyngraph.NewStatic(gen.Path(2)), protocols, sim.Config{
		Seed:        2,
		MaxRounds:   500,
		Activations: []int{1, 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(sim.AllLeadersEqual)
	if err != nil {
		t.Fatal(err)
	}
	if res.StabilizedRound < 50 {
		t.Fatalf("stabilized at %d, before node 1 activated", res.StabilizedRound)
	}
}

// endRoundDrawer draws twice from its stream in EndRound and nowhere else,
// recording both draws of the latest round.
type endRoundDrawer struct{ draws [2]uint64 }

func (p *endRoundDrawer) Advertise(*sim.Context) uint64            { return 0 }
func (p *endRoundDrawer) Decide(*sim.Context) (int32, bool)        { return 0, false }
func (p *endRoundDrawer) Outgoing(*sim.Context, int32) sim.Message { return sim.Message{} }
func (p *endRoundDrawer) Deliver(*sim.Context, int32, sim.Message) {}
func (p *endRoundDrawer) Leader() uint64                           { return 0 }
func (p *endRoundDrawer) EndRound(ctx *sim.Context) {
	p.draws[0] = ctx.RNG().Uint64()
	p.draws[1] = ctx.RNG().Uint64()
}

// TestNodeStreamDerivedOnFirstDraw pins when node streams are derived: a
// node that draws nothing until EndRound gets exactly the (seed, node,
// round) stream there, a second draw in the same round continues that
// stream, and running the same round number again re-derives it instead of
// continuing where the previous call left off.
func TestNodeStreamDerivedOnFirstDraw(t *testing.T) {
	const (
		n     = 6
		seed  = 17
		round = 9
	)
	for _, cfg := range []sim.Config{
		{Seed: seed, Workers: 1},
		sim.ForcePool(sim.Config{Seed: seed, Workers: 2}),
	} {
		t.Run(fmt.Sprintf("workers=%d", cfg.Workers), func(t *testing.T) {
			protocols := make([]sim.Protocol, n)
			for i := range protocols {
				protocols[i] = &endRoundDrawer{}
			}
			eng, err := sim.New(dyngraph.NewStatic(gen.Cycle(n)), protocols, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			for call := 1; call <= 2; call++ {
				eng.RunRounds(round, 1)
				for u, p := range protocols {
					want := xrand.Derive(seed, uint64(u), round)
					w0, w1 := want.Uint64(), want.Uint64()
					if got := p.(*endRoundDrawer).draws; got != [2]uint64{w0, w1} {
						t.Fatalf("call %d, node %d: draws %#x, want the (seed, node, round) stream %#x, %#x",
							call, u, got, w0, w1)
					}
				}
			}
		})
	}
}

func TestRandomNeighborMatchingUniform(t *testing.T) {
	// On a star with the center deciding, selection among leaves must be
	// uniform. We run many rounds and count who the center proposes to.
	n := 9
	counts := make([]int, n)
	protocols := make([]sim.Protocol, n)
	for i := range protocols {
		protocols[i] = &centerCounter{counts: counts}
	}
	eng, err := sim.New(dyngraph.NewStatic(gen.Star(n)), protocols,
		sim.Config{Seed: 12, MaxRounds: 8000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = eng.Run(nil)
	for leaf := 1; leaf < n; leaf++ {
		if counts[leaf] < 800 || counts[leaf] > 1200 {
			t.Fatalf("leaf %d chosen %d/8000 times; not uniform: %v", leaf, counts[leaf], counts)
		}
	}
}

// centerCounter: node 0 (the star center) proposes to a random neighbor
// every round and tallies its choices.
type centerCounter struct{ counts []int }

func (p *centerCounter) Advertise(*sim.Context) uint64 { return 0 }
func (p *centerCounter) Decide(ctx *sim.Context) (int32, bool) {
	if ctx.Node != 0 {
		return 0, false
	}
	t, ok := ctx.RandomNeighbor()
	if !ok {
		return 0, false
	}
	p.counts[t]++
	return t, true
}
func (p *centerCounter) Outgoing(*sim.Context, int32) sim.Message { return sim.Message{} }
func (p *centerCounter) Deliver(*sim.Context, int32, sim.Message) {}
func (p *centerCounter) EndRound(*sim.Context)                    {}
func (p *centerCounter) Leader() uint64                           { return 0 }

func TestAcceptUniformAmongProposers(t *testing.T) {
	// All leaves of a star propose to the center every round; the center
	// must accept each with roughly equal frequency.
	n := 6
	accepted := make([]int, n)
	protocols := make([]sim.Protocol, n)
	for i := range protocols {
		protocols[i] = &leafPusher{accepted: accepted}
	}
	eng, err := sim.New(dyngraph.NewStatic(gen.Star(n)), protocols,
		sim.Config{Seed: 31, MaxRounds: 5000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = eng.Run(nil)
	for leaf := 1; leaf < n; leaf++ {
		if accepted[leaf] < 800 || accepted[leaf] > 1200 {
			t.Fatalf("leaf %d accepted %d/5000 times; not uniform: %v", leaf, accepted[leaf], accepted)
		}
	}
}

// leafPusher: leaves always propose to the center (node 0); the center
// records which proposal was accepted via Deliver.
type leafPusher struct{ accepted []int }

func (p *leafPusher) Advertise(*sim.Context) uint64 { return 0 }
func (p *leafPusher) Decide(ctx *sim.Context) (int32, bool) {
	if ctx.Node == 0 {
		return 0, false
	}
	return 0, true // all leaves' only neighbor is the center
}
func (p *leafPusher) Outgoing(*sim.Context, int32) sim.Message { return sim.Message{} }
func (p *leafPusher) Deliver(ctx *sim.Context, peer int32, _ sim.Message) {
	if ctx.Node == 0 {
		p.accepted[peer]++
	}
}
func (p *leafPusher) EndRound(*sim.Context) {}
func (p *leafPusher) Leader() uint64        { return 0 }

func BenchmarkEngineRoundClique1000(b *testing.B) {
	uids := core.UniqueUIDs(1000, 1)
	protocols := core.NewBlindGossipNetwork(uids)
	eng, err := sim.New(dyngraph.NewStatic(gen.Clique(1000)), protocols,
		sim.Config{Seed: 1, MaxRounds: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	eng.RunRounds(1, b.N)
}

func BenchmarkEngineRoundRegular10000(b *testing.B) {
	f := gen.RandomRegular(10000, 8, 1)
	uids := core.UniqueUIDs(10000, 1)
	protocols := core.NewBlindGossipNetwork(uids)
	eng, err := sim.New(dyngraph.NewStatic(f), protocols,
		sim.Config{Seed: 1, MaxRounds: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	eng.RunRounds(1, b.N)
}

func BenchmarkEngineRoundParallelism(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			f := gen.RandomRegular(50000, 8, 1)
			uids := core.UniqueUIDs(50000, 1)
			protocols := core.NewBlindGossipNetwork(uids)
			eng, err := sim.New(dyngraph.NewStatic(f), protocols,
				sim.Config{Seed: 1, MaxRounds: 1 << 30, Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			eng.RunRounds(1, b.N)
		})
	}
}

func TestNodeLoadAccounting(t *testing.T) {
	// Total per-node load must equal twice the connection count, and on a
	// star the hub must carry far more load than any leaf.
	n := 32
	uids := core.UniqueUIDs(n, 2)
	protocols := core.NewBlindGossipNetwork(uids)
	var total int
	eng, err := sim.New(dyngraph.NewStatic(gen.Star(n)), protocols, sim.Config{
		Seed: 4, MaxRounds: 2000, Workers: 1,
		Observer: func(s sim.RoundStats) { total += s.Connections },
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = eng.Run(nil)

	load := eng.NodeLoad()
	var sum int64
	for _, c := range load {
		sum += c
	}
	if sum != int64(2*total) {
		t.Fatalf("load sum %d != 2×connections %d", sum, 2*total)
	}
	maxLoad := slices.Max(load)
	if load[0] != maxLoad {
		t.Fatalf("star hub load %d is not the maximum %d", load[0], maxLoad)
	}
	if imb := loadImbalance(load); imb < 5 {
		t.Fatalf("star imbalance %.2f suspiciously even", imb)
	}
}

// loadImbalance is the maximum per-node load over the mean (1 = perfectly
// even; large = hot spots).
func loadImbalance(load []int64) float64 {
	var total int64
	for _, c := range load {
		total += c
	}
	return float64(slices.Max(load)) * float64(len(load)) / float64(total)
}

func TestNodeLoadEvenOnClique(t *testing.T) {
	n := 32
	uids := core.UniqueUIDs(n, 3)
	protocols := core.NewBlindGossipNetwork(uids)
	eng, err := sim.New(dyngraph.NewStatic(gen.Clique(n)), protocols, sim.Config{
		Seed: 5, MaxRounds: 4000, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = eng.Run(nil)
	if imb := loadImbalance(eng.NodeLoad()); imb > 1.5 {
		t.Fatalf("clique imbalance %.2f; load should be near-even", imb)
	}
}

func TestLargeNetworkSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large-network smoke test skipped in -short mode")
	}
	// 100k devices, a few rounds: the engine must stay allocation-sane and
	// produce sensible connection counts at laptop scale.
	n := 100_000
	f := gen.RandomRegular(n, 6, 2)
	uids := core.UniqueUIDs(n, 3)
	protocols := core.NewBlindGossipNetwork(uids)
	var conns int
	eng, err := sim.New(dyngraph.NewStatic(f), protocols, sim.Config{
		Seed: 1, MaxRounds: 5,
		Observer: func(s sim.RoundStats) { conns += s.Connections },
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = eng.Run(nil)
	// Expect a healthy fraction of n/2 possible connections per round.
	if conns < n/2 {
		t.Fatalf("only %d connections over 5 rounds at n=%d", conns, n)
	}
}
