package sim_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/obs"
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
	if ctx.Bool() {
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

func (p *probe) Leader() uint64 { return 0 }

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
func (c *chattyProto) Leader() uint64                           { return 0 }

// TestProposalToNonNeighborPanics holds the decide step to its proposal
// check: only the neighbor the node's own scan returned in the same Decide
// call skips it, and any other target must be an active neighbor.
func TestProposalToNonNeighborPanics(t *testing.T) {
	var checked int // proposals in the last row whose target was not the last pick
	for _, c := range []struct {
		name   string
		f      gen.Family
		act    []int
		decide func(t *testing.T, ctx *sim.Context) (int32, bool)
		panic  string // "" means the rounds must run
	}{
		{"rogue proposal without a scan", gen.Path(3), nil, func(t *testing.T, ctx *sim.Context) (int32, bool) {
			return 2, ctx.Node == 0
		}, "non-neighbor"},
		{"non-neighbor after a scan", gen.Path(3), nil, func(t *testing.T, ctx *sim.Context) (int32, bool) {
			if ctx.Node != 0 {
				return 0, false
			}
			if id, ok := ctx.RandomNeighbor(); !ok || id != 1 {
				t.Errorf("node 0's scan on Path(3) returned (%d, %v), want (1, true)", id, ok)
			}
			return 2, true
		}, "non-neighbor"},
		{"another node's pick", gen.Path(4), nil, func(t *testing.T, ctx *sim.Context) (int32, bool) {
			switch ctx.Node {
			case 0:
				return ctx.RandomNeighbor()
			case 3:
				return 1, true // node 0's pick, not a neighbor of node 3
			}
			return 0, false
		}, "non-neighbor"},
		{"inactive neighbor after a scan", gen.Path(3), []int{1, 1, 2}, func(t *testing.T, ctx *sim.Context) (int32, bool) {
			if ctx.Node != 1 {
				return 0, false
			}
			if id, ok := ctx.RandomNeighbor(); !ok || id != 0 {
				t.Errorf("node 1's scan with node 2 inactive returned (%d, %v), want (0, true)", id, ok)
			}
			return 2, true
		}, "inactive"},
		{"first of two picks", gen.Clique(8), nil, func(t *testing.T, ctx *sim.Context) (int32, bool) {
			first, _ := ctx.RandomNeighbor()
			if last, _ := ctx.RandomNeighborWithTag(0); last != first {
				checked++
			}
			return first, true
		}, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := c.f.Graph.N()
			protocols := make([]sim.Protocol, n)
			for u := range protocols {
				protocols[u] = &decideProto{t: t, decide: c.decide}
			}
			eng, err := sim.New(dyngraph.NewStatic(c.f), protocols, sim.Config{Seed: 1, Activations: c.act})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				got := recover()
				if c.panic == "" {
					if got != nil {
						t.Fatalf("panicked: %v", got)
					}
					return
				}
				if msg, _ := got.(string); !strings.Contains(msg, c.panic) {
					t.Fatalf("panic %v, want one naming %q", got, c.panic)
				}
			}()
			eng.RunRounds(1, 20)
		})
	}
	if checked == 0 {
		t.Error("no proposal went to a target other than the node's last pick")
	}
}

// decideProto proposes whatever its decide function returns.
type decideProto struct {
	t      *testing.T
	decide func(t *testing.T, ctx *sim.Context) (int32, bool)
}

func (p *decideProto) Advertise(*sim.Context) uint64            { return 0 }
func (p *decideProto) Decide(ctx *sim.Context) (int32, bool)    { return p.decide(p.t, ctx) }
func (p *decideProto) Outgoing(*sim.Context, int32) sim.Message { return sim.Message{} }
func (p *decideProto) Deliver(*sim.Context, int32, sim.Message) {}
func (p *decideProto) Leader() uint64                           { return 0 }

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

// drawEntry is one draw a streamProbe made; skip marks an Intn(1), which
// consumes a draw but shows nothing of it.
type drawEntry struct {
	v    uint64
	skip bool
}

// streamProbe draws in every callback of a star: node 0, the hub, always
// receives, and every leaf proposes to it. It records its draws in the
// latest round, in the order it made them, and the peers it exchanged
// with. Its Outgoing makes its Intn(1) before its Uint64 in even rounds and
// after it in odd ones, so consecutive rounds differ in which draws show.
type streamProbe struct {
	round     int
	draws     []drawEntry
	preAccept int // draws made before the exchange: Advertise's and Decide's
	peers     []int32
}

func (p *streamProbe) draw(ctx *sim.Context) { p.draws = append(p.draws, drawEntry{v: ctx.Uint64()}) }
func (p *streamProbe) skip(ctx *sim.Context) {
	if ctx.Intn(1) != 0 {
		panic("Intn(1) is not 0")
	}
	p.draws = append(p.draws, drawEntry{skip: true})
}

func (p *streamProbe) Advertise(ctx *sim.Context) uint64 {
	p.round, p.draws, p.peers = ctx.Round, p.draws[:0], p.peers[:0]
	p.draw(ctx)
	p.draw(ctx)
	return 0
}

func (p *streamProbe) Decide(ctx *sim.Context) (int32, bool) {
	p.draw(ctx)
	p.preAccept = len(p.draws)
	return 0, ctx.Node != 0
}

func (p *streamProbe) Outgoing(ctx *sim.Context, _ int32) sim.Message {
	if ctx.Round%2 == 0 {
		p.skip(ctx)
		p.draw(ctx)
	} else {
		p.draw(ctx)
		p.skip(ctx)
	}
	return sim.Message{}
}

func (p *streamProbe) Deliver(ctx *sim.Context, peer int32, _ sim.Message) {
	p.draw(ctx)
	p.peers = append(p.peers, peer)
}

func (p *streamProbe) Leader() uint64 { return 0 }

// TestNodeStreamDerivedOnFirstDraw pins the node draws: draw k of node u in
// round r is output k of xrand.Derive(seed, u, r), whichever callback makes
// it, with an Intn(1) consuming one draw and the accept step's draws
// between Decide's and the exchange's. On a star whose leaves all propose
// to the hub, the mobile model's hub accepts from a contested inbox, and
// the classical model's hub draws in every one of its connections. Two
// consecutive rounds, each checked against its own stream, show that no
// draw count or generator carries over from one round to the next, and
// running the first round number again derives the same draws.
func TestNodeStreamDerivedOnFirstDraw(t *testing.T) {
	for _, cfg := range []sim.Config{
		{Seed: streamSeed, Workers: 1},
		sim.ForcePool(sim.Config{Seed: streamSeed, Workers: 2}),
	} {
		t.Run(fmt.Sprintf("workers=%d", cfg.Workers), func(t *testing.T) {
			for _, classical := range []bool{false, true} {
				cfg := cfg
				cfg.Classical = classical
				protocols := make([]sim.Protocol, streamStarN)
				for i := range protocols {
					protocols[i] = &streamProbe{}
				}
				eng, err := sim.New(dyngraph.NewStatic(gen.Star(streamStarN)), protocols, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range []int{streamRound, streamRound + 1, streamRound} {
					eng.RunRounds(r, 1)
					for u, p := range protocols {
						checkNodeDraws(t, classical, r, u, p.(*streamProbe))
					}
				}
				eng.Close()
			}
		})
	}
}

// The star size, seed and first round of TestNodeStreamDerivedOnFirstDraw.
const (
	streamStarN = 9
	streamSeed  = 17
	streamRound = 9
)

// checkNodeDraws checks one streamProbe's draws in round r of
// TestNodeStreamDerivedOnFirstDraw against its (seed, node, round) stream.
func checkNodeDraws(t *testing.T, classical bool, r, u int, p *streamProbe) {
	t.Helper()
	peers := 1 // a classical leaf's, and the mobile hub's
	switch {
	case u == 0 && classical:
		peers = streamStarN - 1
	case u != 0 && !classical:
		peers = min(len(p.peers), 1) // only the accepted leaf connects
	}
	// Advertise and Decide draw three times, and every exchange draws
	// three.
	if p.round != r || len(p.peers) != peers || len(p.draws) != 3+3*peers {
		t.Fatalf("classical=%v, node %d: round %d, %d draws and peers %v, want round %d, %d draws and %d peers",
			classical, u, p.round, len(p.draws), p.peers, r, 3+3*peers, peers)
	}
	want := xrand.Derive(streamSeed, uint64(u), uint64(r))
	for k, d := range p.draws {
		if k == p.preAccept && u == 0 && !classical {
			// The mobile hub accepts one leaf of its inbox of all eight,
			// drawing until a draw is accepted.
			for {
				if i, ok := xrand.Bounded(want.Uint64(), streamStarN-1); ok {
					if p.peers[0] != int32(i)+1 {
						t.Fatalf("hub exchanged with %v, want leaf %d, its accept draw's choice", p.peers, i+1)
					}
					break
				}
			}
		}
		if x := want.Uint64(); !d.skip && d.v != x {
			t.Fatalf("classical=%v, round %d, node %d: draw %d = %#x, want the (seed, node, round) stream's %#x",
				classical, r, u, k, d.v, x)
		}
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
func (p *leafPusher) Leader() uint64 { return 0 }

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

// runLoad runs blind gossip on f for up to maxRounds rounds with an
// obs.Metrics sink attached and returns the run's load summary and the
// connections the round statistics counted.
func runLoad(t *testing.T, f gen.Family, uidSeed, seed uint64, maxRounds int) (obs.LoadSummary, int) {
	t.Helper()
	metrics := obs.NewMetrics()
	var conns int
	eng, err := sim.New(dyngraph.NewStatic(f), core.NewBlindGossipNetwork(core.UniqueUIDs(f.N(), uidSeed)), sim.Config{
		Seed: seed, MaxRounds: maxRounds, Workers: 1, Sink: metrics,
		Observer: func(s sim.RoundStats) { conns += s.Connections },
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = eng.Run(nil)
	return metrics.Summary().Load, conns
}

func TestNodeLoadAccounting(t *testing.T) {
	// Total per-node load must equal twice the connection count, and on a
	// star, where every connection has the hub as one end, the hub carries
	// the maximum load, one per connection.
	n := 32
	load, total := runLoad(t, gen.Star(n), 2, 4, 2000)
	if sum := load.Mean * float64(n); sum != float64(2*total) {
		t.Fatalf("load sum %v != 2×connections %d", sum, 2*total)
	}
	if load.Max != int64(total) {
		t.Fatalf("maximum load %d is not the star hub's %d connections", load.Max, total)
	}
	if load.Imbalance < 5 {
		t.Fatalf("star imbalance %.2f suspiciously even", load.Imbalance)
	}
}

func TestNodeLoadEvenOnClique(t *testing.T) {
	load, _ := runLoad(t, gen.Clique(32), 3, 5, 4000)
	if load.Imbalance > 1.5 {
		t.Fatalf("clique imbalance %.2f; load should be near-even", load.Imbalance)
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
