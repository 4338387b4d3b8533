package sim

import (
	"runtime"
	"testing"

	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph"
	"mobiletel/internal/graph/gen"
)

// chunkProbe is a minimal protocol for white-box tests (package sim cannot
// import internal/core without a cycle): every node immediately leads with
// its own UID and never connects.
type chunkProbe struct{ uid uint64 }

func (p *chunkProbe) Advertise(*Context) uint64        { return 0 }
func (p *chunkProbe) Decide(*Context) (int32, bool)    { return 0, false }
func (p *chunkProbe) Outgoing(*Context, int32) Message { return Message{} }
func (p *chunkProbe) Deliver(*Context, int32, Message) {}
func (p *chunkProbe) Leader() uint64                   { return p.uid }

func chunkProbeNetwork(n int) []Protocol {
	ps := make([]Protocol, n)
	for i := range ps {
		ps[i] = &chunkProbe{uid: uint64(i + 1)}
	}
	return ps
}

// profiledAllocs returns the objects and bytes the heap profile attributes
// to call stacks through the named function. The two collections publish
// every allocation made before the call (the profile lags the allocations
// by up to two cycles).
func profiledAllocs(function string) (objects, bytes int64) {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			if f.Function == function {
				objects += r.AllocObjects
				bytes += r.AllocBytes
				break
			}
		}
	}
	return objects, bytes
}

// refreshAllocs returns how many allocations the heap profile attributes to
// a call stack through Engine.refreshChunks.
func refreshAllocs() int64 {
	objects, _ := profiledAllocs("mobiletel/internal/sim.(*Engine).refreshChunks")
	return objects
}

// TestChunkScratchBoundedAcrossTrials pins the chunk-boundary cache at O(1)
// scratch: one workers+1 slice, reused for every graph an engine ever
// sees. A 1000-trial churn-style sweep — every refresh presenting a graph
// the cache has not just seen — must allocate nothing and must not grow
// the boundary slice, so many-trial experiments cannot accumulate cached
// boundaries.
//
// The count samples every allocation (MemProfileRate 1) and keeps those
// whose stack runs through refreshChunks, so the runtime's own allocations
// in the window, such as the sudog ReadMemStats takes while it waits to
// stop the world, cannot reach it.
func TestChunkScratchBoundedAcrossTrials(t *testing.T) {
	const (
		n       = 512
		workers = 7
		trials  = 1000
	)
	eng, err := New(
		dyngraph.NewStatic(gen.RandomRegular(n, 6, 11)),
		chunkProbeNetwork(n),
		Config{Seed: 11, Workers: workers},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// A pool of distinct graphs cycled in order: chunkG only remembers the
	// most recent graph, so every refresh is a miss — the worst case a
	// churning schedule can produce.
	graphs := make([]*graph.Graph, 100)
	for i := range graphs {
		graphs[i] = gen.RandomRegular(n, 6, uint64(100+i)).Graph
	}

	rate := runtime.MemProfileRate
	before := refreshAllocs()
	runtime.MemProfileRate = 1
	for trial := 0; trial < trials; trial++ {
		eng.refreshChunks(graphs[trial%len(graphs)])
	}
	runtime.MemProfileRate = rate
	if allocs := refreshAllocs() - before; allocs != 0 {
		t.Errorf("%d chunk refreshes allocated %d objects, want 0 (unbounded chunk cache?)", trials, allocs)
	}
	if got := cap(eng.chunks); got != workers+1 {
		t.Errorf("chunk scratch grew to cap %d, want the fixed workers+1 = %d", got, workers+1)
	}
	if eng.chunks[0] != 0 || eng.chunks[workers] != n {
		t.Errorf("boundaries [%d, ..., %d] do not span [0, %d]", eng.chunks[0], eng.chunks[workers], n)
	}
}

// TestEngineFootprintPerNode pins the heap bytes sim.New allocates to the
// engine's per-node arrays: tags, 8 bytes a node; actions, next, partner
// and chosen, 4 each; heads, 4 per dispatched worker; active, 1; and the
// draw count, 4. Everything else must fit in a small constant, so
// per-node generator state (a xoshiro256** state is 32 bytes a node) or a
// further 4-byte step-4 array cannot come to the mobile model unnoticed. Like
// TestChunkScratchBoundedAcrossTrials it samples every allocation and
// keeps those whose stack runs through New, so no other allocation in the
// process can reach the count.
func TestEngineFootprintPerNode(t *testing.T) {
	const (
		n     = 1 << 16
		slack = 64 << 10
	)
	sched := dyngraph.NewStatic(gen.Torus(256, 256))
	protocols := chunkProbeNetwork(n)
	for _, c := range []struct {
		cfg     Config
		workers int
	}{
		{Config{Seed: 1, Workers: 1}, 1},
		{ForcePool(Config{Seed: 1, Workers: 2}), 2},
	} {
		rate := runtime.MemProfileRate
		_, before := profiledAllocs("mobiletel/internal/sim.New")
		runtime.MemProfileRate = 1
		eng, err := New(sched, protocols, c.cfg)
		runtime.MemProfileRate = rate
		if err != nil {
			t.Fatal(err)
		}
		eng.Close()
		_, after := profiledAllocs("mobiletel/internal/sim.New")
		perNode := 8 + 4*4 + 4*c.workers + 1 + 4
		got := after - before
		if limit := int64(perNode*n + slack); got > limit {
			t.Errorf("workers=%d: sim.New allocated %d bytes (%.1f a node), want at most %d (%d a node + %d)",
				c.workers, got, float64(got)/n, limit, perNode, slack)
		}
	}
}
