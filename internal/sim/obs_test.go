// External test package: uses core protocols, which implement sim.Protocol.
package sim_test

import (
	"sync/atomic"
	"testing"

	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/obs"
	"mobiletel/internal/sim"
)

// runTraced executes one blind-gossip election with a ring sink attached
// and returns the sink plus the observed per-round stats.
func runTraced(t *testing.T, seed uint64) (*obs.Ring, []sim.RoundStats) {
	t.Helper()
	const n = 32
	ring := obs.NewRing(1 << 20)
	var stats []sim.RoundStats
	eng, err := sim.New(
		dyngraph.NewStatic(gen.RandomRegular(n, 4, 7)),
		core.NewBlindGossipNetwork(core.UniqueUIDs(n, seed)),
		sim.Config{
			Seed:     seed,
			Sink:     ring,
			Observer: func(s sim.RoundStats) { stats = append(stats, s) },
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(sim.AllLeadersEqual); err != nil {
		t.Fatal(err)
	}
	return ring, stats
}

// TestTraceDeterminism is the contract mtmtrace diff relies on: two runs of
// the same (seed, schedule, protocol, config) emit identical event streams.
func TestTraceDeterminism(t *testing.T) {
	a, _ := runTraced(t, 11)
	b, _ := runTraced(t, 11)
	if a.Total() != b.Total() {
		t.Fatalf("event counts differ: %d vs %d", a.Total(), b.Total())
	}
	ae, be := a.Events(), b.Events()
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, ae[i], be[i])
		}
	}
	c, _ := runTraced(t, 12)
	if a.Total() == c.Total() {
		same := true
		for i, e := range a.Events() {
			if e != c.Events()[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

// TestTraceCountersMatchStats cross-checks the event stream against the
// engine's own RoundStats: per round, the emitted propose/accept/reject/
// connect events must reconcile with the counters, and every proposal must
// be accounted for as accepted, rejected, or lost.
func TestTraceCountersMatchStats(t *testing.T) {
	ring, stats := runTraced(t, 3)
	if ring.Header().N != 32 {
		t.Errorf("header N = %d, want 32", ring.Header().N)
	}

	type counts struct{ proposes, accepts, rejects, connects, starts, ends int }
	perRound := make(map[int]*counts)
	get := func(r int) *counts {
		c := perRound[r]
		if c == nil {
			c = &counts{}
			perRound[r] = c
		}
		return c
	}
	for _, e := range ring.Events() {
		c := get(e.Round)
		switch e.Type {
		case obs.TypeRoundStart:
			c.starts++
		case obs.TypeRoundEnd:
			c.ends++
		case obs.TypePropose:
			c.proposes++
		case obs.TypeAccept:
			c.accepts++
		case obs.TypeReject:
			c.rejects++
		case obs.TypeConnect:
			c.connects++
		}
	}

	for _, s := range stats {
		c := perRound[s.Round]
		if c == nil {
			t.Fatalf("round %d has stats but no events", s.Round)
		}
		if c.starts != 1 || c.ends != 1 {
			t.Errorf("round %d: %d round_start, %d round_end; want 1 each", s.Round, c.starts, c.ends)
		}
		if c.proposes != s.Proposals {
			t.Errorf("round %d: %d propose events, stats say %d", s.Round, c.proposes, s.Proposals)
		}
		if c.accepts != s.Accepts || c.connects != s.Connections {
			t.Errorf("round %d: accepts %d/%d, connects %d/%d (events/stats)",
				s.Round, c.accepts, s.Accepts, c.connects, s.Connections)
		}
		if s.Accepts != s.Connections {
			t.Errorf("round %d: Accepts %d != Connections %d in MTM mode", s.Round, s.Accepts, s.Connections)
		}
		if lost := s.Proposals - s.Accepts - s.Rejects; lost < 0 {
			t.Errorf("round %d: negative lost proposals (%d)", s.Round, lost)
		}
		// Event-stream rejects cover both contention and busy-target losses.
		if c.rejects != c.proposes-c.accepts {
			t.Errorf("round %d: %d reject events, want proposals-accepts = %d",
				s.Round, c.rejects, c.proposes-c.accepts)
		}
	}
}

// TestPhaseProfiler runs profiled parallel elections with a deterministic
// counter clock and checks the mtmprof/v1 report both inline and on the
// forced pool. Both dispatches run the same round, so they report the same
// phases: the fused dispatches attribute wall time to the composite phases
// and self-timed busy time to their constituent sweeps, the partner
// derivation is timed as part of exchange, and bucket_accept and partner
// are never charged. On the pool every worker has busy time in every
// chunked phase. The flush phase appears exactly when tracing is on, the
// resolved dispatch mode and gate are visible in the report, and profiling
// never perturbs the run (bit-identical Result vs the unprofiled engine).
func TestPhaseProfiler(t *testing.T) {
	const (
		n       = 512 // under the pool gate, so only the forced pool dispatches in parallel
		workers = 4
	)
	run := func(prof *obs.Profiler, sink obs.Sink, pool bool) sim.Result {
		cfg := sim.Config{Seed: 9, Workers: workers, Profiler: prof, Sink: sink}
		if pool {
			cfg = sim.ForcePool(cfg)
		}
		eng, err := sim.New(
			dyngraph.NewStatic(gen.RandomRegular(n, 8, 3)),
			core.NewBlindGossipNetwork(core.UniqueUIDs(n, 9)),
			cfg,
		)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		res, err := eng.Run(sim.AllLeadersEqual)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	newProf := func() *obs.Profiler {
		// Workers read the clock concurrently for busy accounting, so the
		// fake counter must be atomic like the real monotonic clock is safe.
		ticks := new(atomic.Int64)
		return obs.NewProfiler(func() int64 { return ticks.Add(1) })
	}
	report := func(t *testing.T, pool bool, want sim.Result) obs.ProfReport {
		t.Helper()
		prof := newProf()
		got := run(prof, obs.NewRing(1<<16), pool)
		if got != want {
			t.Fatalf("profiled run diverged from unprofiled: %+v vs %+v", got, want)
		}
		rep := prof.Report()
		if rep.Schema != obs.ProfSchema {
			t.Fatalf("report schema %q, want %q", rep.Schema, obs.ProfSchema)
		}
		if rep.Workers != workers || rep.Rounds != int64(got.RoundsExecuted) {
			t.Fatalf("report workers=%d rounds=%d, want %d/%d", rep.Workers, rep.Rounds, workers, got.RoundsExecuted)
		}
		if rep.WallNS <= 0 || rep.RoundsPerSec <= 0 {
			t.Fatalf("report wall=%d rounds/sec=%v, want positive", rep.WallNS, rep.RoundsPerSec)
		}
		return rep
	}
	want := run(nil, nil, false)

	// Composites and sequential sections carry wall time; the constituent
	// sweeps of the fused dispatches carry self-timed busy time only.
	wallPhases := []string{"scan_advertise", "decide", "count", "merge",
		"scatter", "accept", "partner_exchange", "end_round", "flush"}
	busyOnly := []string{"active_scan", "advertise", "exchange"}
	chunked := append([]string{"decide", "count", "scatter", "accept", "end_round"}, busyOnly...)
	check := func(t *testing.T, rep obs.ProfReport, busyWorkers int) {
		t.Helper()
		phases := phaseMap(rep)
		for _, name := range wallPhases {
			if p, ok := phases[name]; !ok || p.WallNS <= 0 {
				t.Errorf("phase %q missing or without wall time (%+v)", name, p)
			}
		}
		for _, name := range busyOnly {
			if p := phases[name]; p.WallNS != 0 {
				t.Errorf("fused sweep %q has wall time %d; the composite dispatch should own it", name, p.WallNS)
			}
		}
		for _, name := range []string{"bucket_accept", "partner"} {
			if _, ok := phases[name]; ok {
				t.Errorf("report charged retired phase %q", name)
			}
		}
		for _, name := range chunked {
			p, ok := phases[name]
			if !ok {
				t.Errorf("phase %q missing from report", name)
				continue
			}
			if len(p.BusyNS) != workers {
				t.Errorf("phase %q has %d busy slots, want %d", name, len(p.BusyNS), workers)
				continue
			}
			for w := 0; w < busyWorkers; w++ {
				if p.BusyNS[w] <= 0 {
					t.Errorf("phase %q worker %d has no busy time", name, w)
				}
			}
			if p.Imbalance < 1 {
				t.Errorf("phase %q imbalance %v < 1", name, p.Imbalance)
			}
		}
	}

	t.Run("auto", func(t *testing.T) {
		// n=512 is under the pool gate, so the engine resolves to inline
		// dispatch on any host — deterministically visible in the report —
		// and runs every chunked phase as one chunk on worker 0.
		rep := report(t, false, want)
		if rep.Dispatch != "inline" || rep.GateNodes <= n {
			t.Errorf("auto dispatch resolved as %q (gate %d), want inline gated above n=%d",
				rep.Dispatch, rep.GateNodes, n)
		}
		check(t, rep, 1)
	})

	t.Run("pool", func(t *testing.T) {
		rep := report(t, true, want)
		if rep.Dispatch != "pool" {
			t.Errorf("forced pool resolved as %q", rep.Dispatch)
		}
		check(t, rep, workers)
	})

	prof := newProf()
	if run(prof, obs.NewRing(1<<16), false); len(prof.TopPhases(3)) != 3 {
		t.Errorf("TopPhases(3) = %v, want 3 entries", prof.TopPhases(3))
	}

	// An untraced profiled run must not report a flush phase.
	prof2 := newProf()
	run(prof2, nil, false)
	for _, p := range prof2.Report().Phases {
		if p.Phase == "flush" {
			t.Error("untraced run reported a flush phase")
		}
	}
}

// phaseMap indexes a report's phases by wire name.
func phaseMap(rep obs.ProfReport) map[string]obs.PhaseProfile {
	m := make(map[string]obs.PhaseProfile, len(rep.Phases))
	for _, p := range rep.Phases {
		m[p.Phase] = p
	}
	return m
}

// TestTraceClassicalMode checks the classicalFinish emission path: every
// proposal is accepted, and rejects stay zero.
func TestTraceClassicalMode(t *testing.T) {
	const n = 16
	ring := obs.NewRing(1 << 16)
	eng, err := sim.New(
		dyngraph.NewStatic(gen.Clique(n)),
		core.NewBlindGossipNetwork(core.UniqueUIDs(n, 5)),
		sim.Config{Seed: 5, Classical: true, Sink: ring},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(sim.AllLeadersEqual); err != nil {
		t.Fatal(err)
	}
	if !ring.Header().Classical {
		t.Error("header does not mark the run classical")
	}
	proposes, accepts, rejects := 0, 0, 0
	for _, e := range ring.Events() {
		switch e.Type {
		case obs.TypePropose:
			proposes++
		case obs.TypeAccept:
			accepts++
		case obs.TypeReject:
			rejects++
		}
	}
	if proposes == 0 || proposes != accepts || rejects != 0 {
		t.Errorf("classical trace: proposes=%d accepts=%d rejects=%d; want all proposals accepted",
			proposes, accepts, rejects)
	}
}
