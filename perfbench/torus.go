package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"runtime/debug"
	"slices"
	"strconv"
	"time"

	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/obs"
	"mobiletel/internal/sim"
	"mobiletel/internal/xrand"
)

// torusSize sizes the torus workload; tests shrink it.
type torusSize struct {
	name       string
	rows, cols int
	setupReps  int
	// warmup rounds run before timing starts: the first rounds touch the
	// engine's arrays for the first time and grow the inbox.
	warmup int
	// window is how many consecutive timed rounds each of a run's latency
	// and throughput figures covers; the run reports their medians.
	window int
	// minRounds is the smallest timed-round count of an untraced run:
	// three windows, so the medians have three to choose from.
	minRounds int
	// exactRounds is the round prefix (warm-up included) whose statistics
	// are digested and counted exactly.
	exactRounds int
}

var torus1m = torusSize{name: "torus1m", rows: 1024, cols: 1024, setupReps: 5,
	warmup: 10, window: windowOps, minRounds: 3 * windowOps, exactRounds: 50}

// torusEngine is one set-up: a blind-gossip engine over the static torus.
type torusEngine struct {
	uids     []uint64
	eng      *sim.Engine
	ps       []sim.Protocol
	newBytes uint64 // heap bytes sim.New allocated
}

// torusRun is the per-round state the engine's observer updates: round
// timestamps, the per-round checks, the digest and the stop decision.
type torusRun struct {
	size         torusSize
	budget, hard time.Duration
	rounds       int // stop after this many timed rounds (0 = by time)
	start, prev  time.Time
	timedStart   time.Time
	samples      []opSample // timed rounds
	failedRounds int
	executed     int
	done         bool
	digest       hash.Hash64
	buf          []byte // reused digest line
	counts       roundCounts

	// Traced pass only.
	allocCtr         *allocCounter
	allocs0, allocs1 uint64
	tr               *tracer
	runSpan          int
	timed            *timedSchedule
}

// observe runs after every round on the engine's goroutine.
func (t *torusRun) observe(s sim.RoundStats) {
	now := time.Now()
	t.executed = s.Round
	ok := s.Accepts+s.Rejects+s.BusyLost+s.FaultLost == s.Proposals && 2*s.Connections <= s.ActiveNodes
	if !ok {
		t.failedRounds++
	}
	if s.Round <= t.size.exactRounds {
		// Appended into a reused buffer: the traced pass counts every
		// allocation made between rounds as the engine's.
		t.buf = t.buf[:0]
		for _, v := range [...]int{s.Round, s.Proposals, s.Connections, s.ActiveNodes,
			s.Accepts, s.Rejects, s.BusyLost, s.FaultLost} {
			t.buf = strconv.AppendInt(append(t.buf, ' '), int64(v), 10)
		}
		_, _ = t.digest.Write(append(t.buf, '\n')) // hash writes never fail
		t.counts.observe(s)
	}
	if t.tr != nil {
		i := t.tr.record(int64(s.Round), t.runSpan, "round", int64(t.prev.Sub(t.tr.base)), int64(now.Sub(t.prev)), 1)
		t.timed.flush(int64(s.Round), i)
	}
	switch {
	case s.Round < t.size.warmup:
	case s.Round == t.size.warmup:
		t.timedStart = now
		if t.allocCtr != nil {
			t.allocs0, _ = t.allocCtr.read()
		}
	default:
		t.samples = append(t.samples, opSample{sec: now.Sub(t.prev).Seconds(),
			end: now.Sub(t.timedStart).Seconds(), failed: !ok})
		timed := s.Round - t.size.warmup
		elapsed := now.Sub(t.timedStart)
		if t.rounds > 0 {
			t.done = timed >= t.rounds
		} else {
			t.done = (elapsed >= t.budget && timed >= t.size.minRounds) || now.Sub(t.start) >= t.hard
		}
		if t.done && t.allocCtr != nil {
			t.allocs1, _ = t.allocCtr.read()
		}
	}
	t.prev = now
}

// setup builds the engine through the layers in ElectLeader's order. A
// traced set-up (tr non-nil) records spans and sim.New's allocations, may
// wrap the schedule, and attaches the profiler.
func (ts torusSize) setup(seed uint64, observer func(sim.RoundStats), wrap func(dyngraph.Schedule) dyngraph.Schedule,
	prof *obs.Profiler, tr *tracer, rep int) (*torusEngine, error) {
	op := int64(-1 - rep) // set-up spans get negative op ids
	root := tr.begin(op, -1, "setup")
	sp := tr.begin(op, root, "gen.Torus")
	fam := gen.Torus(ts.rows, ts.cols)
	tr.end(sp)
	var s dyngraph.Schedule = dyngraph.NewStatic(fam)
	if wrap != nil {
		s = wrap(s)
	}
	n := fam.N()
	sp = tr.begin(op, root, "core.UniqueUIDs")
	uids := core.UniqueUIDs(n, xrand.Mix3(seed, 0, 0x51ede75))
	tr.end(sp)
	sp = tr.begin(op, root, "core.NewBlindGossipNetwork")
	ps := core.NewBlindGossipNetwork(uids)
	tr.end(sp)
	var allocs *allocCounter
	var b0, b1 uint64
	if tr != nil {
		allocs = newAllocCounter()
		_, b0 = allocs.read()
	}
	sp = tr.begin(op, root, "sim.New")
	eng, err := sim.New(s, ps, sim.Config{Seed: xrand.Mix3(seed, 1, 0x70a5), Workers: procs,
		Observer: observer, Profiler: prof})
	tr.end(sp)
	if tr != nil {
		_, b1 = allocs.read()
	}
	tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("torus set-up: %w", err)
	}
	return &torusEngine{uids: uids, eng: eng, ps: ps, newBytes: b1 - b0}, nil
}

// setupRepeated runs the set-up setupReps times and keeps the last engine.
// Each set-up after the first starts from memory returned to the OS, as a
// user's first set-up does; it returns every set-up's duration.
func (ts torusSize) setupRepeated(seed uint64, observer func(sim.RoundStats), wrap func(dyngraph.Schedule) dyngraph.Schedule,
	prof *obs.Profiler, tr *tracer) (*torusEngine, []float64, error) {
	var te *torusEngine
	var durs []float64
	for k := 0; k < ts.setupReps; k++ {
		if te != nil {
			te.eng.Close()
			te = nil
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if te, err = ts.setup(seed, observer, wrap, prof, tr, k); err != nil {
			return nil, nil, err
		}
		durs = append(durs, time.Since(t0).Seconds())
	}
	return te, durs, nil
}

// checkLeaders verifies the final state: every node's leader is a UID no
// larger than its own. It returns the number of nodes that violate it.
func (te *torusEngine) checkLeaders() int {
	sorted := slices.Clone(te.uids)
	slices.Sort(sorted)
	bad := 0
	for u, p := range te.ps {
		l := p.Leader()
		if _, found := slices.BinarySearch(sorted, l); !found || l > te.uids[u] {
			bad++
		}
	}
	return bad
}

// runTorus runs the torus workload: one engine, timed rounds inside one
// Engine.Run, each round timestamped by the observer.
func runTorus(cfg config, size torusSize) (*result, error) {
	res := newResult()
	name := size.name

	budget := cfg.budget
	var rtw *runtimeWindow
	if cfg.trace {
		budget = cfg.budget / 2
	}
	st := &torusRun{size: size, budget: budget, hard: cfg.hardStop(), digest: fnv.New64a(),
		buf: make([]byte, 0, 256)}

	te, setups, err := size.setupRepeated(cfg.seed, st.observe, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		rtw = startRuntimeWindow()
	}
	st.start = time.Now()
	st.prev = st.start
	if _, err := te.eng.Run(func(int, []sim.Protocol) bool { return st.done }); err != nil {
		return nil, fmt.Errorf("torus run: %w", err)
	}
	bad := te.checkLeaders()
	te.eng.Close()

	timedRounds := len(st.samples)
	timedWall := st.prev.Sub(st.timedStart)
	res.attempted = st.executed
	res.failed = st.failedRounds
	if bad > 0 {
		res.correct = false
		if res.failed < res.attempted {
			res.failed++
		}
	}
	if st.failedRounds > 0 {
		res.correct = false
	}
	n := size.rows * size.cols
	logf(cfg.log, "%-12s digest %016x over the stats of rounds 1..%d (of %d); %d rounds failed a check, %d nodes hold a bad leader\n",
		name, st.digest.Sum64(), min(size.exactRounds, st.executed), st.executed, st.failedRounds, bad)

	// The tail is p75: in slow stretches of the host that last minutes,
	// the 2-worker rounds stall in bursts, and one round in ten or more
	// takes 1.5–2× the median. Ten-seed sets then spread p90 up to 0.69.
	fig := windowed(st.samples, size.window, p75)
	res.endToEnd["setup_s"] = median(setups)
	res.endToEnd["peak_rss_mb"] = peakRSSMB()
	res.endToEnd["op_ms_p50"] = fig.p50 * 1e3
	res.endToEnd["op_ms_tail"] = fig.tail * 1e3
	res.endToEnd["ops_per_s"] = fig.perSec
	note := fmt.Sprintf("n=%d timed rounds after %d warm-up, median of %d windows", timedRounds, size.warmup, fig.windows)
	if !fig.tailOK {
		note += ", fewer than ten beyond p75"
	}
	line(cfg.log, name, "setup_s", res.endToEnd["setup_s"], "s", fmt.Sprintf("median of %d", size.setupReps))
	line(cfg.log, name, "peak_rss_mb", res.endToEnd["peak_rss_mb"], "MB", "")
	line(cfg.log, name, "failed_frac", ratio(float64(res.failed), float64(res.attempted)), "",
		fmt.Sprintf("%d/%d rounds", res.failed, res.attempted))
	line(cfg.log, name, "round_ms_p50", fig.p50*1e3, "ms", note)
	line(cfg.log, name, "round_ms_p75", fig.tail*1e3, "ms", note)
	line(cfg.log, name, "node_rounds_per_s", res.endToEnd["ops_per_s"]*float64(n), "1/s", note)
	if !cfg.trace {
		return res, nil
	}

	setRuntime(res, rtw.end(), timedRounds)
	return res, tracedTorus(cfg, res, size, timedRounds, timedWall)
}

// tracedTorus repeats the set-up and the same number of timed rounds with
// spans, the phase profiler, the GraphAt wrapper and allocation counts.
func tracedTorus(cfg config, res *result, size torusSize, rounds int, untracedWall time.Duration) error {
	tr := newTracer()
	prof := obs.NewProfiler(tr.now)
	st := &torusRun{size: size, rounds: rounds, hard: cfg.hardStop(), digest: fnv.New64a(),
		buf: make([]byte, 0, 256), tr: tr, allocCtr: newAllocCounter()}
	// Room for every span and latency up front, so the observer allocates
	// nothing inside the measured rounds: two spans per round, five per
	// set-up, one for Run.
	tr.spans = make([]span, 0, 2*(size.warmup+rounds+1)+5*size.setupReps+1)
	st.samples = make([]opSample, 0, rounds+1)
	wrap := func(s dyngraph.Schedule) dyngraph.Schedule {
		st.timed = &timedSchedule{Schedule: s, tr: tr}
		return st.timed
	}
	te, _, err := size.setupRepeated(cfg.seed, st.observe, wrap, prof, tr)
	if err != nil {
		return err
	}
	st.runSpan = tr.begin(0, -1, "sim.Engine.Run")
	st.start = time.Now()
	st.prev = st.start
	if _, err := te.eng.Run(func(int, []sim.Protocol) bool { return st.done }); err != nil {
		return fmt.Errorf("torus run: %w", err)
	}
	tr.end(st.runSpan)
	te.eng.Close()
	tracedWall := st.prev.Sub(st.timedStart)

	med := func(name string) float64 {
		var ds []float64
		for _, s := range tr.spans {
			if s.Name == name {
				ds = append(ds, float64(s.Dur)/1e9)
			}
		}
		return median(ds)
	}
	res.setLayer("gen.build_s", med("gen.Torus"))
	res.setLayer("core.network_s", med("core.UniqueUIDs")+med("core.NewBlindGossipNetwork"))
	res.setLayer("sim.new_s", med("sim.New"))
	res.setLayer("sim.new_mb", float64(te.newBytes)/(1<<20))
	graphAt := tr.totals()["dyngraph.GraphAt"]
	res.setLayer("dyngraph.graphat_s", graphAt/float64(st.executed))
	res.setLayer("dyngraph.rebuilds", float64(st.timed.rebuilds))
	res.setLayer("dyngraph.us_per_rebuild", ratio(float64(st.timed.rebuildNS)/1e3, float64(st.timed.rebuilds)))
	runSelf := float64(tr.spans[st.runSpan].Dur)/1e9 - graphAt
	res.setLayer("sim.run_us_per_round.blindgossip", runSelf*1e6/float64(st.executed))
	res.setLayer("sim.allocs_per_round.blindgossip",
		ratio(float64(st.allocs1-st.allocs0), float64(st.executed-size.warmup)))
	setRoundCounts(res, st.counts)
	ps := newProfSum()
	ps.add(prof.Report())
	ps.layerMetrics(res.setLayer)
	res.setLayer("obs.trace_overhead", tracedWall.Seconds()/untracedWall.Seconds()-1)
	logf(cfg.log, "%-12s traced digest %016x, resolved dispatch %q\n", size.name, st.digest.Sum64(), ps.dispatchMode)
	printLayers(cfg.log, size.name, res.layers)
	return printSpans(cfg, size.name, tr)
}
