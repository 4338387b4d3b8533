package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/obs"
	"mobiletel/internal/sim"
	"mobiletel/internal/xrand"
)

// electSize sizes the elect workload; tests shrink it.
type electSize struct {
	name      string
	n, degree int
	// maxRounds caps each election: the largest stabilization seen in
	// 9300 elections at n = 256 and β = 4 was 3129 rounds, so a run that
	// reaches the cap has stopped converging.
	maxRounds int
	// setupReps set-ups are timed and setup_s is their median: 251 graph
	// builds take about a second, longer than the host's fast stretches.
	setupReps int
	// warmup elections run untimed before the closed loop: the first ones
	// grow the heap and fault in its pages.
	warmup int
	// window is how many consecutive elections each of a run's latency
	// and throughput figures covers; the run reports their medians.
	window int
	// minOps is the smallest election count of an untraced run: three
	// windows, so the medians have three to choose from. The digest covers
	// these elections.
	minOps int
	// exactOps is the smallest election count of a traced run's untraced
	// pass, its digest's length, and the prefix it counts exactly.
	exactOps int
}

var elect256 = electSize{name: "elect256", n: 256, degree: 8, maxRounds: 10_000,
	setupReps: 251, warmup: 30, window: windowOps, minOps: 3 * windowOps, exactOps: 300}

// tagBeta sets the tag length to k = tagBeta·⌈log₂(n+1)⌉ bits, the paper's
// k = β·log n. The default β = 2 lets two nodes draw the minimum tag in
// about 1 of 1000 elections at n = 256, and such an election never
// stabilizes (see dupMinimum); at β = 4 (36 bits) that chance is below 1 in
// 10^8, so no op is expected to fail.
const tagBeta = 4

// electSchedules cycle per election; a τ of 0 is the static schedule.
var electSchedules = []struct {
	name string
	tau  int
}{{"static", 0}, {"permuted-tau8", 8}, {"permuted-tau1", 1}}

// electWorkload holds the graph built in set-up and the traced run's
// accumulators.
type electWorkload struct {
	size   electSize
	seed   uint64
	fam    gen.Family
	params core.BitConvParams

	// Traced pass only.
	tr       *tracer
	prof     *obs.Profiler
	allocs   *allocCounter
	counts   roundCounts
	observer func(sim.RoundStats)
	acc      [2]algoAcc // per electAlgos entry
	graphNS  int64
	newBytes uint64 // allocated by sim.New
	// Epoch rebuilds in the exact prefix, and in all traced elections
	// with the time they took.
	rebuildsExact, rebuildsAll, rebuildNS int64
}

// roundCounts are simulated per-round totals, exact for a seed.
type roundCounts struct {
	proposals, accepts, rejects, busyLost int64
}

func (c *roundCounts) observe(s sim.RoundStats) {
	c.proposals += int64(s.Proposals)
	c.accepts += int64(s.Accepts)
	c.rejects += int64(s.Rejects)
	c.busyLost += int64(s.BusyLost)
}

type algoAcc struct {
	rounds, runSelfNS           int64
	allocs                      uint64
	exactElections, exactRounds int64
}

// election is one op's simulated outcome.
type election struct {
	algo, sched int
	leader      uint64
	rounds      int // rounds executed: the stabilization round, or the cap
	stabilized  bool
	wrongLeader bool
	dupMinTag   bool
}

// setup builds the workload's graph, the part of the run every election
// shares, and returns how long the generator took.
func (w *electWorkload) setup() time.Duration {
	t0 := time.Now()
	w.fam = gen.RandomRegular(w.size.n, w.size.degree, xrand.Mix3(w.seed, 0, 0x96a9))
	d := time.Since(t0)
	w.params = core.DefaultBitConvParams(w.size.n, w.fam.MaxDegree())
	w.params.K = tagBeta * core.Log2Ceil(w.size.n+1)
	return d
}

// elect runs election i through the layers in ElectLeader's order:
// schedule, UIDs, protocols, engine, Run, Close. Algorithm and schedule
// cycle with i; every seed derives from (workload seed, i).
func (w *electWorkload) elect(i int, exact bool) (election, error) {
	tr := w.tr
	seed := xrand.Mix3(w.seed, uint64(i), 0xe1ec7)
	e := election{algo: i % len(electAlgos), sched: i % len(electSchedules)}
	op := int64(i)
	root := tr.begin(op, -1, "election")

	sp := tr.begin(op, root, "dyngraph.New")
	var sched dyngraph.Schedule
	if tau := electSchedules[e.sched].tau; tau == 0 {
		sched = dyngraph.NewStatic(w.fam)
	} else {
		sched = dyngraph.NewPermuted(w.fam, tau, xrand.Mix3(seed, 1, 0x5c4ed))
	}
	tr.end(sp)
	var timed *timedSchedule
	if tr != nil {
		timed = &timedSchedule{Schedule: sched, tr: tr}
		sched = timed
	}

	sp = tr.begin(op, root, "core.UniqueUIDs")
	uids := core.UniqueUIDs(w.size.n, seed^0x51ede75)
	tr.end(sp)
	var protocols []sim.Protocol
	var tags []uint64
	tagBits := 1
	if electAlgos[e.algo] == "bitconv" {
		sp = tr.begin(op, root, "core.NewBitConvNetwork")
		protocols, tags = core.NewBitConvNetwork(uids, w.params, seed^0xb17c0)
	} else {
		sp = tr.begin(op, root, "core.NewAsyncBitConvNetwork")
		protocols, tags = core.NewAsyncBitConvNetwork(uids, w.params, seed^0xa57c0)
		tagBits = core.TagBitsNeeded(w.params)
	}
	tr.end(sp)

	cfg := sim.Config{Seed: seed, TagBits: tagBits, MaxRounds: w.size.maxRounds, Workers: procs}
	if tr != nil {
		cfg.Profiler = w.prof
		if exact {
			cfg.Observer = w.observer
		}
	}
	var b0 uint64
	if w.allocs != nil {
		_, b0 = w.allocs.read()
	}
	sp = tr.begin(op, root, "sim.New")
	eng, err := sim.New(sched, protocols, cfg)
	tr.end(sp)
	if w.allocs != nil {
		_, b1 := w.allocs.read()
		w.newBytes += b1 - b0
	}
	if err != nil {
		return e, fmt.Errorf("election %d: %w", i, err)
	}

	var a0 uint64
	if w.allocs != nil {
		a0, _ = w.allocs.read()
	}
	sp = tr.begin(op, root, "sim.Engine.Run")
	res, runErr := eng.Run(sim.AllLeadersEqual)
	tr.end(sp)
	if w.allocs != nil {
		a1, _ := w.allocs.read()
		acc := &w.acc[e.algo]
		acc.allocs += a1 - a0
		acc.rounds += int64(res.RoundsExecuted)
		acc.runSelfNS += tr.spans[sp].Dur - timed.ns
		if exact {
			acc.exactElections++
			acc.exactRounds += int64(res.RoundsExecuted)
			w.rebuildsExact += timed.rebuilds
		}
		w.graphNS += timed.ns
		w.rebuildsAll += timed.rebuilds
		w.rebuildNS += timed.rebuildNS
		timed.flush(op, sp)
	}
	sp = tr.begin(op, root, "sim.Engine.Close")
	eng.Close()
	tr.end(sp)
	tr.end(root)

	e.rounds = res.RoundsExecuted
	e.dupMinTag = dupMinimum(tags)
	switch {
	case runErr == nil:
		e.stabilized = true
		e.leader = protocols[0].Leader()
		e.wrongLeader = e.leader != minPairUID(uids, tags)
	case errors.Is(runErr, sim.ErrNotStabilized):
	default:
		return e, fmt.Errorf("election %d: %w", i, runErr)
	}
	return e, nil
}

// minPairUID is the UID owning the minimum (tag, UID) pair: the leader the
// b ≥ 1 algorithms must elect (the rule of E10's checkMinPair).
func minPairUID(uids, tags []uint64) uint64 {
	pairs := make([]core.IDPair, len(uids))
	for i := range uids {
		pairs[i] = core.IDPair{UID: uids[i], Tag: tags[i]}
	}
	return core.MinPair(pairs).UID
}

// dupMinimum reports whether two nodes drew the minimum tag. Advertisements
// carry only tag bits, so the UID tie-break between them cannot spread and
// the election never stabilizes (experiment A2's claim). Such an election
// fails at the round cap and counts as a failed op. Any other election
// that fails to stabilize is a wrong output.
func dupMinimum(tags []uint64) bool {
	lo, count := tags[0], 0
	for _, t := range tags {
		switch {
		case t < lo:
			lo, count = t, 1
		case t == lo:
			count++
		}
	}
	return count > 1
}

// check scores one election: failed when it did not stabilize or elected
// the wrong leader; wrong output when the leader is wrong or a
// non-stabilization has no duplicated minimum tag to explain it.
func (e election) check(r *result) {
	r.attempted++
	if !e.stabilized || e.wrongLeader {
		r.failed++
	}
	if e.wrongLeader || (!e.stabilized && !e.dupMinTag) {
		r.correct = false
	}
}

func (e election) digest(w io.Writer, i int) {
	logf(w, "%d %s %s %d %d %t\n", i, electAlgos[e.algo], electSchedules[e.sched].name,
		e.leader, e.rounds, e.stabilized)
}

// runElect runs the elect workload: elections back to back on one graph,
// a closed loop with one client.
func runElect(cfg config, size electSize) (*result, error) {
	w := &electWorkload{size: size, seed: cfg.seed}
	res := newResult()
	name := size.name

	// Set-up, repeated; each repetition builds the same graph.
	var setups, gens []float64
	for k := 0; k < size.setupReps; k++ {
		t0 := time.Now()
		g := w.setup()
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, g.Seconds())
	}

	// Warm-up: the first elections, run untimed; the loop repeats them.
	for i := 0; i < size.warmup; i++ {
		if _, err := w.elect(i, false); err != nil {
			return nil, err
		}
	}

	// Untraced closed loop. A traced run spends half its budget here and
	// replays the same elections traced.
	budget, minOps := cfg.budget, size.minOps
	var rtw *runtimeWindow
	if cfg.trace {
		budget, minOps = cfg.budget/2, size.exactOps
		rtw = startRuntimeWindow()
	}
	var samples []opSample
	var dup int
	digest := fnv.New64a()
	cpu0 := cpuSeconds()
	start := time.Now()
	var untracedWall time.Duration
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		if (elapsed >= budget && i >= minOps) || elapsed >= cfg.hardStop() {
			untracedWall = elapsed
			break
		}
		t0 := time.Now()
		e, err := w.elect(i, false)
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		samples = append(samples, opSample{sec: d.Seconds(), end: time.Since(start).Seconds(),
			failed: !e.stabilized || e.wrongLeader})
		e.check(res)
		if e.dupMinTag {
			dup++
		}
		if i < minOps {
			e.digest(digest, i)
		}
	}
	ops := len(samples)
	cpu := cpuSeconds() - cpu0
	logf(cfg.log, "%-12s digest %016x over the first %d elections; %d elections ran, %d with a duplicated minimum tag\n",
		name, digest.Sum64(), min(minOps, ops), ops, dup)

	fig := windowed(samples, size.window, p90)
	res.endToEnd["setup_s"] = median(setups)
	res.endToEnd["peak_rss_mb"] = peakRSSMB()
	res.endToEnd["op_ms_p50"] = fig.p50 * 1e3
	res.endToEnd["op_ms_tail"] = fig.tail * 1e3
	res.endToEnd["ops_per_s"] = fig.perSec
	note := fmt.Sprintf("n=%d, median of %d windows", ops, fig.windows)
	if !fig.tailOK {
		note += ", fewer than ten beyond p90"
	}
	line(cfg.log, name, "setup_s", res.endToEnd["setup_s"], "s", fmt.Sprintf("median of %d", size.setupReps))
	line(cfg.log, name, "peak_rss_mb", res.endToEnd["peak_rss_mb"], "MB", "")
	line(cfg.log, name, "failed_frac", ratio(float64(res.failed), float64(res.attempted)), "",
		fmt.Sprintf("%d/%d", res.failed, res.attempted))
	line(cfg.log, name, "elect_ms_p50", fig.p50*1e3, "ms", note)
	line(cfg.log, name, "elect_ms_p90", fig.tail*1e3, "ms", note)
	line(cfg.log, name, "elections_per_s", res.endToEnd["ops_per_s"], "1/s", note)
	line(cfg.log, name, "cpu_util", ratio(cpu, untracedWall.Seconds()*procs), "", "CPU over wall × GOMAXPROCS")
	if !cfg.trace {
		return res, nil
	}

	setRuntime(res, rtw.end(), ops)
	if err := w.traced(cfg, res, ops, gens, untracedWall); err != nil {
		return nil, err
	}
	return res, nil
}

// traced replays elections [0, ops) with spans, the phase profiler, the
// GraphAt wrapper, allocation counts and, for the first exactOps, a round
// observer.
func (w *electWorkload) traced(cfg config, res *result, ops int, gens []float64, untracedWall time.Duration) error {
	w.tr = newTracer()
	w.prof = obs.NewProfiler(w.tr.now)
	w.allocs = newAllocCounter()
	w.observer = w.counts.observe
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		if _, err := w.elect(i, i < w.size.exactOps); err != nil {
			return err
		}
	}
	tracedWall := time.Since(t0)

	// Layer times are means per election.
	tot := w.tr.totals()
	perOp := func(names ...string) float64 {
		var s float64
		for _, n := range names {
			s += tot[n]
		}
		return s / float64(ops)
	}
	res.setLayer("gen.build_s", median(gens))
	res.setLayer("core.network_s", perOp("core.UniqueUIDs", "core.NewBitConvNetwork", "core.NewAsyncBitConvNetwork"))
	res.setLayer("sim.new_s", perOp("sim.New"))
	res.setLayer("sim.new_mb", float64(w.newBytes)/(1<<20)/float64(ops))
	res.setLayer("dyngraph.graphat_s", perOp("dyngraph.GraphAt"))
	res.setLayer("dyngraph.rebuilds", float64(w.rebuildsExact))
	res.setLayer("dyngraph.us_per_rebuild", ratio(float64(w.rebuildNS)/1e3, float64(w.rebuildsAll)))
	for a, algo := range electAlgos {
		acc := w.acc[a]
		res.setLayer("sim.run_us_per_round."+algo, ratio(float64(acc.runSelfNS)/1e3, float64(acc.rounds)))
		res.setLayer("sim.allocs_per_round."+algo, ratio(float64(acc.allocs), float64(acc.rounds)))
		res.setLayer("sim.rounds_per_election."+algo, ratio(float64(acc.exactRounds), float64(acc.exactElections)))
	}
	setRoundCounts(res, w.counts)
	ps := newProfSum()
	ps.add(w.prof.Report())
	ps.layerMetrics(res.setLayer)
	res.setLayer("obs.trace_overhead", tracedWall.Seconds()/untracedWall.Seconds()-1)
	printLayers(cfg.log, w.size.name, res.layers)
	return printSpans(cfg, w.size.name, w.tr)
}
