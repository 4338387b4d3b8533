package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"time"

	"mobiletel"
	"mobiletel/internal/obs"
)

// sweepIDs are the 16 E and R tables of the published reproduction, in ID
// order. The A* ablations are left out on cost: A2 alone takes about twice
// as long as these 16 together.
var sweepIDs = []string{
	"E1-blindgossip-scaling", "E10-churn-robustness", "E11-good-edge-probability",
	"E12-classical-vs-mobile", "E2-blindgossip-lowerbound", "E3-pushpull-bound",
	"E4-lemma-v1-gamma", "E5-ppush-approx", "E6-bitconv-tau", "E7-zero-vs-one-bit",
	"E8-async-bitconv", "E9-self-stabilization", "R1-leader-crash-reelection",
	"R2-corruption-recovery", "R3-message-loss-slowdown", "R4-partition-heal",
}

// shortID is an experiment ID's leading token ("E1" for
// "E1-blindgossip-scaling").
func shortID(id string) string {
	short, _, _ := strings.Cut(id, "-")
	return short
}

// sweepSize sizes the sweep; tests shrink it.
type sweepSize struct {
	name string
	ids  []string
	// quick selects the experiments' reduced scales (tests only): the
	// workload regenerates the published full-mode tables.
	quick bool
	// deadline bounds one experiment. A table that has not returned by then
	// is reported as a failed op and the run exits, since the trial running
	// it cannot be stopped from outside.
	deadline time.Duration
	// setupReps set-ups are timed and setup_s is their median: 100 001 ID
	// resolutions take about half a second, longer than the host's fast
	// stretches.
	setupReps int
}

var reproSweep = sweepSize{name: "repro-sweep", ids: sweepIDs, deadline: 60 * time.Second, setupReps: 100_001}

// publishedSeed is the seed of the published tables (experiments_full.txt).
// The sweep always runs at it: at other seeds some full-mode experiment
// draws a trial whose minimum tag is duplicated, which never stabilizes and
// spins to its 50M-round cap (E8 at seeds 1 and 2, E6 at seed 2).
// Experiment A2 measures that failure mode; the benchmark does not.
const publishedSeed = defaultSeed

// resolve checks that every table of the sweep is registered: the sweep's
// set-up.
func (s sweepSize) resolve() error {
	known := map[string]bool{}
	for _, e := range mobiletel.Experiments() {
		known[e.ID] = true
	}
	for _, id := range s.ids {
		if !known[id] {
			return fmt.Errorf("experiment %s is not registered", id)
		}
	}
	return nil
}

type tableResult struct {
	table string
	err   error
}

// experiment regenerates one table, giving up after the deadline. On a
// timeout the goroutine running the table is abandoned; the caller ends
// the process.
func (s sweepSize) experiment(id string, prof *bytes.Buffer) (table string, timedOut bool, err error) {
	done := make(chan tableResult, 1) // the abandoned sender must not block
	go func() {
		opts := mobiletel.ExperimentOptions{Seed: publishedSeed, Quick: s.quick}
		if prof != nil {
			opts.PhaseProfTo = prof
		}
		t, err := mobiletel.RunExperiment(id, opts)
		done <- tableResult{t, err}
	}()
	timer := time.NewTimer(s.deadline)
	defer timer.Stop()
	select {
	case r := <-done:
		return r.table, false, r.err
	case <-timer.C:
		return "", true, fmt.Errorf("%s did not finish within %v", id, s.deadline)
	}
}

// pass is one full regeneration of the sweep's tables.
type pass struct {
	wall   time.Duration
	times  []float64 // per table, seconds
	digest uint64
	cpu    float64
}

// runPass regenerates every table once, in ID order. A traced pass
// records a span per table and sums the tables' phase profiles.
func (s sweepSize) runPass(r *result, tr *tracer, ps *profSum, log func(string, ...any)) (pass, bool) {
	var p pass
	h := fnv.New64a()
	cpu0 := cpuSeconds()
	start := time.Now()
	for i, id := range s.ids {
		var prof *bytes.Buffer
		if ps != nil {
			prof = &bytes.Buffer{}
		}
		sp := tr.begin(int64(i), -1, "mobiletel.RunExperiment")
		t0 := time.Now()
		table, timedOut, err := s.experiment(id, prof)
		d := time.Since(t0)
		tr.end(sp)
		r.attempted++
		if err != nil {
			r.failed++
			r.correct = false
			log("%-12s %s failed: %v\n", s.name, id, err)
			if timedOut {
				r.aborted = true
				return p, false
			}
		}
		p.times = append(p.times, d.Seconds())
		logf(h, "%s\n%s", id, table)
		if prof != nil && prof.Len() > 0 {
			var rep obs.ProfReport
			if err := json.Unmarshal(prof.Bytes(), &rep); err != nil {
				log("%-12s %s: unreadable phase profile: %v\n", s.name, id, err)
				r.correct = false
			} else {
				ps.add(rep)
			}
		}
	}
	p.wall = time.Since(start)
	p.cpu = cpuSeconds() - cpu0
	p.digest = h.Sum64()
	return p, true
}

// runSweep runs the sweep: whole passes back to back while another pass
// fits in the budget, at least one.
func runSweep(cfg config, size sweepSize) (*result, error) {
	res := newResult()
	name := size.name
	log := func(f string, a ...any) { logf(cfg.log, f, a...) }

	var setups []float64
	for k := 0; k < size.setupReps; k++ {
		t0 := time.Now()
		if err := size.resolve(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.endToEnd["setup_s"] = median(setups)

	var rtw *runtimeWindow
	if cfg.trace {
		rtw = startRuntimeWindow()
	}
	var passes []pass
	var lat latencies
	start := time.Now()
	for {
		p, ok := size.runPass(res, nil, nil, log)
		if !ok {
			return res, nil
		}
		passes = append(passes, p)
		for _, t := range p.times {
			lat.add(t, false)
		}
		if cfg.trace || time.Since(start)+p.wall > cfg.budget {
			break
		}
	}
	var walls []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		if p.digest != passes[0].digest {
			res.correct = false
		}
	}
	sweep := median(walls)
	logf(cfg.log, "%-12s digest %016x over %d tables at seed %d (%d passes, all equal: %t)\n",
		name, passes[0].digest, len(size.ids), publishedSeed, len(passes), res.correct)

	// The op a user waits for is the whole pass: per-table times span
	// three orders of magnitude, so their median moves with whichever
	// small tables sit in the middle. The pass time is reported three
	// ways; the per-table figures are printed for reading.
	p50v, _ := lat.percentile(p50)
	tail := lat.ok[0]
	for _, t := range lat.ok {
		tail = max(tail, t)
	}
	res.endToEnd["peak_rss_mb"] = peakRSSMB()
	res.endToEnd["op_ms_p50"] = sweep * 1e3
	res.endToEnd["op_ms_tail"] = slices.Max(walls) * 1e3
	res.endToEnd["ops_per_s"] = 1 / sweep
	note := fmt.Sprintf("n=%d tables, fewer than ten beyond any percentile", lat.n())
	line(cfg.log, name, "setup_s", res.endToEnd["setup_s"], "s", fmt.Sprintf("median of %d", size.setupReps))
	line(cfg.log, name, "peak_rss_mb", res.endToEnd["peak_rss_mb"], "MB", "")
	line(cfg.log, name, "failed_frac", ratio(float64(res.failed), float64(res.attempted)), "",
		fmt.Sprintf("%d/%d tables", res.failed, res.attempted))
	line(cfg.log, name, "sweep_s", sweep, "s", fmt.Sprintf("median of %d passes", len(passes)))
	line(cfg.log, name, "table_ms_p50", p50v*1e3, "ms", note)
	line(cfg.log, name, "table_ms_max", tail*1e3, "ms", note)
	line(cfg.log, name, "tables_per_s", float64(len(size.ids))/sweep, "1/s", "")
	if !cfg.trace {
		return res, nil
	}

	untraced := passes[0]
	setRuntime(res, rtw.end(), len(size.ids))
	res.setLayer("exp.cpu_util", untraced.cpu/(untraced.wall.Seconds()*procs))
	tr := newTracer()
	ps := newProfSum()
	traced, ok := size.runPass(res, tr, ps, log)
	if !ok {
		return res, nil
	}
	if traced.digest != untraced.digest {
		res.correct = false
	}
	for i, id := range size.ids {
		res.setLayer("exp."+shortID(id)+"_s", traced.times[i])
	}
	ps.layerMetrics(res.setLayer)
	res.setLayer("obs.trace_overhead", traced.wall.Seconds()/untraced.wall.Seconds()-1)
	printLayers(cfg.log, name, res.layers)
	return res, printSpans(cfg, name, tr)
}
