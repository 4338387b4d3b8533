// Package experiment is the reproduction harness: every theorem and
// construction in the paper is turned into a registered, regenerable
// experiment that prints a table (the paper has no empirical tables or
// figures of its own — it is a theory paper — so the experiment IDs index
// its theorems; see DESIGN.md §4 and EXPERIMENTS.md).
//
// Run experiments via `go run ./cmd/mtmexp -run <ID>` or the corresponding
// benchmarks in bench_test.go. Each experiment supports a Quick mode with
// reduced scales for CI.
package experiment

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"mobiletel/internal/dyngraph"
	"mobiletel/internal/obs"
	"mobiletel/internal/sim"
	"mobiletel/internal/trace"
	"mobiletel/internal/xrand"
)

// Config parameterizes an experiment run.
type Config struct {
	// Seed drives all randomness; every experiment is deterministic in it.
	Seed uint64
	// Trials is the number of independent repetitions per data point.
	// Zero selects each experiment's default.
	Trials int
	// Quick reduces problem sizes for fast CI runs.
	Quick bool
	// Progress, when non-nil, receives throttled live progress lines while
	// a trial batch runs: trials and points completed, elapsed wall time,
	// and an ETA. It is written from worker goroutines under a mutex, so
	// any io.Writer is safe. Results are unaffected.
	Progress io.Writer
	// Now supplies the wall clock for Progress elapsed/ETA figures. This
	// package never reads the clock itself (results must be reproducible),
	// so callers wanting timed progress pass time.Now; when nil, progress
	// lines carry counts only.
	Now func() time.Time
	// Sink, when non-nil, receives the structured event trace of the
	// batch's first trial (point 0, trial 0); all other trials run
	// untraced so the batch keeps its parallel throughput. Every
	// experiment runs its trials through runPointTrials except E4, which
	// runs no engine and ignores it.
	Sink obs.Sink
	// Profiler, when non-nil, attaches the phase-timing profiler to the same
	// first trial Sink observes (point 0, trial 0); the caller renders its
	// mtmprof/v1 report after the run. Progress lines additionally carry the
	// hottest phases once the profiled trial has finished. Like Now, the
	// profiler's clock is injected by the caller — this package still never
	// reads wall time itself. E4 ignores it.
	Profiler *obs.Profiler
	// Checkpoint, when non-nil, makes the sweep crash-safe: every completed
	// trial is recorded as it finishes and already-recorded trials are
	// replayed instead of re-simulated, so a killed run resumed with the
	// same checkpoint produces a bit-identical table. E4, which runs no
	// trials, ignores it, and A2, E5 and E11 run without it and re-run in
	// full: their tables need per-trial measurements (A2's tag statistics
	// and outcomes, E5's informed counts, E11's per-edge connection counts)
	// that a cell, which holds only a stabilization round, cannot replay.
	Checkpoint *Checkpoint
	// Interrupt, when non-nil, requests a graceful abort when closed:
	// the feeder stops handing out new trials, in-flight trials drain (and
	// are still checkpointed), and the run returns ErrInterrupted. E4
	// ignores it.
	Interrupt <-chan struct{}
}

// Experiment is one registered reproduction target.
type Experiment struct {
	// ID is the stable identifier used by the CLI and benchmarks (e.g.
	// "E1-blindgossip-scaling").
	ID string
	// Claim cites what in the paper this experiment validates.
	Claim string
	// Run executes the experiment and returns its result table.
	Run func(cfg Config) (*trace.Table, error)
}

var (
	registryMu sync.Mutex
	registry   []Experiment
)

// register adds an experiment at package init time.
func register(e Experiment) {
	registryMu.Lock()
	defer registryMu.Unlock()
	for _, old := range registry {
		if old.ID == e.ID {
			panic("experiment: duplicate ID " + e.ID)
		}
	}
	registry = append(registry, e)
}

// All returns the registered experiments sorted by ID.
func All() []Experiment {
	registryMu.Lock()
	defer registryMu.Unlock()
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// trialRun is one simulation trial, as a point's build hook returns it.
type trialRun struct {
	sched     dyngraph.Schedule
	protocols []sim.Protocol
	cfg       sim.Config
	// stop ends the run; nil means sim.AllLeadersEqual.
	stop sim.StopCondition
	// check, if non-nil, runs once stop has fired. It closes over what the
	// build hook drew (UIDs, tags, protocols) to validate the end state,
	// and may store a measurement the table reads in a per-(point, trial)
	// cell.
	check func() error
}

// RunCells runs cell(point, trial) for every trial of every point on one
// pool of GOMAXPROCS workers and returns the results indexed
// [point][trial]. It is the one pool trials run on: every experiment's
// engine trials (through runPointTrials) and mobiletel.RunSweep.
//
// Feeding every cell of a batch into one pipelined pool, instead of a pool
// per point with a barrier between points, means a slow trial of point p
// no longer idles the other workers: they pick up cells of point p+1.
// Results land in distinct cells and the caller reads them after the pool
// drains, so the output does not depend on execution order as long as
// each cell derives its randomness from (point, trial) alone.
//
// The first error in (point, trial) order wins. With cfg.Checkpoint set,
// recorded cells are replayed instead of re-run and every newly finished
// cell is recorded; closing cfg.Interrupt stops the feeder, lets in-flight
// cells drain (they still record) and makes RunCells return
// ErrInterrupted; cfg.Progress receives throttled progress lines. The
// other fields of cfg are the cell's business.
func RunCells(cfg Config, points, trials int, cell func(point, trial int) (int, error)) ([][]int, error) {
	results, errs := cells[int](points, trials), cells[error](points, trials)
	// The batch ordinal must advance even for empty batches so a resumed
	// process hands out the same ordinals to the same batches.
	batch := -1
	if cfg.Checkpoint != nil {
		batch = cfg.Checkpoint.NextBatch()
	}
	total := points * trials
	if total == 0 {
		return results, nil
	}
	progress := newProgress(cfg, points, trials)

	type task struct{ point, trial int }
	next := make(chan task)
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), total) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				// A replayed cell equals a re-run one because the cell
				// depends only on (point, trial), and its checks passed
				// before it was recorded. A replayed (0, 0) engine trial
				// does not re-emit its trace, so a resumed -trace sink
				// stays empty.
				r, replayed := 0, false
				if cfg.Checkpoint != nil {
					r, replayed = cfg.Checkpoint.Lookup(batch, t.point, t.trial)
				}
				var err error
				if !replayed {
					r, err = cell(t.point, t.trial)
					if err == nil && cfg.Checkpoint != nil {
						err = cfg.Checkpoint.Record(batch, t.point, t.trial, r)
					}
				}
				results[t.point][t.trial], errs[t.point][t.trial] = r, err
				progress.done(t.point)
			}
		}()
	}
	interrupted := false
feed:
	for p := range points {
		for trial := range trials {
			// The pre-check makes an already-signalled interrupt win even
			// when a worker is simultaneously ready to receive (a two-way
			// select would pick between the ready cases at random).
			select {
			case <-cfg.Interrupt:
				interrupted = true
				break feed
			default:
			}
			select {
			case next <- task{p, trial}:
			case <-cfg.Interrupt:
				interrupted = true
				break feed
			}
		}
	}
	close(next)
	wg.Wait()

	for p := range errs {
		for _, err := range errs[p] {
			if err != nil {
				return nil, err
			}
		}
	}
	if interrupted {
		return nil, ErrInterrupted
	}
	return results, nil
}

// runPointTrials runs trials engine trials of every point on RunCells and
// returns their stabilization rounds indexed [point][trial]; points[p]
// builds point p's trial-th trial, in the worker that runs it. Engines run
// sequentially (parallelism lives at the (point, trial) level), and the
// batch's first trial (point 0, trial 0) carries cfg.Sink and cfg.Profiler.
// An engine or check error names its point and trial.
func runPointTrials(cfg Config, trials int, points []func(trial int) trialRun) ([][]int, error) {
	return RunCells(cfg, len(points), trials, func(p, t int) (int, error) {
		tr := points[p](t)
		tr.cfg.Workers = 1
		if p == 0 && t == 0 {
			tr.cfg.Sink, tr.cfg.Profiler = cfg.Sink, cfg.Profiler
		}
		if tr.stop == nil {
			tr.stop = sim.AllLeadersEqual
		}
		var res sim.Result
		eng, err := sim.New(tr.sched, tr.protocols, tr.cfg)
		if err == nil {
			res, err = eng.Run(tr.stop)
		}
		if err == nil && tr.check != nil {
			err = tr.check()
		}
		if err != nil {
			return 0, fmt.Errorf("point %d trial %d: %w", p, t, err)
		}
		return res.StabilizedRound, nil
	})
}

// cells allocates a per-(point, trial) grid for what a batch's hooks store.
func cells[T any](points, trials int) [][]T {
	g := make([][]T, points)
	for p := range g {
		g[p] = make([]T, trials)
	}
	return g
}

// atHorizon is the stop condition of a fixed-horizon trial: it fires at the
// end of round h, so the trial runs exactly h rounds and its check measures
// the state there.
func atHorizon(h int) sim.StopCondition {
	return func(round int, _ []sim.Protocol) bool { return round >= h }
}

// withoutCheckpoint returns cfg with no checkpoint, for batches whose table
// needs a measurement that a build hook or check stores: a replayed cell
// skips both and holds only the stabilization round, so such a batch
// re-runs in full on resume instead.
func withoutCheckpoint(cfg Config) Config {
	cfg.Checkpoint = nil
	return cfg
}

// progressReporter emits throttled live progress lines for a trial batch.
// The zero-value-like nil-writer form is a no-op, so call sites need no
// branching.
type progressReporter struct {
	w      io.Writer
	now    func() time.Time // injected clock; nil = counts-only lines
	prof   *obs.Profiler    // optional; adds hottest-phase timing to lines
	total  int
	trials int // trials per point

	mu         sync.Mutex
	start      time.Time
	lastReport time.Time
	completed  int
	perPoint   []int // trials finished per point
	pointsDone int
}

// progressInterval is the minimum spacing between progress lines; the final
// line (batch complete) is always written.
const progressInterval = 500 * time.Millisecond

// newProgress builds a reporter for a batch from cfg's Progress, Now and
// Profiler; a nil Progress disables it.
func newProgress(cfg Config, points, trials int) *progressReporter {
	p := &progressReporter{w: cfg.Progress, now: cfg.Now, prof: cfg.Profiler, total: points * trials, trials: trials}
	if p.w != nil {
		if p.now != nil {
			p.start = p.now()
		}
		p.perPoint = make([]int, points)
	}
	return p
}

// done records one finished trial of the given point and reports progress if
// the throttle interval elapsed (or the batch just completed).
func (p *progressReporter) done(point int) {
	if p.w == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.completed++
	p.perPoint[point]++
	if p.perPoint[point] == p.trials {
		p.pointsDone++
	}
	if p.now == nil {
		// No clock injected: report every trial, counts only. Progress is
		// best-effort diagnostics, so write errors are discarded.
		_, _ = fmt.Fprintf(p.w, "progress: %d/%d trials, %d/%d points%s\n",
			p.completed, p.total, p.pointsDone, len(p.perPoint), p.phaseSuffix())
		return
	}
	now := p.now()
	if p.completed < p.total && now.Sub(p.lastReport) < progressInterval {
		return
	}
	p.lastReport = now
	elapsed := now.Sub(p.start)
	eta := time.Duration(float64(elapsed) / float64(p.completed) * float64(p.total-p.completed))
	_, _ = fmt.Fprintf(p.w, "progress: %d/%d trials, %d/%d points, %s elapsed, ~%s left%s\n",
		p.completed, p.total, p.pointsDone, len(p.perPoint),
		elapsed.Round(100*time.Millisecond), eta.Round(100*time.Millisecond), p.phaseSuffix())
}

// phaseSuffix renders the profiler's hottest phases for a progress line, or
// "" when no profiler is attached or the profiled trial hasn't produced any
// timing yet. The profiler's counters are atomic, so reading them while the
// profiled trial is still running is safe — the line just shows the split so
// far.
func (p *progressReporter) phaseSuffix() string {
	if p.prof == nil {
		return ""
	}
	top := p.prof.TopPhases(3)
	if len(top) == 0 {
		return ""
	}
	return ", phases: " + strings.Join(top, ", ")
}

// trialSeed derives a per-(experiment, point, trial) seed.
func trialSeed(base uint64, point, trial int) uint64 {
	return xrand.Mix3(base, uint64(point), uint64(trial))
}

// pick returns a if quick, else b.
func pick(quick bool, a, b int) int {
	if quick {
		return a
	}
	return b
}

// pickTrials resolves the trial count: explicit config wins, else quick/full
// defaults.
func pickTrials(cfg Config, quickDefault, fullDefault int) int {
	if cfg.Trials > 0 {
		return cfg.Trials
	}
	return pick(cfg.Quick, quickDefault, fullDefault)
}
