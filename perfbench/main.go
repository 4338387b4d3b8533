// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the simulator's layers through their public
// functions, in the order mobiletel.ElectLeader calls them, checks every
// output, and prints one JSON result line last:
//
//	bash perfbench/run.sh --workload elect256 --seed 7 --seconds 20 --trace 0
//
// Workloads: elect256 (b ≥ 1 elections on a 256-node random regular
// graph), torus1m (rounds of a 2^20-node torus engine) and repro-sweep (the
// 16 E/R experiment tables in full mode). --trace 1 reports the per-layer
// metrics instead of the end-to-end ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// procs is the benchmark's thread budget: the host it was sized on has
// two CPUs, and each workload's engine or trial harness runs two workers.
const procs = 2

// defaultSeed is the seed the published experiment tables were made with.
const defaultSeed = 20170529

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user waits on, printed by every untraced
// run. The op is an election (elect256), a round (torus1m) or a pass of
// the sweep's tables (repro-sweep). The timing bounds sit just under
// setup_s's, the largest: on the 2-vCPU host the benchmark was sized on,
// the same workload ran up to 30% faster in some minutes than in others.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"op_ms_p50", "ms", "lower", 0.24},
	{"op_ms_tail", "ms", "lower", 0.24},
	{"ops_per_s", "1/s", "higher", 0.24},
}

var (
	electAlgos = []string{"bitconv", "asyncbitconv"}
	allAlgos   = []string{"bitconv", "asyncbitconv", "blindgossip"}
)

// perLayer are the traced run's metrics, every one printed by every traced
// run; a layer a workload does not drive reads 0.
func perLayer() []metricSpec {
	m := []metricSpec{
		{"gen.build_s", "s", "lower", 0},
		{"core.network_s", "s", "lower", 0},
		{"sim.new_s", "s", "lower", 0},
		{"sim.new_mb", "MB", "lower", 0},
		{"dyngraph.graphat_s", "s", "lower", 0},
		{"dyngraph.rebuilds", "count", "lower", 0},
		{"dyngraph.us_per_rebuild", "us", "lower", 0},
	}
	for _, a := range allAlgos {
		m = append(m, metricSpec{"sim.run_us_per_round." + a, "us", "lower", 0})
	}
	for _, a := range allAlgos {
		m = append(m, metricSpec{"sim.allocs_per_round." + a, "count", "lower", 0})
	}
	for _, ph := range phaseNames() {
		m = append(m,
			metricSpec{"sim.phase." + ph + ".share", "share", "lower", 0},
			metricSpec{"sim.phase." + ph + ".imbalance", "ratio", "lower", 0})
	}
	m = append(m,
		metricSpec{"sim.dispatch_share", "share", "lower", 0},
		metricSpec{"sim.worker_util", "share", "higher", 0},
		metricSpec{"sim.unattributed_share", "share", "lower", 0})
	for _, a := range electAlgos {
		m = append(m, metricSpec{"sim.rounds_per_election." + a, "rounds", "lower", 0})
	}
	m = append(m,
		metricSpec{"sim.accept_ratio", "ratio", "higher", 0},
		metricSpec{"sim.reject_frac", "ratio", "lower", 0},
		metricSpec{"sim.busy_lost_frac", "ratio", "lower", 0})
	for _, id := range sweepIDs {
		m = append(m, metricSpec{"exp." + shortID(id) + "_s", "s", "lower", 0})
	}
	m = append(m,
		metricSpec{"exp.cpu_util", "share", "higher", 0},
		metricSpec{"runtime.gc_cycles", "count/kop", "lower", 0},
		metricSpec{"runtime.gc_pause_ms", "ms/kop", "lower", 0},
		metricSpec{"runtime.heap_peak_mb", "MB", "lower", 0},
		metricSpec{"runtime.sched_latency_p99_us", "us", "lower", 0},
		metricSpec{"obs.trace_overhead", "ratio", "lower", 0})
	return m
}

// config is what every workload receives from the command line.
type config struct {
	seed     uint64
	budget   time.Duration // how long the closed loop issues ops
	trace    bool
	spansDir string // where a traced run writes its spans ("" = nowhere)
	log      io.Writer
}

// hardStop bounds a run that has not collected its minimum sample count by
// the end of its budget; every run must end well within 180 s.
func (c config) hardStop() time.Duration {
	h := 3 * c.budget
	if h > 120*time.Second {
		h = 120 * time.Second
	}
	if h < c.budget {
		h = c.budget
	}
	return h
}

// result is one run's outcome. A failed check is a failed op; correct is
// false when an output was wrong, not merely missing.
type result struct {
	correct   bool
	attempted int
	failed    int
	endToEnd  map[string]float64
	layers    map[string]float64
	aborted   bool // an op overran its deadline; the run cannot continue
}

func newResult() *result {
	return &result{correct: true, endToEnd: map[string]float64{}, layers: map[string]float64{}}
}

func (r *result) setLayer(name string, v float64) { r.layers[name] = v }

// logf writes a human-readable line; the result line is what a caller
// parses, so a failed write here changes nothing it relies on.
func logf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

// line prints one human-readable metric line.
func line(w io.Writer, workload, name string, v float64, unit, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	logf(w, "%-12s %-34s %14.6g %-9s%s\n", workload, name, v, unit, note)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// encode renders the final result line with every metric of specs.
func (r *result) encode(specs []metricSpec, values map[string]float64) ([]byte, error) {
	out := jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]jsonMetric{}}
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[s.Name] = jsonMetric{Value: v, Unit: s.Unit}
	}
	return json.Marshal(out)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "elect256 | torus1m | repro-sweep")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 30, "how long the closed loop issues ops")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	spansDir := fs.String("spans-dir", "", "directory a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		logf(stderr, "perfbench: --seconds must be positive and --trace 0 or 1\n")
		return 2
	}
	runtime.GOMAXPROCS(procs)
	cfg := config{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, spansDir: *spansDir, log: stdout}
	logf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%d host: nproc=%d GOMAXPROCS=%d %s\n",
		*workload, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var res *result
	var err error
	switch *workload {
	case "elect256":
		res, err = runElect(cfg, elect256)
	case "torus1m":
		res, err = runTorus(cfg, torus1m)
	case "repro-sweep":
		res, err = runSweep(cfg, reproSweep)
	default:
		logf(stderr, "perfbench: unknown --workload %q (want elect256|torus1m|repro-sweep)\n", *workload)
		return 2
	}
	if err != nil {
		logf(stderr, "perfbench: %v\n", err)
		return 1
	}
	specs, values := endToEnd, res.endToEnd
	if cfg.trace {
		specs, values = perLayer(), res.layers
	}
	js, err := res.encode(specs, values)
	if err != nil {
		logf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", js); err != nil {
		return 1
	}
	if res.aborted {
		return 1
	}
	return 0
}

// printLayers prints the per-layer metrics in name order.
func printLayers(w io.Writer, workload string, layers map[string]float64) {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, s := range perLayer() {
		units[s.Name] = s.Unit
	}
	for _, n := range names {
		if v := layers[n]; v != 0 || !strings.HasPrefix(n, "sim.phase.") {
			line(w, workload, n, v, units[n], "")
		}
	}
}

// printSpans prints per-layer span totals and writes the spans out.
func printSpans(cfg config, workload string, tr *tracer) error {
	logf(cfg.log, "%-12s %-34s %8s %10s %12s %12s\n", workload, "span", "spans", "calls", "total_s", "self_s")
	for _, lt := range summarize(tr.spans) {
		logf(cfg.log, "%-12s %-34s %8d %10d %12.6f %12.6f\n",
			workload, lt.Name, lt.Spans, lt.Calls, float64(lt.Dur)/1e9, float64(lt.Self)/1e9)
	}
	if cfg.spansDir == "" {
		return nil
	}
	path, err := tr.write(cfg.spansDir, workload)
	if err != nil {
		return err
	}
	logf(cfg.log, "%-12s spans written to %s\n", workload, path)
	return nil
}

// setRoundCounts stores the simulated proposal outcomes as shares of all
// proposals.
func setRoundCounts(r *result, c roundCounts) {
	p := float64(c.proposals)
	r.setLayer("sim.accept_ratio", ratio(float64(c.accepts), p))
	r.setLayer("sim.reject_frac", ratio(float64(c.rejects), p))
	r.setLayer("sim.busy_lost_frac", ratio(float64(c.busyLost), p))
}

// setRuntime stores a runtime window's statistics, the counts per 1000 ops.
func setRuntime(r *result, rs runtimeStats, ops int) {
	kops := float64(ops) / 1000
	r.setLayer("runtime.gc_cycles", ratio(rs.GCCycles, kops))
	r.setLayer("runtime.gc_pause_ms", ratio(rs.GCPauseMS, kops))
	r.setLayer("runtime.heap_peak_mb", rs.HeapPeakMB)
	r.setLayer("runtime.sched_latency_p99_us", rs.SchedP99US)
}
