// Command mtmsim runs a single leader election or rumor spreading
// simulation in the mobile telephone model and reports the outcome. It is
// the one command that runs a simulation: -trace, -metrics and -phase-prof
// record the run (mtmtrace/v1 events, mtmtrace-metrics/v1 metrics, mtmprof/v1
// phase timings), which cmd/mtmtrace reads.
//
// Examples:
//
//	mtmsim -topo clique -n 256 -algo blindgossip
//	mtmsim -topo lineofstars -n 110 -algo bitconv -schedule permuted -tau 4
//	mtmsim -topo regular -n 512 -deg 8 -rumor ppush
//	mtmsim -topo regular -n 512 -cpuprofile cpu.out
//	mtmsim -topo regular -n 64 -seed 7 -trace run.jsonl -metrics run.metrics.json
//	mtmsim -topo expander -n 65536 -workers 8 -sample 4 -types connect,transition -trace big.jsonl
//	mtmsim -topo regular -n 64 -seed 7 -trace - | mtmtrace summary -
//
// An output flag given "-" writes to stdout; the lines mtmsim prints itself
// (the outcome, -v and -curve) then go to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"mobiletel"
	"mobiletel/internal/atomicwrite"
	"mobiletel/internal/prof"
	"mobiletel/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mtmsim:", err)
		os.Exit(1)
	}
}

// run parses args, runs the simulation they describe and writes the
// recordings they name. The flags bind straight into the run's
// mobiletel.Options and its one mobiletel.FaultPlan.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mtmsim", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		opts   mobiletel.Options
		faults mobiletel.FaultPlan
	)
	topoName := fs.String("topo", "regular", "topology: "+mobiletel.TopologyNames)
	n := fs.Int("n", 128, "number of devices (interpreted per topology)")
	deg := fs.Int("deg", 8, "degree for -topo regular")
	algoName := fs.String("algo", "blindgossip", "leader election algorithm: blindgossip|bitconv|asyncbitconv")
	rumorName := fs.String("rumor", "", "run rumor spreading instead: pushpull|ppush")
	schedName := fs.String("schedule", "static", "schedule: "+mobiletel.ScheduleNames)
	tau := fs.Int("tau", 4, "stability factor for dynamic schedules")
	seed := fs.Uint64("seed", 1, "random seed (runs are deterministic per seed)")
	fs.IntVar(&opts.MaxRounds, "max-rounds", 10_000_000, "abort if not stabilized by this round")
	fs.BoolVar(&opts.Classical, "classical", false, "use classical telephone semantics (unbounded incoming connections; baseline, not the paper's model)")
	fs.IntVar(&opts.Workers, "workers", 0, "engine worker count (0 = GOMAXPROCS, 1 = sequential; results and traces are identical across counts)")
	fs.BoolVar(&opts.Check, "check", false, "audit every round against the engine's safety invariants (debugging aid; panics on violation)")
	spread := fs.Int("activation-spread", 0, "stagger activations uniformly over this many rounds (asyncbitconv)")

	fs.Float64Var(&faults.CrashRate, "crash-rate", 0, "per-round probability that each up device crashes")
	fs.Float64Var(&faults.RecoverRate, "recover-rate", 0, "per-round probability that each down device recovers")
	fs.IntVar(&faults.MaxDown, "max-down", 0, "cap on simultaneously crashed devices (0 = no cap: all n may be down)")
	fs.BoolVar(&faults.ResetOnRecover, "reset-on-recover", true, "recovering devices restart from their initial protocol state")
	fs.Float64Var(&faults.ProposalLoss, "proposal-loss", 0, "probability that a sent proposal is dropped")
	fs.Float64Var(&faults.ConnLoss, "conn-loss", 0, "probability that an accepted connection fails before transfer")
	fs.Float64Var(&faults.TagFlipRate, "tagflip-rate", 0, "probability that an advertised tag has one bit flipped")
	fs.Uint64Var(&faults.Seed, "fault-seed", 0, "fault plan seed (0 = derive from -seed)")
	fs.Func("partition", "schedule a network partition as start:heal:parts (heal 0 = never; repeatable via commas)", func(s string) (err error) {
		faults.Partitions, err = mobiletel.ParsePartitions(s)
		return err
	})

	traceFile := fs.String("trace", "", "write a structured JSONL event trace (mtmtrace/v1) to this file ('-' = stdout)")
	fs.IntVar(&opts.TraceSample, "sample", 0, "keep only trace events of rounds where round%N == 0 (0 = all rounds)")
	fs.Func("types", "comma-separated trace event-type whitelist (e.g. connect,transition)", func(s string) error {
		if s != "" {
			opts.TraceTypes = strings.Split(s, ",")
		}
		return nil
	})
	metricsFile := fs.String("metrics", "", "write a JSON run-metrics summary (mtmtrace-metrics/v1) to this file ('-' = stdout)")
	phaseProf := fs.String("phase-prof", "", "write a JSON phase-timing report (mtmprof/v1) to this file ('-' = stdout)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	verbose := fs.Bool("v", false, "print topology metadata before running")
	curve := fs.Bool("curve", false, "print a sparkline of connections per round")
	_ = fs.Parse(args) // ExitOnError: a bad flag prints usage and exits 2, -h exits 0

	if *cpuprofile != "" {
		stop, err := prof.StartCPU(*cpuprofile)
		if err != nil {
			return err
		}
		defer func() {
			if err := stop(); err != nil {
				_, _ = fmt.Fprintln(stderr, "mtmsim:", err) // diagnostic only
			}
		}()
	}

	topo, err := mobiletel.BuildTopology(*topoName, *n, *deg, *seed)
	if err != nil {
		return err
	}
	sched, err := mobiletel.BuildSchedule(*schedName, topo, *tau, *seed+1)
	if err != nil {
		return err
	}
	opts.Seed = *seed + 2
	// A fault plan rides along only when some fault is set, so a fault-free
	// run stays on the engine's fault-free path.
	if faults.CrashRate != 0 || faults.RecoverRate != 0 || faults.ProposalLoss != 0 ||
		faults.ConnLoss != 0 || faults.TagFlipRate != 0 || len(faults.Partitions) > 0 {
		if faults.Seed == 0 {
			faults.Seed = *seed + 3
		}
		opts.Faults = &faults
	}

	report := stdout // where mtmsim's own lines go
	var outFiles []*atomicwrite.File
	for _, out := range []struct {
		path string
		dst  *io.Writer
	}{
		{*traceFile, &opts.TraceTo},
		{*metricsFile, &opts.MetricsTo},
		{*phaseProf, &opts.PhaseProfTo},
	} {
		switch out.path {
		case "":
		case "-":
			*out.dst, report = stdout, stderr
		default:
			f, err := atomicwrite.Create(out.path)
			if err != nil {
				return err
			}
			// Aborts the write unless committed after a clean run; an
			// abort-path close error cannot lose published data.
			defer func() { _ = f.Close() }()
			outFiles = append(outFiles, f)
			*out.dst = f
		}
	}
	if *verbose {
		tauText := "inf" // a static schedule's τ is math.MaxInt
		if t := sched.Tau(); t != math.MaxInt {
			tauText = strconv.Itoa(t)
		}
		if _, err := fmt.Fprintf(report, "topology: %s n=%d Δ=%d α=%.4g (exact=%v)\nschedule: %s τ=%s\n",
			topo.Name(), topo.N(), topo.MaxDegree(), topo.Alpha(), topo.AlphaExact(), sched.Name(), tauText); err != nil {
			return err
		}
	}
	var connCurve []int
	if *curve {
		opts.OnRound = func(_, connections int) { connCurve = append(connCurve, connections) }
	}
	if *spread > 0 {
		acts := make([]int, topo.N())
		for i := range acts {
			acts[i] = 1 + (i*2654435761)%*spread
		}
		opts.Activations = acts
	}

	outcome, err := simulate(*rumorName, *algoName, topo.N(), sched, opts)
	if err != nil {
		return err
	}
	// Publish the recordings atomically only once the run has succeeded; a
	// failed run leaves previous files (if any) intact.
	for _, f := range outFiles {
		if err := f.Commit(); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(report, outcome); err != nil {
		return err
	}
	if *curve && len(connCurve) > 0 {
		_, err = fmt.Fprintf(report, "connections/round: %s\n", trace.Sparkline(trace.Downsample(connCurve, 80)))
	}
	return err
}

// simulate runs rumor spreading from device 0 when rumorName is set, a
// leader election by algoName otherwise, and returns the one-line outcome.
// n is the number of devices.
func simulate(rumorName, algoName string, n int, sched mobiletel.Schedule, opts mobiletel.Options) (string, error) {
	if rumorName != "" {
		strategy := mobiletel.PushPull
		switch rumorName {
		case "pushpull":
		case "ppush":
			strategy = mobiletel.PPush
		default:
			return "", fmt.Errorf("unknown rumor strategy %q", rumorName)
		}
		res, err := mobiletel.SpreadRumor(sched, strategy, []int{0}, opts)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("rumor %s: informed all %d devices in %d rounds (%d connections)",
			strategy, n, res.Rounds, res.Connections), nil
	}
	algo, err := mobiletel.ParseAlgorithm(algoName)
	if err != nil {
		return "", err
	}
	res, err := mobiletel.ElectLeader(sched, algo, opts)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("leader election %s: stabilized to leader %#x in %d rounds (%d connections)",
		algo, res.Leader, res.Rounds, res.Connections), nil
}
