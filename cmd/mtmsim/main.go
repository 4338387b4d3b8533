// Command mtmsim runs a single leader election or rumor spreading
// simulation in the mobile telephone model and reports the outcome.
//
// Examples:
//
//	mtmsim -topo clique -n 256 -algo blindgossip
//	mtmsim -topo lineofstars -n 110 -algo bitconv -schedule permuted -tau 4
//	mtmsim -topo regular -n 512 -deg 8 -rumor ppush
//	mtmsim -topo regular -n 512 -cpuprofile cpu.out
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mobiletel"
	"mobiletel/internal/atomicwrite"
	"mobiletel/internal/prof"
	"mobiletel/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mtmsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		topoName    = flag.String("topo", "regular", "topology: "+mobiletel.TopologyNames)
		n           = flag.Int("n", 128, "number of devices (interpreted per topology)")
		deg         = flag.Int("deg", 8, "degree for -topo regular")
		algoName    = flag.String("algo", "blindgossip", "leader election algorithm: blindgossip|bitconv|asyncbitconv")
		rumorName   = flag.String("rumor", "", "run rumor spreading instead: pushpull|ppush")
		schedName   = flag.String("schedule", "static", "schedule: "+mobiletel.ScheduleNames)
		tau         = flag.Int("tau", 4, "stability factor for dynamic schedules")
		seed        = flag.Uint64("seed", 1, "random seed (runs are deterministic per seed)")
		maxRounds   = flag.Int("max-rounds", 10_000_000, "abort if not stabilized by this round")
		spread      = flag.Int("activation-spread", 0, "stagger activations uniformly over this many rounds (asyncbitconv)")
		verbose     = flag.Bool("v", false, "print topology metadata before running")
		curve       = flag.Bool("curve", false, "print a sparkline of connections per round")
		traceFile   = flag.String("trace", "", "write a structured JSONL event trace (mtmtrace/v1) to this file")
		metricsFile = flag.String("metrics", "", "write a JSON run-metrics summary (mtmtrace-metrics/v1) to this file")
		phaseProf   = flag.String("phase-prof", "", "write a JSON phase-timing report (mtmprof/v1) to this file")
		workers     = flag.Int("workers", 0, "engine worker count (0 = sequential; results and traces are identical across counts)")
		classical   = flag.Bool("classical", false, "use classical telephone semantics (unbounded incoming connections; baseline, not the paper's model)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")

		crashRate    = flag.Float64("crash-rate", 0, "per-round probability that each up device crashes")
		recoverRate  = flag.Float64("recover-rate", 0, "per-round probability that each down device recovers")
		maxDown      = flag.Int("max-down", 0, "cap on simultaneously crashed devices (0 = n-1)")
		resetRecover = flag.Bool("reset-on-recover", true, "recovering devices restart from their initial protocol state")
		proposalLoss = flag.Float64("proposal-loss", 0, "probability that a sent proposal is dropped")
		connLoss     = flag.Float64("conn-loss", 0, "probability that an accepted connection fails before transfer")
		tagFlipRate  = flag.Float64("tagflip-rate", 0, "probability that an advertised tag has one bit flipped")
		faultSeed    = flag.Uint64("fault-seed", 0, "fault plan seed (0 = derive from -seed)")
		partition    = flag.String("partition", "", "schedule a network partition as start:heal:parts (heal 0 = never; repeatable via commas)")
		check        = flag.Bool("check", false, "audit every round against the engine's safety invariants (debugging aid; panics on violation)")
	)
	flag.Parse()

	if *cpuprofile != "" {
		stop, err := prof.StartCPU(*cpuprofile)
		if err != nil {
			return err
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "mtmsim:", err)
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

	if *verbose {
		fmt.Printf("topology: %s n=%d Δ=%d α=%.4g (exact=%v)\n",
			topo.Name(), topo.N(), topo.MaxDegree(), topo.Alpha(), topo.AlphaExact())
		fmt.Printf("schedule: %s τ=%v\n", sched.Name(), sched.Tau())
	}

	partitions, err := mobiletel.ParsePartitions(*partition)
	if err != nil {
		return err
	}
	opts := mobiletel.Options{Seed: *seed + 2, MaxRounds: *maxRounds, Classical: *classical, Workers: *workers, Check: *check}
	if *crashRate > 0 || *recoverRate > 0 || *proposalLoss > 0 || *connLoss > 0 || *tagFlipRate > 0 || len(partitions) > 0 {
		fseed := *faultSeed
		if fseed == 0 {
			fseed = *seed + 3
		}
		opts.Faults = &mobiletel.FaultPlan{
			Seed:           fseed,
			CrashRate:      *crashRate,
			RecoverRate:    *recoverRate,
			MaxDown:        *maxDown,
			ResetOnRecover: *resetRecover,
			ProposalLoss:   *proposalLoss,
			ConnLoss:       *connLoss,
			TagFlipRate:    *tagFlipRate,
			Partitions:     partitions,
		}
	}
	var outFiles []*atomicwrite.File
	for _, out := range []struct {
		path string
		dst  *io.Writer
	}{
		{*traceFile, &opts.TraceTo},
		{*metricsFile, &opts.MetricsTo},
		{*phaseProf, &opts.PhaseProfTo},
	} {
		if out.path == "" {
			continue
		}
		f, err := atomicwrite.Create(out.path)
		if err != nil {
			return err
		}
		// Aborts the write unless committed after a clean run; an abort-path
		// close error cannot lose published data.
		defer func() { _ = f.Close() }()
		outFiles = append(outFiles, f)
		*out.dst = f
	}
	// commitOutputs atomically publishes the recordings once the run has
	// succeeded; a failed run leaves previous files (if any) intact.
	commitOutputs := func() error {
		for _, f := range outFiles {
			if err := f.Commit(); err != nil {
				return err
			}
		}
		return nil
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

	if *rumorName != "" {
		strategy := mobiletel.PushPull
		switch *rumorName {
		case "pushpull":
		case "ppush":
			strategy = mobiletel.PPush
		default:
			return fmt.Errorf("unknown rumor strategy %q", *rumorName)
		}
		res, err := mobiletel.SpreadRumor(sched, strategy, []int{0}, opts)
		if err != nil {
			return err
		}
		if err := commitOutputs(); err != nil {
			return err
		}
		fmt.Printf("rumor %s: informed all %d devices in %d rounds (%d connections)\n",
			strategy, topo.N(), res.Rounds, res.Connections)
		printCurve(*curve, connCurve)
		return nil
	}

	algo, err := mobiletel.ParseAlgorithm(*algoName)
	if err != nil {
		return err
	}
	res, err := mobiletel.ElectLeader(sched, algo, opts)
	if err != nil {
		return err
	}
	if err := commitOutputs(); err != nil {
		return err
	}
	fmt.Printf("leader election %s: stabilized to leader %#x in %d rounds (%d connections)\n",
		algo, res.Leader, res.Rounds, res.Connections)
	printCurve(*curve, connCurve)
	return nil
}

// printCurve renders the per-round connection counts as a sparkline.
func printCurve(enabled bool, connCurve []int) {
	if !enabled || len(connCurve) == 0 {
		return
	}
	fmt.Printf("connections/round: %s\n", trace.Sparkline(trace.Downsample(connCurve, 80)))
}
