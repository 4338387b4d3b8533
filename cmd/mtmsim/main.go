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

	"mobiletel/cmd/internal/simflags"
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
	var shared simflags.Flags
	shared.Register(flag.CommandLine)
	var (
		spread       = flag.Int("activation-spread", 0, "stagger activations uniformly over this many rounds (asyncbitconv)")
		verbose      = flag.Bool("v", false, "print topology metadata before running")
		curve        = flag.Bool("curve", false, "print a sparkline of connections per round")
		traceFile    = flag.String("trace", "", "write a structured JSONL event trace (mtmtrace/v1) to this file")
		metricsFile  = flag.String("metrics", "", "write a JSON run-metrics summary (mtmtrace-metrics/v1) to this file")
		phaseProf    = flag.String("phase-prof", "", "write a JSON phase-timing report (mtmprof/v1) to this file")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		resetRecover = flag.Bool("reset-on-recover", true, "recovering devices restart from their initial protocol state")
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

	topo, sched, opts, err := shared.Build(*resetRecover)
	if err != nil {
		return err
	}
	if *verbose {
		fmt.Printf("topology: %s n=%d Δ=%d α=%.4g (exact=%v)\n",
			topo.Name(), topo.N(), topo.MaxDegree(), topo.Alpha(), topo.AlphaExact())
		fmt.Printf("schedule: %s τ=%v\n", sched.Name(), sched.Tau())
	}
	opts.Check = *check

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

	outcome, err := shared.Run(topo.N(), sched, opts)
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
	fmt.Println(outcome)
	if *curve && len(connCurve) > 0 {
		fmt.Printf("connections/round: %s\n", trace.Sparkline(trace.Downsample(connCurve, 80)))
	}
	return nil
}
