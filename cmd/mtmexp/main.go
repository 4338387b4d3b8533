// Command mtmexp regenerates the reproduction experiments: every theorem
// and construction in the paper has a registered experiment that prints a
// table (see DESIGN.md §4 and EXPERIMENTS.md).
//
// Examples:
//
//	mtmexp -list
//	mtmexp -run E1-blindgossip-scaling
//	mtmexp -run all -quick
//	mtmexp -run E4-lemma-v1-gamma -csv > e4.csv
//	mtmexp -run E1-blindgossip-scaling -cpuprofile cpu.out
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"mobiletel"
	"mobiletel/internal/atomicwrite"
	"mobiletel/internal/prof"
)

// defaultCheckpointDir is where -resume looks for checkpoints when
// -checkpoint does not name a directory explicitly.
const defaultCheckpointDir = ".mtmexp-checkpoint"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mtmexp:", err)
		if errors.Is(err, mobiletel.ErrInterrupted) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func run() error {
	var (
		list       = flag.Bool("list", false, "list registered experiments and exit")
		runID      = flag.String("run", "", "experiment ID to run, or 'all'")
		seed       = flag.Uint64("seed", 20170529, "random seed")
		trials     = flag.Int("trials", 0, "trials per data point (0 = experiment default)")
		quick      = flag.Bool("quick", false, "reduced problem sizes")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned text")
		outDir     = flag.String("out", "", "also write each experiment's CSV into this directory")
		progress   = flag.Bool("progress", false, "report live trial progress (completed/total, elapsed, ETA) to stderr")
		traceDir   = flag.String("trace", "", "write each experiment's first-trial JSONL event trace (mtmtrace/v1) into this directory")
		metricsDir = flag.String("metrics", "", "write each experiment's first-trial JSON metrics summary into this directory")
		profDir    = flag.String("phase-prof", "", "write each experiment's first-trial JSON phase-timing report (mtmprof/v1) into this directory; with -progress, progress lines show the hottest phases")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		checkpoint = flag.String("checkpoint", "", "checkpoint completed trials into this directory; reruns with the same seed/trials/quick resume from them")
		resume     = flag.Bool("resume", false, "resume from checkpoints (shorthand for -checkpoint "+defaultCheckpointDir+" when -checkpoint is unset)")
		dieAfter   = flag.Int("die-after", 0, "kill the process (exit 3) after N newly checkpointed trials; testing hook for -resume")
	)
	flag.Parse()

	if *resume && *checkpoint == "" {
		*checkpoint = defaultCheckpointDir
	}
	if *dieAfter > 0 && *checkpoint == "" {
		return errors.New("-die-after requires -checkpoint (or -resume)")
	}

	if *list || *runID == "" {
		fmt.Println("Registered experiments (run with -run <ID> or -run all):")
		for _, info := range mobiletel.Experiments() {
			fmt.Printf("\n  %s\n      %s\n", info.ID, info.Claim)
		}
		return nil
	}

	if *cpuprofile != "" {
		stop, err := prof.StartCPU(*cpuprofile)
		if err != nil {
			return err
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "mtmexp:", err)
			}
		}()
	}

	opts := mobiletel.ExperimentOptions{
		Seed: *seed, Trials: *trials, Quick: *quick,
		CheckpointDir: *checkpoint, DieAfter: *dieAfter,
	}
	if *csv {
		opts.CSVTo = os.Stdout
	}
	if *progress {
		opts.Progress = os.Stderr
	}

	// First ^C drains gracefully: in-flight trials finish (and checkpoint),
	// then the sweep aborts with ErrInterrupted. A second ^C kills the
	// process immediately.
	interrupt := make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "mtmexp: interrupt — draining in-flight trials (^C again to kill immediately)")
		close(interrupt)
		<-sigs
		os.Exit(130)
	}()
	opts.Interrupt = interrupt

	ids := []string{*runID}
	if *runID == "all" {
		ids = ids[:0]
		for _, info := range mobiletel.Experiments() {
			ids = append(ids, info.ID)
		}
	}

	for _, dir := range []string{*outDir, *traceDir, *metricsDir, *profDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
	}

	failed := 0
	for _, id := range ids {
		runOpts := opts
		var sinkFiles []*atomicwrite.File
		for _, sink := range []struct {
			dir    string
			suffix string
			dst    *io.Writer
		}{
			{*outDir, ".csv", &runOpts.CSVTo},
			{*traceDir, ".trace.jsonl", &runOpts.TraceTo},
			{*metricsDir, ".metrics.json", &runOpts.MetricsTo},
			{*profDir, ".prof.json", &runOpts.PhaseProfTo},
		} {
			if sink.dir == "" {
				continue
			}
			f, err := atomicwrite.Create(filepath.Join(sink.dir, id+sink.suffix))
			if err != nil {
				return err
			}
			sinkFiles = append(sinkFiles, f)
			if *sink.dst != nil {
				*sink.dst = io.MultiWriter(*sink.dst, f) // -csv with -out
			} else {
				*sink.dst = f
			}
		}
		start := time.Now()
		out, err := mobiletel.RunExperiment(id, runOpts)
		elapsed := time.Since(start).Seconds()
		// Sink files publish atomically on success; a failed experiment
		// aborts them so no torn CSV, trace or metrics file is left behind.
		for _, f := range sinkFiles {
			op, ferr := "committing", error(nil)
			if err != nil {
				op, ferr = "closing", f.Close()
			} else {
				ferr = f.Commit()
			}
			if ferr != nil {
				fmt.Fprintf(os.Stderr, "mtmexp: %s %s: %v\n", op, f.Name(), ferr)
				failed++
			}
		}
		if errors.Is(err, mobiletel.ErrInterrupted) {
			fmt.Fprintf(os.Stderr, "mtmexp: %s interrupted; %s\n", id, resumeHint(*checkpoint))
			return err
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mtmexp: %s failed: %v\n", id, err)
			failed++
			continue
		}
		if !*csv {
			fmt.Print(out)
			fmt.Printf("(%s in %.1fs)\n\n", id, elapsed)
		}
	}

	if *memprofile != "" {
		if err := prof.WriteHeap(*memprofile); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed", failed)
	}
	return nil
}

// resumeHint tells the user of an interrupted run how to go on: rerun with
// the checkpoint directory the run used (-resume would read the default
// one, whatever -checkpoint said), or make the next run resumable.
func resumeHint(checkpoint string) string {
	if checkpoint == "" {
		return "rerun with -checkpoint DIR (or -resume) to make sweeps resumable"
	}
	return "completed trials are checkpointed — rerun with -checkpoint " + checkpoint + " to continue"
}
