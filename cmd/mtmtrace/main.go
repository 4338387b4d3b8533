// Command mtmtrace records, inspects, summarizes, and diffs structured
// event traces (schema mtmtrace/v1) of mobile telephone model executions.
//
// Subcommands:
//
//	record   run a simulation and write its event trace
//	summary  aggregate a trace into run metrics
//	events   print (filtered) events from a trace
//	diff     compare two traces and report the first divergence
//	prof     render a phase-timing report (schema mtmprof/v1)
//
// Examples:
//
//	mtmtrace record -topo regular -n 64 -algo blindgossip -seed 7 -o run.jsonl
//	mtmtrace record -topo expander -n 65536 -workers 8 -sample 4 -types connect,transition -o big.jsonl
//	mtmtrace summary run.jsonl
//	mtmtrace events -type transition -kind leader run.jsonl
//	mtmtrace diff run.jsonl other.jsonl
//	mtmtrace prof run.prof.json
//
// diff exits 0 when the traces are identical and 1 when they diverge,
// naming the first divergent round and event — because executions are
// deterministic in (seed, schedule, protocol, config), any divergence
// between two same-configuration traces is a reproducibility bug.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mobiletel/cmd/internal/simflags"
	"mobiletel/internal/atomicwrite"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtmtrace:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// run dispatches the subcommand; the returned code is the process exit
// status (diff uses 1 for "traces diverge" without an error).
func run(args []string, stdout io.Writer) (int, error) {
	if len(args) == 0 {
		usage(stdout)
		return 2, nil
	}
	switch args[0] {
	case "record":
		return 0, cmdRecord(args[1:], stdout)
	case "summary":
		return 0, cmdSummary(args[1:], stdout)
	case "events":
		return 0, cmdEvents(args[1:], stdout)
	case "diff":
		return cmdDiff(args[1:], stdout)
	case "prof":
		return 0, cmdProf(args[1:], stdout)
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return 0, nil
	default:
		usage(stdout)
		return 2, fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage(w io.Writer) {
	// Help text is best effort; a failed write has no useful recovery.
	_, _ = fmt.Fprint(w, `usage: mtmtrace <subcommand> [flags]

subcommands:
  record   run a simulation and write its event trace (mtmtrace/v1 JSONL)
  summary  aggregate a trace into run metrics (text or -json)
  events   print events from a trace, with type/kind/node/round filters
  diff     compare two traces; exit 1 naming the first divergent event
  prof     render an mtmprof/v1 phase-timing report as a table

run 'mtmtrace <subcommand> -h' for flags.
`)
}

// recordConfig carries the record subcommand's parameters (separated from
// flag parsing so tests can record deterministic fixture traces directly):
// the simulation flags it shares with mtmsim, and its trace filters.
type recordConfig struct {
	simflags.Flags
	// Sample keeps only every Sample-th round's events (0/1 = all rounds);
	// Types, when non-empty, is a comma-separated type whitelist. Both are
	// deterministic filters: two runs with the same filters agree exactly.
	Sample int
	Types  string
}

// recordTrace runs one simulation per cfg and streams its trace to traceTo
// (and, when non-nil, its metrics summary to metricsTo). Recovering devices
// always restart from their initial protocol state.
func recordTrace(cfg recordConfig, traceTo, metricsTo io.Writer) error {
	topo, sched, opts, err := cfg.Build(true)
	if err != nil {
		return err
	}
	opts.TraceTo, opts.MetricsTo, opts.TraceSample = traceTo, metricsTo, cfg.Sample
	if cfg.Types != "" {
		opts.TraceTypes = strings.Split(cfg.Types, ",")
	}
	_, err = cfg.Run(topo.N(), sched, opts)
	return err
}

func cmdRecord(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mtmtrace record", flag.ContinueOnError)
	var cfg recordConfig
	cfg.Register(fs)
	fs.IntVar(&cfg.Sample, "sample", 0, "keep only rounds where round%N == 0 (0 = all rounds)")
	fs.StringVar(&cfg.Types, "types", "", "comma-separated event-type whitelist (e.g. connect,transition)")
	out := fs.String("o", "-", "trace output file ('-' = stdout)")
	metricsOut := fs.String("metrics", "", "also write a JSON metrics summary to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	traceTo, traceFile, err := openOut(*out, stdout)
	if err != nil {
		return err
	}
	defer closeOut(traceFile) // aborts the write unless committed below
	var metricsTo io.Writer
	var metricsFile *atomicwrite.File
	if *metricsOut != "" {
		w, f, err := openOut(*metricsOut, stdout)
		if err != nil {
			return err
		}
		defer closeOut(f)
		metricsTo, metricsFile = w, f
	}
	if err := recordTrace(cfg, traceTo, metricsTo); err != nil {
		return err
	}
	// Publish atomically only after the run succeeded: an aborted or failed
	// record leaves the previous file (if any) intact rather than a torn one.
	for _, f := range []*atomicwrite.File{traceFile, metricsFile} {
		if f != nil {
			if err := f.Commit(); err != nil {
				return err
			}
		}
	}
	return nil
}

// openOut resolves an output path: "-" is stdout (nil file), anything else
// is an atomic writer that the caller must Commit on success; a deferred
// closeOut aborts it on failure.
func openOut(path string, stdout io.Writer) (io.Writer, *atomicwrite.File, error) {
	if path == "-" {
		return stdout, nil, nil
	}
	f, err := atomicwrite.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f, nil
}

// closeOut aborts an uncommitted atomic write (no-op after Commit or for
// stdout), reporting cleanup errors to stderr.
func closeOut(f *atomicwrite.File) {
	if f == nil {
		return
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "mtmtrace:", err)
	}
}

// openIn resolves an input path: "-" is stdin.
func openIn(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}
