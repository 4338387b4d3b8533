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

	"mobiletel"
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
// flag parsing so tests can record deterministic fixture traces directly).
type recordConfig struct {
	Topo      string
	N         int
	Deg       int
	Algo      string
	Rumor     string
	Schedule  string
	Tau       int
	Seed      uint64
	MaxRounds int
	Classical bool
	// Workers is the engine worker count (0/1 = sequential). Traces are
	// byte-identical across worker counts, which is what diff pins in CI.
	Workers int
	// Sample keeps only every Sample-th round's events (0/1 = all rounds);
	// Types, when non-empty, is a comma-separated type whitelist. Both are
	// deterministic filters: two runs with the same filters agree exactly.
	Sample int
	Types  string

	// Fault-injection knobs (all zero = fault-free). Faulted traces are as
	// deterministic as clean ones: same seed, same fault events.
	CrashRate    float64
	RecoverRate  float64
	MaxDown      int
	ProposalLoss float64
	ConnLoss     float64
	TagFlipRate  float64
	FaultSeed    uint64
	Partitions   []mobiletel.FaultPartition
}

// faults converts the fault knobs into an Options.Faults plan, or nil when
// every knob is zero (keeping the fault-free fast path allocation-free).
func (cfg recordConfig) faults() *mobiletel.FaultPlan {
	if cfg.CrashRate == 0 && cfg.RecoverRate == 0 && cfg.ProposalLoss == 0 &&
		cfg.ConnLoss == 0 && cfg.TagFlipRate == 0 && len(cfg.Partitions) == 0 {
		return nil
	}
	fseed := cfg.FaultSeed
	if fseed == 0 {
		fseed = cfg.Seed + 3
	}
	return &mobiletel.FaultPlan{
		Seed:           fseed,
		CrashRate:      cfg.CrashRate,
		RecoverRate:    cfg.RecoverRate,
		MaxDown:        cfg.MaxDown,
		ResetOnRecover: true,
		ProposalLoss:   cfg.ProposalLoss,
		ConnLoss:       cfg.ConnLoss,
		TagFlipRate:    cfg.TagFlipRate,
		Partitions:     cfg.Partitions,
	}
}

// recordTrace runs one simulation per cfg and streams its trace to traceTo
// (and, when non-nil, its metrics summary to metricsTo).
func recordTrace(cfg recordConfig, traceTo, metricsTo io.Writer) error {
	topo, err := mobiletel.BuildTopology(cfg.Topo, cfg.N, cfg.Deg, cfg.Seed)
	if err != nil {
		return err
	}
	sched, err := mobiletel.BuildSchedule(cfg.Schedule, topo, cfg.Tau, cfg.Seed+1)
	if err != nil {
		return err
	}
	opts := mobiletel.Options{
		Seed:        cfg.Seed + 2,
		MaxRounds:   cfg.MaxRounds,
		Classical:   cfg.Classical,
		Workers:     cfg.Workers,
		TraceTo:     traceTo,
		MetricsTo:   metricsTo,
		TraceSample: cfg.Sample,
		Faults:      cfg.faults(),
	}
	if cfg.Types != "" {
		opts.TraceTypes = strings.Split(cfg.Types, ",")
	}
	if cfg.Rumor != "" {
		strategy := mobiletel.PushPull
		switch cfg.Rumor {
		case "pushpull":
		case "ppush":
			strategy = mobiletel.PPush
		default:
			return fmt.Errorf("unknown rumor strategy %q", cfg.Rumor)
		}
		_, err := mobiletel.SpreadRumor(sched, strategy, []int{0}, opts)
		return err
	}
	algo, err := mobiletel.ParseAlgorithm(cfg.Algo)
	if err != nil {
		return err
	}
	_, err = mobiletel.ElectLeader(sched, algo, opts)
	return err
}

func cmdRecord(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mtmtrace record", flag.ContinueOnError)
	var cfg recordConfig
	fs.StringVar(&cfg.Topo, "topo", "regular", "topology: "+mobiletel.TopologyNames)
	fs.IntVar(&cfg.N, "n", 128, "number of devices (interpreted per topology)")
	fs.IntVar(&cfg.Deg, "deg", 8, "degree for -topo regular")
	fs.StringVar(&cfg.Algo, "algo", "blindgossip", "leader election algorithm: blindgossip|bitconv|asyncbitconv")
	fs.StringVar(&cfg.Rumor, "rumor", "", "run rumor spreading instead: pushpull|ppush")
	fs.StringVar(&cfg.Schedule, "schedule", "static", "schedule: "+mobiletel.ScheduleNames)
	fs.IntVar(&cfg.Tau, "tau", 4, "stability factor for dynamic schedules")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "random seed (traces are deterministic per seed)")
	fs.IntVar(&cfg.MaxRounds, "max-rounds", 10_000_000, "abort if not stabilized by this round")
	fs.BoolVar(&cfg.Classical, "classical", false, "use classical telephone semantics")
	fs.IntVar(&cfg.Workers, "workers", 0, "engine worker count (0 = sequential; traces are identical across counts)")
	fs.IntVar(&cfg.Sample, "sample", 0, "keep only rounds where round%N == 0 (0 = all rounds)")
	fs.StringVar(&cfg.Types, "types", "", "comma-separated event-type whitelist (e.g. connect,transition)")
	fs.Float64Var(&cfg.CrashRate, "crash-rate", 0, "per-round probability that each up device crashes")
	fs.Float64Var(&cfg.RecoverRate, "recover-rate", 0, "per-round probability that each down device recovers")
	fs.IntVar(&cfg.MaxDown, "max-down", 0, "cap on simultaneously crashed devices (0 = n-1)")
	fs.Float64Var(&cfg.ProposalLoss, "proposal-loss", 0, "probability that a sent proposal is dropped")
	fs.Float64Var(&cfg.ConnLoss, "conn-loss", 0, "probability that an accepted connection fails before transfer")
	fs.Float64Var(&cfg.TagFlipRate, "tagflip-rate", 0, "probability that an advertised tag has one bit flipped")
	fs.Uint64Var(&cfg.FaultSeed, "fault-seed", 0, "fault plan seed (0 = derive from -seed)")
	partition := fs.String("partition", "", "schedule a network partition as start:heal:parts (heal 0 = never; repeatable via commas)")
	out := fs.String("o", "-", "trace output file ('-' = stdout)")
	metricsOut := fs.String("metrics", "", "also write a JSON metrics summary to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var err error
	if cfg.Partitions, err = mobiletel.ParsePartitions(*partition); err != nil {
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
