// Command mtmtrace inspects, summarizes, and diffs structured event traces
// (schema mtmtrace/v1) of mobile telephone model executions. It only reads:
// cmd/mtmsim runs a simulation and records its trace (-trace FILE).
//
// Subcommands:
//
//	summary  aggregate a trace into run metrics
//	events   print (filtered) events from a trace
//	diff     compare two traces and report the first divergence
//	prof     render a phase-timing report (schema mtmprof/v1)
//
// Examples:
//
//	mtmsim -topo regular -n 64 -algo blindgossip -seed 7 -trace run.jsonl
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
	"fmt"
	"io"
	"os"
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
  summary  aggregate a trace into run metrics (text or -json)
  events   print events from a trace, with type/kind/node/round filters
  diff     compare two traces; exit 1 naming the first divergent event
  prof     render an mtmprof/v1 phase-timing report as a table

run 'mtmtrace <subcommand> -h' for flags; mtmsim -trace FILE records a trace.
`)
}

// openIn resolves an input path: "-" is stdin.
func openIn(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}
