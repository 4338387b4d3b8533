package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"

	"mobiletel/internal/obs"
	"mobiletel/internal/trace"
)

func cmdSummary(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mtmtrace summary", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit the summary as JSON (schema mtmtrace-metrics/v1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("summary needs exactly one trace file ('-' = stdin)")
	}
	in, err := openIn(fs.Arg(0))
	if err != nil {
		return err
	}
	// Inputs are read-only; a close error cannot lose data.
	defer func() { _ = in.Close() }()

	summary, err := replay(in)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(&summary)
	}
	return writeSummaryText(stdout, summary)
}

// maxSummaryN bounds the device count of a trace summary reads: the
// metrics fold allocates its per-device load ledger up front, 8 bytes a
// device, so a header naming 2^31-1 devices would ask for 16 GiB. The
// largest workload the engine runs has 2^20 devices.
const maxSummaryN = 1 << 24

// replay folds a JSONL trace into its metrics summary.
func replay(in io.Reader) (obs.Summary, error) {
	r, err := obs.NewReader(in)
	if err != nil {
		return obs.Summary{}, err
	}
	if n := r.Header().N; n > maxSummaryN {
		return obs.Summary{}, fmt.Errorf("summary: trace header (line 1): n = %d exceeds %d devices", n, maxSummaryN)
	}
	m := obs.NewMetrics()
	m.Begin(r.Header())
	for {
		e, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return obs.Summary{}, err
		}
		m.Event(e)
	}
	m.End()
	return m.Summary(), nil
}

// writeSummaryText renders a summary as an aligned table plus sparkline
// convergence curves.
func writeSummaryText(w io.Writer, s obs.Summary) error {
	title := fmt.Sprintf("trace summary: seed=%d schedule=%s n=%d", s.Seed, s.Schedule, s.N)
	t := trace.NewTable(title, "metric", "value")
	t.AddRow("rounds", s.Rounds)
	t.AddRow("convergence round", s.ConvergenceRound)
	t.AddRow("proposals", s.Proposals)
	t.AddRow("accepts", s.Accepts)
	t.AddRow("rejects (contention)", s.Rejects)
	t.AddRow("lost (busy target)", s.Lost)
	if s.FaultLost > 0 {
		t.AddRow("lost (injected faults)", s.FaultLost)
	}
	t.AddRow("connections", s.Connections)
	t.AddRow("acceptance rate", s.AcceptanceRate)
	t.AddRow("mean matching", s.MeanMatching)
	t.AddRow("max matching", s.MaxMatching)
	if s.GammaBound > 0 {
		t.AddRow("gamma bound (exact)", s.GammaBound)
		t.AddRow("matching vs gamma*n/2", s.MatchingVsBound)
	}
	t.AddRow("load min/mean/max", fmt.Sprintf("%d / %.2f / %d", s.Load.Min, s.Load.Mean, s.Load.Max))
	t.AddRow("load imbalance", s.Load.Imbalance)
	for _, kv := range sortedTransitions(s.Transitions) {
		t.AddRow("transitions: "+kv.name, kv.count)
	}
	for _, kv := range sortedTransitions(s.Faults) {
		t.AddRow("faults: "+kv.name, kv.count)
	}
	if s.LastFaultRound > 0 {
		t.AddRow("last fault round", s.LastFaultRound)
		t.AddRow("recovery rounds", s.RecoveryRounds)
	}
	if err := t.WriteText(w); err != nil {
		return err
	}
	if len(s.ConnectionsCurve) > 0 {
		_, err := fmt.Fprintf(w, "\nconnections/round: %s\nacceptance %%:      %s\nimbalance:         %s\n",
			trace.Sparkline(s.ConnectionsCurve),
			trace.Sparkline(percent(s.AcceptanceCurve)),
			trace.Sparkline(percent(s.ImbalanceCurve)))
		return err
	}
	return nil
}

// percent scales a float curve to integer percent for sparkline rendering.
func percent(values []float64) []int {
	out := make([]int, len(values))
	for i, v := range values {
		out[i] = int(v * 100)
	}
	return out
}

// kindCount is one transition-count row, ordered by name for stable output.
type kindCount struct {
	name  string
	count int64
}

func sortedTransitions(m map[string]int64) []kindCount {
	out := make([]kindCount, 0, len(m))
	for name, count := range m {
		out = append(out, kindCount{name, count})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].name < out[j-1].name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// maxTail bounds events -tail: the ring that holds the last N matches is
// allocated up front, 40 bytes an event.
const maxTail = 1 << 24

func cmdEvents(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mtmtrace events", flag.ContinueOnError)
	typeName := fs.String("type", "", "only events of this type (round_start|round_end|propose|reject|accept|connect|deliver|transition)")
	kindName := fs.String("kind", "", "only events of this kind (leader|bit|phase|position|informed|busy|contention)")
	node := fs.Int("node", -1, "only events whose node or peer is this device (-1 = any)")
	from := fs.Int("from", 0, "only rounds >= this")
	to := fs.Int("to", 0, "only rounds <= this (0 = unbounded)")
	tail := fs.Int("tail", 0, fmt.Sprintf("print only the last N matching events (N <= %d)", maxTail))
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tail > maxTail {
		return fmt.Errorf("-tail %d exceeds %d events", *tail, maxTail)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("events needs exactly one trace file ('-' = stdin)")
	}

	var wantType obs.Type
	if *typeName != "" {
		t, err := obs.ParseType(*typeName)
		if err != nil {
			return err
		}
		wantType = t
	}
	var wantKind obs.Kind
	if *kindName != "" {
		k, err := obs.ParseKind(*kindName)
		if err != nil {
			return err
		}
		wantKind = k
	}

	in, err := openIn(fs.Arg(0))
	if err != nil {
		return err
	}
	defer func() { _ = in.Close() }()
	r, err := obs.NewReader(in)
	if err != nil {
		return err
	}

	match := func(e obs.Event) bool {
		if wantType != obs.TypeNone && e.Type != wantType {
			return false
		}
		if wantKind != obs.KindNone && e.Kind != wantKind {
			return false
		}
		if *node >= 0 && e.Node != int32(*node) && e.Peer != int32(*node) {
			return false
		}
		if e.Round < *from {
			return false
		}
		if *to > 0 && e.Round > *to {
			return false
		}
		return true
	}

	// With -tail, buffer the last N matches in a ring; otherwise stream.
	var ring *obs.Ring
	if *tail > 0 {
		ring = obs.NewRing(*tail)
	}
	for {
		e, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if !match(e) {
			continue
		}
		if ring != nil {
			ring.Event(e)
			continue
		}
		if _, err := fmt.Fprintln(stdout, e); err != nil {
			return err
		}
	}
	if ring != nil {
		for _, e := range ring.Events() {
			if _, err := fmt.Fprintln(stdout, e); err != nil {
				return err
			}
		}
	}
	return nil
}

func cmdDiff(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("mtmtrace diff", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if fs.NArg() != 2 {
		return 2, fmt.Errorf("diff needs exactly two trace files")
	}
	fa, err := openIn(fs.Arg(0))
	if err != nil {
		return 2, err
	}
	defer func() { _ = fa.Close() }()
	fb, err := openIn(fs.Arg(1))
	if err != nil {
		return 2, err
	}
	defer func() { _ = fb.Close() }()

	divergent, err := diffTraces(fa, fb, fs.Arg(0), fs.Arg(1), stdout)
	if err != nil {
		return 2, err
	}
	if divergent {
		return 1, nil
	}
	return 0, nil
}

// diffTraces streams two traces side by side and reports the first
// divergence: a header mismatch, the first unequal event (by index), or one
// trace ending before the other. Events are flat value types, so equality
// is exact ==. Returns whether the traces diverge.
func diffTraces(a, b io.Reader, nameA, nameB string, w io.Writer) (bool, error) {
	ra, err := obs.NewReader(a)
	if err != nil {
		return false, fmt.Errorf("%s: %w", nameA, err)
	}
	rb, err := obs.NewReader(b)
	if err != nil {
		return false, fmt.Errorf("%s: %w", nameB, err)
	}

	divergent := false
	if ha, hb := ra.Header(), rb.Header(); ha != hb {
		divergent = true
		if _, err := fmt.Fprintf(w, "headers differ:\n  %s: %+v\n  %s: %+v\n", nameA, ha, nameB, hb); err != nil {
			return true, err
		}
	}

	for i := 0; ; i++ {
		ea, errA := ra.Next()
		eb, errB := rb.Next()
		switch {
		case errA == io.EOF && errB == io.EOF:
			if !divergent {
				_, err := fmt.Fprintf(w, "traces identical (%d events)\n", i)
				return false, err
			}
			return true, nil
		case errA == io.EOF:
			_, err := fmt.Fprintf(w, "first divergence at event %d: %s ended, %s continues (round %d):\n  %s: %s\n",
				i, nameA, nameB, eb.Round, nameB, eb)
			return true, err
		case errB == io.EOF:
			_, err := fmt.Fprintf(w, "first divergence at event %d: %s ended, %s continues (round %d):\n  %s: %s\n",
				i, nameB, nameA, ea.Round, nameA, ea)
			return true, err
		case errA != nil:
			return true, fmt.Errorf("%s: %w", nameA, errA)
		case errB != nil:
			return true, fmt.Errorf("%s: %w", nameB, errB)
		case ea != eb:
			_, err := fmt.Fprintf(w, "first divergence at event %d (round %d):\n  %s: %s\n  %s: %s\n",
				i, ea.Round, nameA, ea, nameB, eb)
			return true, err
		}
	}
}
