package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mobiletel"
)

// goldenPath is the trace of
//
//	mtmsim -topo clique -n 8 -algo blindgossip -seed 42 -max-rounds 20000 -trace F
//
// which cmd/mtmsim's tests re-record byte for byte.
const goldenPath = "testdata/golden.trace.jsonl"

// recordClique8 records, through the facade, the golden run under opts:
// Seed 44 is the engine seed mtmsim -seed 42 passes, so it reproduces the
// fixture, and any other seed diverges from it.
func recordClique8(t *testing.T, opts mobiletel.Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	opts.MaxRounds, opts.TraceTo = 20_000, &buf
	if _, err := mobiletel.ElectLeader(mobiletel.Static(mobiletel.Clique(8)), mobiletel.BlindGossip, opts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDiffIdenticalTraces checks that the golden fixture and a same-seed
// recording compare equal (exit code 0 path).
func TestDiffIdenticalTraces(t *testing.T) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	divergent, err := diffTraces(bytes.NewReader(golden), bytes.NewReader(recordClique8(t, mobiletel.Options{Seed: 44})), "a", "b", &out)
	if err != nil {
		t.Fatal(err)
	}
	if divergent {
		t.Fatalf("same-seed traces reported divergent:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "traces identical") {
		t.Fatalf("missing identical report: %q", out.String())
	}
}

// TestDiffDivergentTraces checks that changing the seed reports the first
// divergent round and event (exit code 1 path).
func TestDiffDivergentTraces(t *testing.T) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	divergent, err := diffTraces(bytes.NewReader(golden), bytes.NewReader(recordClique8(t, mobiletel.Options{Seed: 45})), "a", "b", &out)
	if err != nil {
		t.Fatal(err)
	}
	if !divergent {
		t.Fatal("different-seed traces reported identical")
	}
	report := out.String()
	if !strings.Contains(report, "headers differ") {
		t.Errorf("missing header mismatch report: %q", report)
	}
	if !strings.Contains(report, "first divergence at event") || !strings.Contains(report, "round") {
		t.Errorf("divergence report does not name event and round: %q", report)
	}
}

// TestDiffExitCodes drives the full CLI path: identical files exit 0,
// divergent files exit 1.
func TestDiffExitCodes(t *testing.T) {
	dir := t.TempDir()
	same := filepath.Join(dir, "same.jsonl")
	if err := os.WriteFile(same, recordClique8(t, mobiletel.Options{Seed: 44}), 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	code, err := run([]string{"diff", goldenPath, same}, &out)
	if err != nil || code != 0 {
		t.Fatalf("identical diff: code %d, err %v\n%s", code, err, out.String())
	}

	diffFile := filepath.Join(dir, "other.jsonl")
	if err := os.WriteFile(diffFile, recordClique8(t, mobiletel.Options{Seed: 45}), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	code, err = run([]string{"diff", goldenPath, diffFile}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("divergent diff: code %d, want 1\n%s", code, out.String())
	}
}

// TestSummaryReplay checks that replaying the golden trace reproduces a
// self-consistent metrics summary.
func TestSummaryReplay(t *testing.T) {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := replay(f)
	if err != nil {
		t.Fatal(err)
	}
	if s.Schema != "mtmtrace-metrics/v1" {
		t.Errorf("schema = %q", s.Schema)
	}
	if s.N != 8 || s.Rounds < 1 {
		t.Errorf("n=%d rounds=%d", s.N, s.Rounds)
	}
	if s.Accepts+s.Rejects+s.Lost != s.Proposals {
		t.Errorf("accepts %d + rejects %d + lost %d != proposals %d",
			s.Accepts, s.Rejects, s.Lost, s.Proposals)
	}
	if s.Accepts != s.Connections {
		t.Errorf("accepts %d != connections %d in MTM mode", s.Accepts, s.Connections)
	}
	if s.Transitions["leader"] < 7 {
		t.Errorf("leader transitions = %d, want >= n-1 = 7", s.Transitions["leader"])
	}
	if s.ConvergenceRound < 1 || s.ConvergenceRound > s.Rounds {
		t.Errorf("convergence round %d outside [1, %d]", s.ConvergenceRound, s.Rounds)
	}
}

// TestEventsFilter checks type/kind filtering and -tail through the CLI.
func TestEventsFilter(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"events", "-type", "transition", "-kind", "leader", goldenPath}, &out)
	if err != nil || code != 0 {
		t.Fatalf("events: code %d, err %v", code, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 7 {
		t.Fatalf("got %d leader transitions, want >= 7", len(lines))
	}
	for _, line := range lines {
		if !strings.Contains(line, "transition") || !strings.Contains(line, "leader") {
			t.Errorf("unfiltered line: %q", line)
		}
	}

	// -tail keeps the last N matches: fewer than there are (the ring wraps,
	// once or more, leaving its cursor mid-buffer or at the start), exactly
	// as many, and more than there are.
	for _, n := range []int{2, 3, len(lines) - 1, len(lines), len(lines) + 5} {
		var tail bytes.Buffer
		code, err = run([]string{"events", "-type", "transition", "-kind", "leader", "-tail", strconv.Itoa(n), goldenPath}, &tail)
		if err != nil || code != 0 {
			t.Fatalf("events -tail %d: code %d, err %v", n, code, err)
		}
		want := strings.Join(lines[max(len(lines)-n, 0):], "\n")
		if got := strings.TrimSpace(tail.String()); got != want {
			t.Errorf("events -tail %d returned:\n%s\nwant the last %d of the full listing:\n%s", n, got, n, want)
		}
	}
	if _, err := run([]string{"events", "-tail", strconv.Itoa(maxTail + 1), goldenPath}, io.Discard); err == nil {
		t.Errorf("events -tail %d accepted", maxTail+1)
	}
}

// truncateGolden writes a copy of the golden fixture with its tail chopped
// mid-record (the torn tail a crashed writer without atomic renames would
// leave) and returns the path plus the 1-based line number of the damage.
func truncateGolden(t *testing.T) (string, int) {
	t.Helper()
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	torn := want[:len(want)-20]
	tornLine := bytes.Count(torn, []byte("\n")) + 1
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, tornLine
}

// TestSummaryTruncatedTrace checks that a trace cut off mid-record fails
// loudly with the line number of the damage instead of producing a silently
// partial summary.
func TestSummaryTruncatedTrace(t *testing.T) {
	path, tornLine := truncateGolden(t)
	var out bytes.Buffer
	_, err := run([]string{"summary", path}, &out)
	if err == nil {
		t.Fatalf("truncated trace summarized without error:\n%s", out.String())
	}
	want := fmt.Sprintf("line %d", tornLine)
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name %q", err, want)
	}
	if !strings.Contains(err.Error(), "corrupt or truncated") {
		t.Errorf("error %q does not say the trace is damaged", err)
	}
}

// TestSummaryCorruptLine checks that a garbage line in the middle of a trace
// is reported by its line number, not skipped.
func TestSummaryCorruptLine(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(want, []byte("\n"))
	if len(lines) < 10 {
		t.Fatalf("golden fixture too short: %d lines", len(lines))
	}
	lines[4] = []byte(`{"type":"propose","round":`) // torn mid-write
	path := filepath.Join(t.TempDir(), "corrupt.jsonl")
	if err := os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	_, err = run([]string{"summary", path}, &out)
	if err == nil || !strings.Contains(err.Error(), "line 5") {
		t.Fatalf("corrupt line 5 not reported: err=%v", err)
	}
}

// TestDiffTruncatedTrace checks that diffing against a damaged trace is an
// error (exit 2) naming the damaged file and line, distinct from the
// "traces diverge" exit 1.
func TestDiffTruncatedTrace(t *testing.T) {
	path, tornLine := truncateGolden(t)
	var out bytes.Buffer
	code, err := run([]string{"diff", goldenPath, path}, &out)
	if err == nil {
		t.Fatalf("diff against truncated trace succeeded (code %d):\n%s", code, out.String())
	}
	if code != 2 {
		t.Errorf("code = %d, want 2 (error, not divergence)", code)
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error %q does not name the damaged file %q", err, path)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("line %d", tornLine)) {
		t.Errorf("error %q does not name line %d", err, tornLine)
	}
}

// TestSummaryFaultRows checks that the summary of a faulted trace counts
// the injected faults and renders their rows.
func TestSummaryFaultRows(t *testing.T) {
	trace := recordClique8(t, mobiletel.Options{Seed: 44, Faults: &mobiletel.FaultPlan{Seed: 45, ProposalLoss: 0.2}})
	s, err := replay(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Faults) == 0 {
		t.Fatal("faulted run reported no fault events")
	}
	if s.LastFaultRound == 0 {
		t.Error("faulted run reported LastFaultRound = 0")
	}
	var sb strings.Builder
	if err := writeSummaryText(&sb, s); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"faults: ", "last fault round"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("summary text missing %q:\n%s", want, sb.String())
		}
	}
}

func TestUnknownSubcommand(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"bogus"}, &out)
	if code != 2 || err == nil {
		t.Fatalf("code %d, err %v", code, err)
	}
}
