package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobiletel/cmd/internal/simflags"
)

// goldenConfig must match the invocation that generated
// testdata/golden.trace.jsonl:
//
//	mtmtrace record -topo clique -n 8 -algo blindgossip -seed 42
//
// MaxRounds is not part of the trace header, so it is capped far below the
// CLI default: a test built on this config that cannot stabilize fails
// fast with ErrNotStabilized instead of buffering millions of rounds.
var goldenConfig = recordConfig{Flags: simflags.Flags{
	Topo:      "clique",
	N:         8,
	Deg:       8,
	Algo:      "blindgossip",
	Schedule:  "static",
	Tau:       4,
	Seed:      42,
	MaxRounds: 20_000,
}}

const goldenPath = "testdata/golden.trace.jsonl"

// TestGoldenTraceSchemaStable pins the JSONL wire format: re-recording the
// golden configuration must reproduce the committed fixture byte for byte.
// If this fails because the schema intentionally changed, bump obs.Schema
// and regenerate the fixture (see goldenConfig above); if it fails without
// a schema change, determinism or the wire encoding regressed.
func TestGoldenTraceSchemaStable(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := recordTrace(goldenConfig, &got, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gotLines := strings.Split(got.String(), "\n")
		wantLines := strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("trace deviates from golden fixture at line %d:\n got: %s\nwant: %s",
					i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("trace length differs from golden fixture: got %d lines, want %d",
			len(gotLines), len(wantLines))
	}
}

// TestDiffIdenticalTraces checks that two same-seed recordings compare equal
// (exit code 0 path) and that changing the seed reports the first divergent
// round and event (exit code 1 path).
func TestDiffIdenticalTraces(t *testing.T) {
	var a, b bytes.Buffer
	if err := recordTrace(goldenConfig, &a, nil); err != nil {
		t.Fatal(err)
	}
	if err := recordTrace(goldenConfig, &b, nil); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	divergent, err := diffTraces(bytes.NewReader(a.Bytes()), bytes.NewReader(b.Bytes()), "a", "b", &out)
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

func TestDiffDivergentTraces(t *testing.T) {
	other := goldenConfig
	other.Seed = 43
	var a, b bytes.Buffer
	if err := recordTrace(goldenConfig, &a, nil); err != nil {
		t.Fatal(err)
	}
	if err := recordTrace(other, &b, nil); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	divergent, err := diffTraces(bytes.NewReader(a.Bytes()), bytes.NewReader(b.Bytes()), "a", "b", &out)
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
	var buf bytes.Buffer
	if err := recordTrace(goldenConfig, &buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(same, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	code, err := run([]string{"diff", goldenPath, same}, &out)
	if err != nil || code != 0 {
		t.Fatalf("identical diff: code %d, err %v\n%s", code, err, out.String())
	}

	other := goldenConfig
	other.Seed = 43
	buf.Reset()
	if err := recordTrace(other, &buf, nil); err != nil {
		t.Fatal(err)
	}
	diffFile := filepath.Join(dir, "other.jsonl")
	if err := os.WriteFile(diffFile, buf.Bytes(), 0o644); err != nil {
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

	var tail bytes.Buffer
	code, err = run([]string{"events", "-type", "transition", "-kind", "leader", "-tail", "2", goldenPath}, &tail)
	if err != nil || code != 0 {
		t.Fatalf("events -tail: code %d, err %v", code, err)
	}
	tailLines := strings.Split(strings.TrimSpace(tail.String()), "\n")
	if len(tailLines) != 2 {
		t.Fatalf("tail returned %d lines, want 2", len(tailLines))
	}
	if tailLines[0] != lines[len(lines)-2] || tailLines[1] != lines[len(lines)-1] {
		t.Errorf("tail returned wrong events:\n%v\nvs full tail:\n%v", tailLines, lines[len(lines)-2:])
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

// TestFaultedRecordDeterministic pins the fault path end to end: two
// recordings with the same fault plan are byte-identical, and their summary
// reports the injected-fault rows.
func TestFaultedRecordDeterministic(t *testing.T) {
	cfg := goldenConfig
	cfg.Topo, cfg.N, cfg.Algo = "regular", 24, "asyncbitconv"
	cfg.Deg = 6
	// Crash and recover rates apply to each device every round, and the
	// recorder resets a recovering device's state. The paper (Section VIII)
	// promises convergence only after faults cease, so under steady churn
	// "every up device agrees" is a race the protocol wins only between
	// crashes: at 0.05 (about 1.2 crashes a round) it took thousands to
	// hundreds of thousands of rounds, or did not happen within 400 000.
	// At 0.01 seeds 40-49 stabilize in 99-532 rounds, well inside the
	// 20 000-round cap.
	cfg.CrashRate, cfg.RecoverRate, cfg.MaxDown = 0.01, 0.3, 4
	cfg.ProposalLoss = 0.1
	var a, b bytes.Buffer
	if err := recordTrace(cfg, &a, nil); err != nil {
		t.Fatal(err)
	}
	if err := recordTrace(cfg, &b, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same-seed faulted recordings differ")
	}
	s, err := replay(bytes.NewReader(a.Bytes()))
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
