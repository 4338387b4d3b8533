package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mobiletel"
	"mobiletel/internal/obs"
)

// goldenPath is the trace mtmtrace's tests read; goldenArgs recorded it.
const goldenPath = "../mtmtrace/testdata/golden.trace.jsonl"

// goldenArgs are the flags behind goldenPath. -max-rounds is not part of
// the trace header, so it is capped far below the default: a test built on
// these flags that cannot stabilize fails fast with ErrNotStabilized
// instead of tracing millions of rounds.
var goldenArgs = []string{"-topo", "clique", "-n", "8", "-algo", "blindgossip", "-seed", "42", "-max-rounds", "20000"}

// mtmsim runs the command with args and returns what it printed.
func mtmsim(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("mtmsim %s: %v", strings.Join(args, " "), err)
	}
	return out.String(), errOut.String()
}

// record runs the command with args, tracing to a file, and returns the
// trace and the outcome it printed.
func record(t *testing.T, args ...string) (trace []byte, stdout string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	stdout, _ = mtmsim(t, slices.Concat(args, []string{"-trace", path})...)
	trace, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return trace, stdout
}

// TestGoldenTraceSchemaStable pins the JSONL wire format: re-recording the
// golden flags must reproduce the committed fixture byte for byte. If this
// fails because the schema intentionally changed, bump obs.Schema and
// regenerate the fixture with goldenArgs; if it fails without a schema
// change, determinism or the wire encoding regressed.
func TestGoldenTraceSchemaStable(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got, stdout := record(t, goldenArgs...)
	if !strings.HasPrefix(stdout, "leader election blindgossip: stabilized") {
		t.Errorf("stdout does not carry the outcome: %q", stdout)
	}
	if !bytes.Equal(got, want) {
		gotLines := strings.Split(string(got), "\n")
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

// TestTraceToStdout checks that -trace - puts the trace, and only the
// trace, on stdout, so it can be piped into mtmtrace; the outcome and the
// -v lines move to stderr.
func TestTraceToStdout(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr := mtmsim(t, slices.Concat(goldenArgs, []string{"-v", "-trace", "-"})...)
	if stdout != string(want) {
		t.Errorf("stdout is not the golden trace:\n%s", stdout)
	}
	for _, line := range []string{"topology: clique n=8", "schedule: static", "leader election blindgossip: stabilized"} {
		if !strings.Contains(stderr, line) {
			t.Errorf("stderr lacks %q:\n%s", line, stderr)
		}
	}
}

// TestVerboseTau checks -v's schedule line: a static schedule never
// changes, so its τ prints as inf, not as the sentinel math.MaxInt.
func TestVerboseTau(t *testing.T) {
	for _, c := range []struct {
		schedule, want string
	}{
		{"static", "τ=inf\n"},
		{"permuted", "τ=4\n"},
	} {
		stdout, _ := mtmsim(t, slices.Concat(goldenArgs, []string{"-v", "-schedule", c.schedule})...)
		if !strings.Contains(stdout, c.want) {
			t.Errorf("-schedule %s -v printed %q, want it to contain %q", c.schedule, stdout, c.want)
		}
	}
}

// TestTraceSampledAndFiltered pins the big-trace knobs: -sample keeps
// exactly the rounds divisible by N, -types keeps exactly the listed event
// types, and both filters are deterministic (two filtered recordings are
// byte-identical).
func TestTraceSampledAndFiltered(t *testing.T) {
	args := slices.Concat(goldenArgs, []string{"-sample", "2", "-types", "connect,transition"})
	a, _ := record(t, args...)
	b, _ := record(t, args...)
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed filtered recordings differ")
	}
	for i, line := range strings.Split(strings.TrimSpace(string(a)), "\n") {
		if i == 0 {
			continue // header
		}
		if !strings.Contains(line, `"t":"connect"`) && !strings.Contains(line, `"t":"transition"`) {
			t.Fatalf("filtered trace leaked a foreign event type: %s", line)
		}
		var r int
		if _, err := fmt.Sscanf(line[strings.Index(line, `"r":`):], `"r":%d`, &r); err != nil {
			t.Fatalf("cannot read round from %s: %v", line, err)
		}
		if r%2 != 0 {
			t.Fatalf("sampled trace leaked odd round %d: %s", r, line)
		}
	}
	if !bytes.Contains(a, []byte(`"t":"connect"`)) {
		t.Fatal("filtered trace is empty; the golden run must produce connects in even rounds")
	}
}

// TestFaultedTraceDeterministic pins the fault path end to end: two runs
// with the same fault flags write byte-identical traces and metrics, and
// the metrics summary reports the injected faults.
func TestFaultedTraceDeterministic(t *testing.T) {
	// Crash and recover rates apply to each device every round, and
	// recovering devices restart from their initial state. The paper
	// (Section VIII) promises convergence only after faults cease, so under
	// steady churn "every up device agrees" is a race the protocol wins only
	// between crashes: at 0.05 (about 1.2 crashes a round) it took thousands
	// to hundreds of thousands of rounds, or did not happen within 400 000.
	// At 0.01 seeds 40-49 stabilize in 99-532 rounds, well inside the
	// 20 000-round cap.
	args := []string{"-topo", "regular", "-n", "24", "-deg", "6", "-algo", "asyncbitconv", "-seed", "42",
		"-max-rounds", "20000", "-crash-rate", "0.01", "-recover-rate", "0.3", "-max-down", "4", "-proposal-loss", "0.1"}
	var traces, metrics [2][]byte
	for i := range traces {
		dir := t.TempDir()
		tracePath, metricsPath := filepath.Join(dir, "run.jsonl"), filepath.Join(dir, "run.metrics.json")
		mtmsim(t, slices.Concat(args, []string{"-trace", tracePath, "-metrics", metricsPath})...)
		var err error
		if traces[i], err = os.ReadFile(tracePath); err != nil {
			t.Fatal(err)
		}
		if metrics[i], err = os.ReadFile(metricsPath); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(traces[0], traces[1]) || !bytes.Equal(metrics[0], metrics[1]) {
		t.Fatal("same-seed faulted recordings differ")
	}
	var s obs.Summary
	if err := json.Unmarshal(metrics[0], &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Faults) == 0 {
		t.Fatal("faulted run reported no fault events")
	}
	if s.LastFaultRound == 0 {
		t.Error("faulted run reported LastFaultRound = 0")
	}
}

// TestNotStabilizedLeavesNoOutput checks that a run that fails to
// stabilize reports ErrNotStabilized and publishes none of its recordings,
// not even a partial one.
func TestNotStabilizedLeavesNoOutput(t *testing.T) {
	dir := t.TempDir()
	args := slices.Concat(goldenArgs, []string{"-max-rounds", "1",
		"-trace", filepath.Join(dir, "run.jsonl"), "-metrics", filepath.Join(dir, "run.metrics.json")})
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); !errors.Is(err, mobiletel.ErrNotStabilized) {
		t.Fatalf("err = %v, want ErrNotStabilized", err)
	}
	if stdout.Len() > 0 {
		t.Errorf("failed run printed an outcome: %q", stdout.String())
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("failed run left %s behind", e.Name())
	}
}

// TestNaNFaultRateRejected checks that a fault rate of NaN, which
// flag.Float64 parses, fails the run with an error naming the plan field
// instead of running fault-free.
func TestNaNFaultRateRejected(t *testing.T) {
	for _, c := range []struct{ flag, field string }{
		{"-crash-rate", "CrashRate"},
		{"-recover-rate", "RecoverRate"},
		{"-proposal-loss", "ProposalLoss"},
		{"-conn-loss", "ConnLoss"},
		{"-tagflip-rate", "TagFlipRate"},
	} {
		args := []string{"-topo", "regular", "-n", "64", "-deg", "6", "-algo", "blindgossip", "-seed", "5",
			c.flag, "NaN", "-metrics", "-"}
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s NaN: err = %v, want an error naming %s", c.flag, err, c.field)
		}
		if stdout.Len() > 0 {
			t.Errorf("%s NaN: rejected run printed %q", c.flag, stdout.String())
		}
	}
}
