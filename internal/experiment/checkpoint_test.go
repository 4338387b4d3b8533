package experiment

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testKey is a valid key for the checkpoint unit tests.
var testKey = CheckpointKey{ID: "T1-test", Seed: 7, Trials: 2, Quick: true}

func TestCheckpointRecordLookup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.ckpt.jsonl")
	ck, err := OpenCheckpoint(path, testKey)
	if err != nil {
		t.Fatal(err)
	}
	if b := ck.NextBatch(); b != 0 {
		t.Fatalf("first batch = %d, want 0", b)
	}
	if b := ck.NextBatch(); b != 1 {
		t.Fatalf("second batch = %d, want 1", b)
	}
	if _, ok := ck.Lookup(0, 0, 0); ok {
		t.Fatal("empty checkpoint has a cell")
	}
	if err := ck.Record(0, 1, 2, 99); err != nil {
		t.Fatal(err)
	}
	if r, ok := ck.Lookup(0, 1, 2); !ok || r != 99 {
		t.Fatalf("Lookup = %d, %v; want 99, true", r, ok)
	}
	if ck.Recorded() != 1 || ck.Replayed() != 1 {
		t.Fatalf("Recorded=%d Replayed=%d", ck.Recorded(), ck.Replayed())
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh open sees the recorded cell and a zeroed batch counter.
	ck2, err := OpenCheckpoint(path, testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if b := ck2.NextBatch(); b != 0 {
		t.Fatalf("batch counter persisted across open: %d", b)
	}
	if r, ok := ck2.Lookup(0, 1, 2); !ok || r != 99 {
		t.Fatalf("reloaded Lookup = %d, %v; want 99, true", r, ok)
	}
}

func TestCheckpointKeyMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.ckpt.jsonl")
	ck, err := OpenCheckpoint(path, testKey)
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()
	other := testKey
	other.Seed++
	if _, err := OpenCheckpoint(path, other); err == nil {
		t.Fatal("key mismatch accepted")
	} else if !strings.Contains(err.Error(), "recorded for") {
		t.Fatalf("unhelpful mismatch error: %v", err)
	}
}

func TestCheckpointTornTailHealed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.ckpt.jsonl")
	ck, err := OpenCheckpoint(path, testKey)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := ck.Record(0, 0, i, 10+i); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a kill mid-append: chop the file mid-way through the last
	// cell's line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	ck2, err := OpenCheckpoint(path, testKey)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ck2.Lookup(0, 0, 1); !ok {
		t.Fatal("intact cell lost")
	}
	if _, ok := ck2.Lookup(0, 0, 2); ok {
		t.Fatal("torn cell survived")
	}
	// The torn run's cell re-records cleanly after healing.
	if err := ck2.Record(0, 0, 2, 12); err != nil {
		t.Fatal(err)
	}
	if err := ck2.Close(); err != nil {
		t.Fatal(err)
	}

	// Every line of the healed file must now parse.
	healed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(healed), "\n"), "\n")
	if len(lines) != 4 { // header + 3 cells
		t.Fatalf("healed file has %d lines: %q", len(lines), lines)
	}
	for i, l := range lines {
		if !strings.HasPrefix(l, "{") || !strings.HasSuffix(l, "}") {
			t.Fatalf("healed line %d malformed: %q", i+1, l)
		}
	}
}

func TestCheckpointEmptyFileIsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.ckpt.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := OpenCheckpoint(path, testKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Record(0, 0, 0, 5); err != nil {
		t.Fatal(err)
	}
	ck.Close()
	if _, err := OpenCheckpoint(path, testKey); err != nil {
		t.Fatalf("reopen after empty-file bootstrap: %v", err)
	}
}

func TestCheckpointDieAfter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.ckpt.jsonl")
	ck, err := OpenCheckpoint(path, testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	died := false
	ck.die = func() { died = true }
	ck.SetDieAfter(2)
	if err := ck.Record(0, 0, 0, 1); err != nil || died {
		t.Fatalf("died after first record (err=%v)", err)
	}
	if err := ck.Record(0, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if !died {
		t.Fatal("die hook not invoked after second record")
	}
}

// resumeExperiment is the sweep used by the interrupt-and-resume test: a
// real registered multi-point experiment that goes through runPointTrials.
const resumeExperiment = "E1-blindgossip-scaling"

// runWithCheckpoint runs experiment id with a fresh Checkpoint handle on
// path and returns the rendered table.
func runWithCheckpoint(t *testing.T, id, path string, key CheckpointKey) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("%s not registered", id)
	}
	ck, err := OpenCheckpoint(path, key)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	table, err := e.Run(Config{Seed: key.Seed, Trials: key.Trials, Quick: key.Quick, Checkpoint: ck})
	if err != nil {
		t.Fatal(err)
	}
	return table.Text()
}

// TestCheckpointResumeBitIdentical is the crash-safety contract: a sweep
// killed mid-run and resumed from its checkpoint renders a table
// byte-identical to an uninterrupted sweep. A2, E5 and E11 keep
// measurements that a cell cannot hold, so they record no cells and re-run
// in full; a checkpoint attached to them must still leave the table
// unchanged.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("resume sweep skipped in -short mode")
	}
	for _, c := range []struct {
		id      string
		resumes bool
	}{
		{"E1-blindgossip-scaling", true},
		{"E9-self-stabilization", true},
		{"E10-churn-robustness", true},
		{"R1-leader-crash-reelection", true},
		{"A2-ablation-tagbits", false},
		{"E5-ppush-approx", false},
		{"E11-good-edge-probability", false},
	} {
		t.Run(c.id, func(t *testing.T) {
			t.Parallel()
			e, ok := ByID(c.id)
			if !ok {
				t.Fatalf("%s not registered", c.id)
			}
			key := CheckpointKey{ID: c.id, Seed: 12345, Trials: 2, Quick: true}

			// Ground truth: no checkpoint at all.
			plain, err := e.Run(Config{Seed: key.Seed, Trials: key.Trials, Quick: key.Quick})
			if err != nil {
				t.Fatal(err)
			}
			want := plain.Text()

			path := filepath.Join(t.TempDir(), c.id+".ckpt.jsonl")
			if got := runWithCheckpoint(t, c.id, path, key); got != want {
				t.Fatalf("checkpointed run differs from plain run:\n--- plain\n%s\n--- checkpointed\n%s", want, got)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.SplitAfter(string(data), "\n")
			if !c.resumes {
				if len(lines) != 2 { // the header and the empty string after its newline
					t.Fatalf("checkpoint recorded cells: %q", lines)
				}
				return
			}

			// Simulate a mid-sweep kill: drop the second half of the recorded
			// cells (plus a torn tail byte or two would also be fine — covered
			// above).
			if len(lines) < 4 {
				t.Fatalf("checkpoint too small to truncate: %d lines", len(lines))
			}
			keep := 1 + (len(lines)-1)/2 // header + half the cells
			if err := os.WriteFile(path, []byte(strings.Join(lines[:keep], "")), 0o644); err != nil {
				t.Fatal(err)
			}

			// Resume must replay the surviving cells and re-run the rest,
			// landing on the exact same bytes.
			ck, err := OpenCheckpoint(path, key)
			if err != nil {
				t.Fatal(err)
			}
			table, err := e.Run(Config{Seed: key.Seed, Trials: key.Trials, Quick: key.Quick, Checkpoint: ck})
			if err != nil {
				t.Fatal(err)
			}
			if ck.Replayed() == 0 {
				t.Error("resume replayed no cells")
			}
			if ck.Recorded() == 0 {
				t.Error("resume re-ran no cells")
			}
			ck.Close()
			if got := table.Text(); got != want {
				t.Fatalf("resumed run differs from plain run:\n--- plain\n%s\n--- resumed\n%s", want, got)
			}
		})
	}
}

// TestInterruptAbortsSweep checks that an already-closed Interrupt stops
// every trial-batch experiment before it runs a trial.
func TestInterruptAbortsSweep(t *testing.T) {
	for _, id := range []string{
		"A2-ablation-tagbits", "E1-blindgossip-scaling", "E5-ppush-approx",
		"E9-self-stabilization", "E10-churn-robustness", "E11-good-edge-probability",
		"R1-leader-crash-reelection",
	} {
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("%s not registered", id)
			}
			stop := make(chan struct{})
			close(stop)
			_, err := e.Run(Config{Seed: 1, Trials: 2, Quick: true, Interrupt: stop})
			if !errors.Is(err, ErrInterrupted) {
				t.Fatalf("err = %v, want ErrInterrupted", err)
			}
		})
	}
}

// TestInterruptedRunResumes ties the two together: interrupt a checkpointed
// sweep, then resume it to completion and match the uninterrupted table.
func TestInterruptedRunResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("resume sweep skipped in -short mode")
	}
	e, ok := ByID(resumeExperiment)
	if !ok {
		t.Fatalf("%s not registered", resumeExperiment)
	}
	key := CheckpointKey{ID: resumeExperiment, Seed: 777, Trials: 2, Quick: true}
	plain, err := e.Run(Config{Seed: key.Seed, Trials: key.Trials, Quick: key.Quick})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "e1.ckpt.jsonl")
	ck, err := OpenCheckpoint(path, key)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	close(stop)
	if _, err := e.Run(Config{Seed: key.Seed, Trials: key.Trials, Quick: key.Quick,
		Checkpoint: ck, Interrupt: stop}); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	ck.Close()

	if got := runWithCheckpoint(t, resumeExperiment, path, key); got != plain.Text() {
		t.Fatalf("post-interrupt resume differs:\n--- plain\n%s\n--- resumed\n%s", plain.Text(), got)
	}
}
