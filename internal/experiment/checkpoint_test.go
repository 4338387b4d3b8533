package experiment

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"regexp"
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
	var r int
	if ok, err := ck.Lookup(0, 0, &r); ok || err != nil {
		t.Fatalf("empty checkpoint Lookup = %v, %v", ok, err)
	}
	if err := ck.Record(1, 2, 99); err != nil {
		t.Fatal(err)
	}
	if ok, err := ck.Lookup(1, 2, &r); !ok || err != nil || r != 99 {
		t.Fatalf("Lookup = %d, %v, %v; want 99, true, nil", r, ok, err)
	}
	if ck.Recorded() != 1 || ck.Replayed() != 1 {
		t.Fatalf("Recorded=%d Replayed=%d", ck.Recorded(), ck.Replayed())
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh open sees the recorded cell.
	ck2, err := OpenCheckpoint(path, testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	r = 0
	if ok, err := ck2.Lookup(1, 2, &r); !ok || err != nil || r != 99 {
		t.Fatalf("reloaded Lookup = %d, %v, %v; want 99, true, nil", r, ok, err)
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
		if err := ck.Record(0, i, 10+i); err != nil {
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
	var r int
	if ok, err := ck2.Lookup(0, 1, &r); !ok || err != nil {
		t.Fatalf("intact cell lost: %v", err)
	}
	if ok, _ := ck2.Lookup(0, 2, &r); ok {
		t.Fatal("torn cell survived")
	}
	// The torn run's cell re-records cleanly after healing.
	if err := ck2.Record(0, 2, 12); err != nil {
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
	if err := ck.Record(0, 0, 5); err != nil {
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
	if err := ck.Record(0, 0, 1); err != nil || died {
		t.Fatalf("died after first record (err=%v)", err)
	}
	if err := ck.Record(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if !died {
		t.Fatal("die hook not invoked after second record")
	}
}

// TestCheckpointRefusesV1 checks that a checkpoint in the earlier layout,
// whose cells held a batch ordinal and a bare round count, is refused by
// the key check rather than replayed.
func TestCheckpointRefusesV1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.ckpt.jsonl")
	v1 := `{"schema":"mtmexp-ckpt/v1","id":"T1-test","seed":7,"trials":2,"quick":true}
{"batch":0,"point":0,"trial":0,"rounds":5}
`
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenCheckpoint(path, testKey)
	if err == nil || !strings.Contains(err.Error(), "recorded for") || !strings.Contains(err.Error(), "mtmexp-ckpt/v1") {
		t.Fatalf("v1 checkpoint: err = %v, want a key mismatch naming mtmexp-ckpt/v1", err)
	}
}

// TestCheckpointOversizedLineRefused checks that a first line too long to
// scan is an error naming the line, and that the file is left as it was
// rather than taken for an empty one and overwritten.
func TestCheckpointOversizedLineRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.ckpt.jsonl")
	data := bytes.Repeat([]byte("x"), 1<<20+1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCheckpoint(path, testKey); err == nil || !strings.Contains(err.Error(), path+": line 1:") {
		t.Fatalf("err = %v, want an error naming %s line 1", err, path)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("refused checkpoint was rewritten (err %v)", err)
	}
}

// TestCheckpointWrongResultType checks that a recorded result that does not
// decode into the cell's type fails the run, naming the file and its line.
func TestCheckpointWrongResultType(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.ckpt.jsonl")
	ck, err := OpenCheckpoint(path, testKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Record(0, 0, 7); err != nil {
		t.Fatal(err)
	}
	if err := ck.Record(0, 1, a2Cell{Rounds: 3}); err != nil { // line 3
		t.Fatal(err)
	}
	ck.Close()

	ck, err = OpenCheckpoint(path, testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	_, err = RunCells(Config{Checkpoint: ck}, 1, 2, func(point, trial int) (int, error) {
		return 1, nil
	})
	if err == nil || !strings.Contains(err.Error(), path+": line 3:") {
		t.Fatalf("err = %v, want a decode error naming %s line 3", err, path)
	}
}

// TestCheckpointEditedRatiosFail checks that an E11 cell replayed with the
// wrong number of edge ratios (only an edited file holds one) fails the run
// instead of panicking on an empty list.
func TestCheckpointEditedRatiosFail(t *testing.T) {
	id := "E11-good-edge-probability"
	e, _ := ByID(id)
	key := CheckpointKey{ID: id, Seed: 1, Trials: 1, Quick: true}
	ck, err := OpenCheckpoint(filepath.Join(t.TempDir(), "e11.ckpt.jsonl"), key)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	for point := range 4 {
		if err := ck.Record(point, 0, []float64{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(Config{Seed: key.Seed, Trials: key.Trials, Quick: key.Quick, Checkpoint: ck}); err == nil ||
		!strings.Contains(err.Error(), "replayed 0 edge ratios") {
		t.Fatalf("err = %v, want an edge-ratio count error", err)
	}
}

// TestCheckpointSecondBatch checks that cells keyed by (point, trial) are
// never shared by two batches: a second RunCells on one checkpoint fails
// before it runs a cell.
func TestCheckpointSecondBatch(t *testing.T) {
	ck, err := OpenCheckpoint(filepath.Join(t.TempDir(), "t.ckpt.jsonl"), testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	cell := func(point, trial int) (int, error) { return point + trial, nil }
	if _, err := RunCells(Config{Checkpoint: ck}, 2, 2, cell); err != nil {
		t.Fatal(err)
	}
	ran := false
	_, err = RunCells(Config{Checkpoint: ck}, 2, 2, func(point, trial int) (int, error) {
		ran = true
		return 0, nil
	})
	if err == nil || ran {
		t.Fatalf("second batch: err = %v, ran = %v; want an error before any cell", err, ran)
	}
}

// FuzzOpenCheckpoint feeds arbitrary file bytes to OpenCheckpoint, then
// looks every loaded cell up into an int and into a struct. Nothing may
// panic, every rejection must be an error naming the file and the line,
// and a file OpenCheckpoint accepted (and rewrote) must reopen with the
// same cells.
func FuzzOpenCheckpoint(f *testing.F) {
	header := `{"schema":"mtmexp-ckpt/v2","id":"T1-test","seed":7,"trials":2,"quick":true}` + "\n"
	valid := header + `{"point":0,"trial":0,"result":12}` + "\n" +
		`{"point":0,"trial":1,"result":{"rounds":3,"collisions":1,"min_collided":false,"stabilized":true}}` + "\n"
	f.Add([]byte(valid))
	f.Add([]byte(valid[:len(valid)-9])) // torn tail
	f.Add([]byte(`{"schema":"mtmexp-ckpt/v1","id":"T1-test","seed":7,"trials":2,"quick":true}` + "\n" +
		`{"batch":0,"point":0,"trial":0,"rounds":5}` + "\n"))
	f.Add([]byte(header + `{"point":1,"trial":0,"result":"twelve"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.ckpt.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		positioned := regexp.MustCompile("^checkpoint " + regexp.QuoteMeta(path) + ": line [1-9][0-9]*: ")
		ck, err := OpenCheckpoint(path, testKey)
		if err != nil {
			if !positioned.MatchString(err.Error()) {
				t.Fatalf("rejection does not name the file and line: %v", err)
			}
			return
		}
		n := len(ck.cells)
		for k := range ck.cells {
			var r int
			var c a2Cell
			for _, v := range []any{&r, &c} {
				if _, err := ck.Lookup(k.point, k.trial, v); err != nil && !positioned.MatchString(err.Error()) {
					t.Fatalf("Lookup(%d, %d) error does not name the file and line: %v", k.point, k.trial, err)
				}
			}
		}
		if err := ck.Close(); err != nil {
			t.Fatal(err)
		}
		ck, err = OpenCheckpoint(path, testKey)
		if err != nil {
			t.Fatalf("rewritten checkpoint refused: %v", err)
		}
		defer ck.Close()
		if len(ck.cells) != n {
			t.Fatalf("reopen loaded %d cells, first open %d", len(ck.cells), n)
		}
	})
}

// resumeExperiment is the sweep used by the interrupt-and-resume test: a
// real registered multi-point experiment.
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
// byte-identical to an uninterrupted sweep. A2, E5 and E11 replay cells
// that hold more than a round (tag statistics and outcomes, informed
// counts, per-edge ratios).
func TestCheckpointResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("resume sweep skipped in -short mode")
	}
	for _, id := range []string{
		"E1-blindgossip-scaling",
		"E9-self-stabilization",
		"E10-churn-robustness",
		"R1-leader-crash-reelection",
		"A2-ablation-tagbits",
		"E5-ppush-approx",
		"E11-good-edge-probability",
	} {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("%s not registered", id)
			}
			key := CheckpointKey{ID: id, Seed: 12345, Trials: 2, Quick: true}

			// Ground truth: no checkpoint at all.
			plain, err := e.Run(Config{Seed: key.Seed, Trials: key.Trials, Quick: key.Quick})
			if err != nil {
				t.Fatal(err)
			}
			want := plain.Text()

			path := filepath.Join(t.TempDir(), id+".ckpt.jsonl")
			if got := runWithCheckpoint(t, id, path, key); got != want {
				t.Fatalf("checkpointed run differs from plain run:\n--- plain\n%s\n--- checkpointed\n%s", want, got)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.SplitAfter(string(data), "\n")

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
