package experiment

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"mobiletel/internal/atomicwrite"
)

// ErrInterrupted is returned by experiment runs aborted via Config.Interrupt
// (e.g. the harness caught SIGINT). Trials already recorded in a checkpoint
// survive; re-running with the same checkpoint resumes after them.
var ErrInterrupted = errors.New("experiment: interrupted")

// checkpointSchema identifies the checkpoint JSONL layout.
const checkpointSchema = "mtmexp-ckpt/v1"

// CheckpointKey pins the parameters a checkpoint file is valid for. Resuming
// with any different value would silently mix results from two different
// sweeps, so Open refuses a key mismatch instead.
type CheckpointKey struct {
	Schema string `json:"schema"`
	ID     string `json:"id"`
	Seed   uint64 `json:"seed"`
	Trials int    `json:"trials"`
	Quick  bool   `json:"quick"`
}

// checkpointCell is one completed trial: batch is the ordinal of the
// RunCells call within the experiment (experiments run their batches
// in a deterministic order, so the counter realigns on resume).
type checkpointCell struct {
	Batch  int `json:"batch"`
	Point  int `json:"point"`
	Trial  int `json:"trial"`
	Rounds int `json:"rounds"`
}

// cellKey indexes completed cells.
type cellKey struct{ batch, point, trial int }

// Checkpoint makes a trial sweep crash-safe: every completed (batch, point,
// trial) cell is appended to a JSONL file as it finishes, and a later run
// with the same key replays recorded cells instead of re-simulating them.
// Because each cell's seed is a pure function of (seed, point, trial) and
// its result is the recorded rounds value, a resumed sweep produces a table
// bit-identical to an uninterrupted one.
//
// The file is append-only while running; a process killed mid-append leaves
// at worst one torn trailing line, which Open drops (and heals by atomically
// rewriting the valid prefix). Methods are safe for concurrent use by the
// trial worker pool.
type Checkpoint struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	cells    map[cellKey]int
	batches  int // batches handed out this process
	recorded int // cells newly recorded this process
	replayed int // cells served from the file this process

	// dieAfter, when > 0, calls die after that many newly recorded cells —
	// the crash-injection hook behind mtmexp -die-after and the fault-smoke
	// CI job. die defaults to os.Exit(3); tests may substitute.
	dieAfter int
	die      func()
}

// OpenCheckpoint opens (or creates) the checkpoint file at path for the
// given key. An existing file must carry the same key; its valid cells are
// loaded and a torn or corrupt tail is dropped and healed in place.
func OpenCheckpoint(path string, key CheckpointKey) (*Checkpoint, error) {
	key.Schema = checkpointSchema
	cells, order, healed, err := readCheckpoint(path, key)
	if err != nil {
		return nil, err
	}
	if healed {
		// Rewrite the valid prefix atomically so the torn tail cannot be
		// misparsed by a later reader (or grow mid-file once we append).
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		if err := enc.Encode(key); err != nil {
			return nil, err
		}
		for _, c := range order {
			if err := enc.Encode(c); err != nil {
				return nil, err
			}
		}
		if err := atomicwrite.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Checkpoint{f: f, path: path, cells: cells, die: func() { os.Exit(3) }}, nil
}

// readCheckpoint loads path, returning the recorded cells (map and original
// order), whether the file needs healing (torn tail, or it did not exist and
// must be created with a header), and whether the key matches.
func readCheckpoint(path string, key CheckpointKey) (map[cellKey]int, []checkpointCell, bool, error) {
	cells := make(map[cellKey]int)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return cells, nil, true, nil
	}
	if err != nil {
		return nil, nil, false, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() || len(bytes.TrimSpace(sc.Bytes())) == 0 {
		// Created but killed before the header landed: treat as fresh.
		return cells, nil, true, nil
	}
	var got CheckpointKey
	if err := json.Unmarshal(sc.Bytes(), &got); err != nil {
		return nil, nil, false, fmt.Errorf("checkpoint %s: corrupt header: %w", path, err)
	}
	if got != key {
		return nil, nil, false, fmt.Errorf(
			"checkpoint %s was recorded for %+v; this run is %+v (use a fresh checkpoint or matching flags)",
			path, got, key)
	}
	var order []checkpointCell
	healed := false
	line := 1
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var c checkpointCell
		if err := json.Unmarshal(raw, &c); err != nil {
			// Torn tail from a mid-append kill: drop this line and anything
			// after it. Anything beyond one torn line means the file was
			// edited, but replaying the valid prefix is still safe — dropped
			// cells are simply re-run.
			healed = true
			break
		}
		k := cellKey{c.Batch, c.Point, c.Trial}
		if _, dup := cells[k]; !dup {
			order = append(order, c)
		}
		cells[k] = c.Rounds
	}
	if err := sc.Err(); err != nil {
		return nil, nil, false, fmt.Errorf("checkpoint %s: line %d: %w", path, line, err)
	}
	return cells, order, healed, nil
}

// NextBatch hands out the next batch ordinal. RunCells calls it once
// per batch, so within one experiment run the Nth batch always gets ordinal
// N — the property that lets cells recorded by a killed process line up with
// the re-run that resumes them.
func (c *Checkpoint) NextBatch() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.batches
	c.batches++
	return b
}

// Lookup returns the recorded rounds for a cell, if present.
func (c *Checkpoint) Lookup(batch, point, trial int) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.cells[cellKey{batch, point, trial}]
	if ok {
		c.replayed++
	}
	return r, ok
}

// Record appends a completed cell. The line is written (not fsynced) before
// Record returns; a crash immediately after loses at most the cells still in
// the kernel page cache, and a crash mid-write leaves a torn tail that the
// next Open drops.
func (c *Checkpoint) Record(batch, point, trial, rounds int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cell := checkpointCell{Batch: batch, Point: point, Trial: trial, Rounds: rounds}
	data, err := json.Marshal(cell)
	if err != nil {
		return err
	}
	if _, err := c.f.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("checkpoint %s: %w", c.path, err)
	}
	c.cells[cellKey{batch, point, trial}] = rounds
	c.recorded++
	if c.dieAfter > 0 && c.recorded >= c.dieAfter {
		// Crash injection: flush what the OS has and die without cleanup,
		// exactly like a kill mid-sweep.
		_ = c.f.Sync()
		c.die()
	}
	return nil
}

// Recorded returns how many cells this process newly recorded (excludes
// replays).
func (c *Checkpoint) Recorded() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recorded
}

// Replayed returns how many cells were served from the file this process.
func (c *Checkpoint) Replayed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replayed
}

// SetDieAfter arms the crash-injection hook: the process exits (status 3)
// immediately after the n-th newly recorded cell. n <= 0 disarms it.
func (c *Checkpoint) SetDieAfter(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dieAfter = n
}

// Close closes the underlying file. Recorded cells are already on disk (or
// in the page cache); Close syncs them.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Sync()
	if cerr := c.f.Close(); err == nil {
		err = cerr
	}
	c.f = nil
	return err
}
