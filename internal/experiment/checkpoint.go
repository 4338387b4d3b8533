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
const checkpointSchema = "mtmexp-ckpt/v2"

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

// checkpointCell is one completed (point, trial) cell: the JSON encoding
// of what the experiment's cell returned.
type checkpointCell struct {
	Point  int             `json:"point"`
	Trial  int             `json:"trial"`
	Result json.RawMessage `json:"result"`
}

// cellKey indexes completed cells.
type cellKey struct{ point, trial int }

// storedCell is a recorded result and the file line that holds it, which
// a result that does not decode is reported against.
type storedCell struct {
	line   int
	result json.RawMessage
}

// Checkpoint makes a trial sweep crash-safe: every completed (point, trial)
// cell of an experiment's one RunCells batch is appended to a JSONL file as
// it finishes, and a later run with the same key replays recorded cells
// instead of re-simulating them. Because each cell is a pure function of
// (seed, point, trial) and its result is recorded whole, a resumed sweep
// produces a table bit-identical to an uninterrupted one.
//
// The file is append-only while running; a process killed mid-append leaves
// at worst one torn trailing line, which Open drops (and heals by atomically
// rewriting the valid prefix). Methods are safe for concurrent use by the
// trial worker pool.
type Checkpoint struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	cells    map[cellKey]storedCell
	lines    int  // lines in the file: the header and every cell
	started  bool // a RunCells batch has claimed this checkpoint
	recorded int  // cells newly recorded this process
	replayed int  // cells served from the file this process

	// dieAfter, when > 0, calls die after that many newly recorded cells —
	// the crash-injection hook behind mtmexp -die-after and the fault-smoke
	// CI job. die defaults to os.Exit(3); tests may substitute.
	dieAfter int
	die      func()
}

// OpenCheckpoint opens (or creates) the checkpoint file at path for the
// given key. An existing file must carry the same key; its valid cells are
// loaded, and the file is rewritten atomically as the header and those
// cells, one per line, which drops a torn or corrupt tail.
func OpenCheckpoint(path string, key CheckpointKey) (*Checkpoint, error) {
	key.Schema = checkpointSchema
	order, err := readCheckpoint(path, key)
	if err != nil {
		return nil, err
	}
	// Rewriting the valid prefix means a torn tail cannot be misparsed by
	// a later reader (or grow mid-file once we append), and cell i sits on
	// line i+2.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(key); err != nil {
		return nil, err
	}
	cells := make(map[cellKey]storedCell, len(order))
	for i, c := range order {
		if err := enc.Encode(c); err != nil {
			return nil, err
		}
		cells[cellKey{c.Point, c.Trial}] = storedCell{line: i + 2, result: c.Result}
	}
	if err := atomicwrite.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Checkpoint{f: f, path: path, cells: cells, lines: 1 + len(order), die: func() { os.Exit(3) }}, nil
}

// readCheckpoint loads the cells recorded in path, in file order, after
// checking the header against key. A missing or empty file has none.
func readCheckpoint(path string, key CheckpointKey) ([]checkpointCell, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 1
	if !sc.Scan() || len(bytes.TrimSpace(sc.Bytes())) == 0 {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("checkpoint %s: line %d: %w", path, line, err)
		}
		// Created but killed before the header landed: treat as fresh.
		return nil, nil
	}
	var got CheckpointKey
	if err := json.Unmarshal(sc.Bytes(), &got); err != nil {
		return nil, fmt.Errorf("checkpoint %s: line %d: corrupt header: %w", path, line, err)
	}
	if got != key {
		return nil, fmt.Errorf(
			"checkpoint %s: line %d: recorded for %+v; this run is %+v (use a fresh checkpoint or matching flags)",
			path, line, got, key)
	}
	var order []checkpointCell
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var c checkpointCell
		if err := json.Unmarshal(raw, &c); err != nil || c.Result == nil {
			// Torn tail from a mid-append kill: drop this line and anything
			// after it. Anything beyond one torn line means the file was
			// edited, but replaying the valid prefix is still safe — dropped
			// cells are simply re-run.
			return order, nil
		}
		order = append(order, c)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("checkpoint %s: line %d: %w", path, line+1, err)
	}
	return order, nil
}

// startBatch claims the checkpoint for a RunCells batch. Cells are keyed
// by (point, trial) alone, so a checkpoint serves exactly one batch, and a
// second batch is an error rather than a silent mix-up of two grids.
func (c *Checkpoint) startBatch() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return fmt.Errorf("checkpoint %s: a second cell batch on one checkpoint", c.path)
	}
	c.started = true
	return nil
}

// Lookup decodes the recorded result of a cell into v and reports whether
// the cell was recorded. A recorded result that does not decode into v is
// an error naming the file and the line.
func (c *Checkpoint) Lookup(point, trial int, v any) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.cells[cellKey{point, trial}]
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(s.result, v); err != nil {
		return false, fmt.Errorf("checkpoint %s: line %d: cell (%d, %d): %w", c.path, s.line, point, trial, err)
	}
	c.replayed++
	return true, nil
}

// Record appends a completed cell with its result v, which must encode as
// JSON. The line is written (not fsynced) before Record returns; a crash
// immediately after loses at most the cells still in the kernel page cache,
// and a crash mid-write leaves a torn tail that the next Open drops.
func (c *Checkpoint) Record(point, trial int, v any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	result, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint %s: cell (%d, %d): %w", c.path, point, trial, err)
	}
	data, err := json.Marshal(checkpointCell{Point: point, Trial: trial, Result: result})
	if err != nil {
		return err
	}
	if _, err := c.f.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("checkpoint %s: %w", c.path, err)
	}
	c.lines++
	c.cells[cellKey{point, trial}] = storedCell{line: c.lines, result: result}
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
