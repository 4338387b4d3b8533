package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestSummaryInterleavedSchema checks that a header record appearing
// mid-stream — what concatenating two traces (possibly of different schema
// versions) produces — is rejected by line number instead of being folded
// into the aggregation as a zero event.
func TestSummaryInterleavedSchema(t *testing.T) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(golden, []byte("\n"))
	if len(lines) < 10 {
		t.Fatalf("golden fixture too short: %d lines", len(lines))
	}
	foreign := append([][]byte{}, lines[:6]...)
	foreign = append(foreign, []byte(`{"schema":"mtmtrace/v2","seed":44,"schedule":"static/clique","n":8}`))
	foreign = append(foreign, lines[6:]...)
	path := filepath.Join(t.TempDir(), "interleaved.jsonl")
	if err := os.WriteFile(path, bytes.Join(foreign, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	_, err = run([]string{"summary", path}, &out)
	if err == nil {
		t.Fatalf("interleaved-schema trace summarized without error:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "line 7") {
		t.Errorf("error %q does not name line 7", err)
	}
}

// TestSummaryOversizedLine checks that a single line exceeding the reader's
// bound fails with the line number instead of hanging or misparsing — a
// trace with a megabyte-long line is not a trace.
func TestSummaryOversizedLine(t *testing.T) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	header := golden[:bytes.IndexByte(golden, '\n')+1]
	huge := append([]byte(nil), header...)
	huge = append(huge, `{"t":"propose","kind":"`...)
	huge = append(huge, bytes.Repeat([]byte{'x'}, 1<<21)...)
	huge = append(huge, `","r":1}`+"\n"...)
	path := filepath.Join(t.TempDir(), "huge.jsonl")
	if err := os.WriteFile(path, huge, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	_, err = run([]string{"summary", path}, &out)
	if err == nil {
		t.Fatalf("oversized line summarized without error:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "too long") {
		t.Errorf("error %q does not name line 2 / too long", err)
	}
}

// synthTrace streams a synthetic mtmtrace/v1 trace one round at a time,
// never holding more than a single round's lines in memory — the generator
// side of the summary O(1)-memory contract.
type synthTrace struct {
	buf      []byte
	off      int
	round    int
	rounds   int
	perRound int
	total    int64 // bytes served so far
}

func newSynthTrace(rounds, perRound int) *synthTrace {
	s := &synthTrace{rounds: rounds, perRound: perRound}
	s.buf = []byte(`{"schema":"mtmtrace/v1","seed":1,"schedule":"synthetic","n":1024,"tag_bits":0,"classical":false}` + "\n")
	return s
}

func (s *synthTrace) Read(p []byte) (int, error) {
	for s.off == len(s.buf) {
		if s.round == s.rounds {
			return 0, io.EOF
		}
		s.round++
		s.buf, s.off = s.buf[:0], 0
		s.buf = appendSynthEvent(s.buf, "round_start", s.round, -1, -1)
		for i := 0; i < s.perRound; i++ {
			s.buf = appendSynthEvent(s.buf, "propose", s.round, i%1024, (i+1)%1024)
		}
		s.buf = appendSynthEvent(s.buf, "round_end", s.round, -1, -1)
	}
	n := copy(p, s.buf[s.off:])
	s.off += n
	s.total += int64(n)
	return n, nil
}

func appendSynthEvent(b []byte, typ string, r, node, peer int) []byte {
	b = append(b, `{"t":"`...)
	b = append(b, typ...)
	b = append(b, `","kind":"","r":`...)
	b = strconv.AppendInt(b, int64(r), 10)
	b = append(b, `,"node":`...)
	b = strconv.AppendInt(b, int64(node), 10)
	b = append(b, `,"peer":`...)
	b = strconv.AppendInt(b, int64(peer), 10)
	b = append(b, `,"a":0,"b":0}`+"\n"...)
	return b
}

// TestSummaryStreamingMemory pins the big-trace contract: summarizing a
// trace far larger than any sane buffer must not grow the heap by more than
// a small constant — events are folded one at a time and the metrics state
// (bounded curves, fixed counters) is O(1) in trace length. A regression
// that buffers events or grows a per-round slice shows up as heap growth on
// the order of the trace size.
func TestSummaryStreamingMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-MB synthetic trace skipped in -short mode")
	}
	const (
		rounds   = 4096
		perRound = 512
	)
	gen := newSynthTrace(rounds, perRound)
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	s, err := replay(gen)
	if err != nil {
		t.Fatal(err)
	}

	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	if gen.total < 128<<20 {
		t.Fatalf("synthetic trace only %d bytes; grow it to keep the bound meaningful", gen.total)
	}
	if s.Rounds != rounds || s.Proposals != int64(rounds)*perRound {
		t.Fatalf("summary miscounted: rounds=%d proposals=%d, want %d/%d",
			s.Rounds, s.Proposals, rounds, rounds*perRound)
	}
	if grew := int64(m1.HeapSys) - int64(m0.HeapSys); grew > 64<<20 {
		t.Fatalf("summarizing a %d MB trace grew the heap by %d MB; streaming replay must stay O(1) in trace length",
			gen.total>>20, grew>>20)
	}
}
