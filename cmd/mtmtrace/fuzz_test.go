package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"mobiletel/internal/obs"
)

// hugeHeader is a one-line trace whose header names 2^60 devices: the
// metrics fold would size its load ledger from it.
const hugeHeader = `{"schema":"mtmtrace/v1","seed":1,"schedule":"x","n":1152921504606846976,"tag_bits":0}` + "\n"

// TestSummaryRejectsHeaderDeviceCount checks that summary refuses, at line
// 1 and without panicking, a header whose device count events cannot name
// (2^60) and one above the fold's cap.
func TestSummaryRejectsHeaderDeviceCount(t *testing.T) {
	for _, n := range []string{"1152921504606846976", fmt.Sprint(maxSummaryN + 1)} {
		path := filepath.Join(t.TempDir(), "header.jsonl")
		body := strings.Replace(hugeHeader, "1152921504606846976", n, 1)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		_, err := run([]string{"summary", path}, &out)
		if err == nil || !strings.Contains(err.Error(), "line 1") {
			t.Errorf("n = %s: err = %v, want a line-1 rejection", n, err)
		}
	}
}

// FuzzTraceReader feeds arbitrary bytes through obs.NewReader, Next and the
// metrics fold mtmtrace summary runs (replay). None of them may panic,
// every rejection must name a line, and the header and events the reader
// accepts must read back unchanged after a round trip through the JSONL
// sink.
func FuzzTraceReader(f *testing.F) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		f.Fatal(err)
	}
	// The golden trace's opening round (header through the first
	// round_end), not the whole trace, keeps each execution short, so a
	// 15 s run tries several times more inputs.
	end := bytes.Index(golden, []byte(`{"t":"round_end"`))
	opening := golden[:end+bytes.IndexByte(golden[end:], '\n')+1]
	f.Add(opening)
	f.Add(opening[:len(opening)-20]) // torn tail
	f.Add([]byte(`{"schema":"mtmtrace/v2","seed":44,"schedule":"static/clique","n":8}` + "\n" +
		`{"t":"round_start","kind":"","r":1,"node":-1,"peer":-1,"a":8,"b":0}` + "\n"))
	f.Add([]byte(hugeHeader))
	positioned := regexp.MustCompile(`line [1-9][0-9]*`)
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := replay(bytes.NewReader(data)); err != nil && !positioned.MatchString(err.Error()) {
			t.Fatalf("summary rejection names no line: %v", err)
		}
		r, err := obs.NewReader(bytes.NewReader(data))
		if err != nil {
			if !positioned.MatchString(err.Error()) {
				t.Fatalf("header rejection names no line: %v", err)
			}
			return
		}
		var events []obs.Event
		for {
			e, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !positioned.MatchString(err.Error()) {
					t.Fatalf("event rejection names no line: %v", err)
				}
				break
			}
			events = append(events, e)
		}
		var buf bytes.Buffer
		sink := obs.NewJSONL(&buf)
		sink.Begin(r.Header())
		for _, e := range events {
			sink.Event(e)
		}
		sink.End()
		if err := sink.Err(); err != nil {
			t.Fatal(err)
		}
		back, err := obs.NewReader(&buf)
		if err != nil {
			t.Fatalf("re-encoded header refused: %v", err)
		}
		if back.Header() != r.Header() {
			t.Fatalf("header read back as %+v, want %+v", back.Header(), r.Header())
		}
		got, err := back.ReadAll()
		if err != nil {
			t.Fatalf("re-encoded events refused: %v", err)
		}
		if !slices.Equal(got, events) {
			t.Fatalf("read back %d events %v, want %d %v", len(got), got, len(events), events)
		}
	})
}
