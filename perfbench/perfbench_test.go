package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestPercentileTenBeyond(t *testing.T) {
	for _, c := range []struct{ p, want int }{{p50, 20}, {p90, 100}, {9900, 1000}} {
		n := minSamples(c.p)
		if n != c.want {
			t.Errorf("minSamples(%d) = %d, want %d", c.p, n, c.want)
		}
		if beyond(n, c.p) != minBeyond || beyond(n-1, c.p) >= minBeyond {
			t.Errorf("p=%d: beyond(%d)=%d, beyond(%d)=%d", c.p, n, beyond(n, c.p), n-1, beyond(n-1, c.p))
		}
	}

	var l latencies
	for i := 1; i <= 1000; i++ {
		l.add(float64(1001-i), false) // insertion order must not matter
	}
	if v, ok := l.percentile(9900); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v (ten beyond: %t), want 990 with ten beyond", v, ok)
	}
	if v, ok := l.percentile(p50); v != 500 || !ok {
		t.Errorf("p50 of 1..1000 = %v (%t), want 500", v, ok)
	}
	l.ok = l.ok[:999]
	if _, ok := l.percentile(9900); ok {
		t.Error("999 samples leave only nine beyond p99")
	}

	// A failed op ranks above every success, however fast it failed.
	var f latencies
	for i := 0; i < 19; i++ {
		f.add(1, false)
	}
	f.add(0.5, true)
	if v, _ := f.percentile(10000); v != 0.5 {
		t.Errorf("p100 with one failed op = %v, want the failed op's 0.5", v)
	}
	if v, _ := f.percentile(p50); v != 1 {
		t.Errorf("p50 = %v, want 1", v)
	}
}

func TestWindows(t *testing.T) {
	for _, c := range []struct {
		n, w int
		want [][2]int
	}{
		{10, 4, [][2]int{{0, 4}, {4, 10}}}, // the remainder joins the last window
		{8, 4, [][2]int{{0, 4}, {4, 8}}},
		{3, 4, [][2]int{{0, 3}}},
		{0, 4, nil},
	} {
		if got := windows(c.n, c.w); !reflect.DeepEqual(got, c.want) {
			t.Errorf("windows(%d, %d) = %v, want %v", c.n, c.w, got, c.want)
		}
	}

	// Three windows of ten ops, each 0.1 s long; the middle window is
	// twice as slow, and the figures are the medians over the windows.
	var s []opSample
	end := 0.0
	for i := 0; i < 30; i++ {
		d := 0.01
		if i >= 10 && i < 20 {
			d = 0.02
		}
		if i%10 == 9 {
			d *= 2 // each window's slowest op
		}
		end += d
		s = append(s, opSample{sec: d, end: end})
	}
	f := windowed(s, 10, p90)
	if f.windows != 3 || f.p50 != 0.01 || f.tail != 0.01 || f.tailOK {
		t.Errorf("windowed = %+v, want 3 windows, p50 and p90 0.01, too few beyond p90", f)
	}
	if want := 10 / 0.11; math.Abs(f.perSec-want) > 1e-9 {
		t.Errorf("perSec = %v, want %v", f.perSec, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "election", Parent: -1, Dur: 100},
		{Name: "core.UniqueUIDs", Parent: 0, Dur: 10},
		{Name: "sim.Engine.Run", Parent: 0, Dur: 70},
		{Name: "dyngraph.GraphAt", Parent: 2, Dur: 25, Count: 40}, // aggregated
		{Name: "election", Parent: -1, Dur: 50},
		{Name: "sim.Engine.Run", Parent: 4, Dur: 60}, // clock skew: never negative
	}
	got := selfTimes(spans)
	want := []int64{20, 10, 45, 25, 0, 60}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	sum := summarize(spans)
	if sum[2].Name != "election" || sum[2].Self != 20 || sum[2].Spans != 2 {
		t.Errorf("election summary = %+v", sum[2])
	}
	if sum[1].Name != "dyngraph.GraphAt" || sum[1].Calls != 40 {
		t.Errorf("GraphAt summary = %+v", sum[1])
	}
}

func TestElectionScoring(t *testing.T) {
	if !dupMinimum([]uint64{9, 3, 5, 3}) || dupMinimum([]uint64{3, 5, 5}) {
		t.Fatal("dupMinimum misreads the minimum tag")
	}
	for _, c := range []struct {
		e               election
		failed, correct bool
	}{
		{election{stabilized: true}, false, true},
		{election{stabilized: true, wrongLeader: true}, true, false},
		{election{dupMinTag: true}, true, true},   // A2's documented failure mode
		{election{dupMinTag: false}, true, false}, // unexplained non-stabilization
	} {
		r := newResult()
		c.e.check(r)
		if (r.failed == 1) != c.failed || r.correct != c.correct || r.attempted != 1 {
			t.Errorf("%+v: failed=%d correct=%t", c.e, r.failed, r.correct)
		}
	}
}

// smokeConfig runs a tiny workload with every check on.
func smokeConfig(trace bool) config {
	return config{seed: 7, budget: 50 * time.Millisecond, trace: trace, log: io.Discard}
}

// checkResult asserts a clean run that prints every metric of its mode.
func checkResult(t *testing.T, res *result, trace bool) {
	t.Helper()
	if !res.correct || res.failed != 0 || res.attempted < 1 || res.aborted {
		t.Fatalf("correct=%t attempted=%d failed=%d aborted=%t", res.correct, res.attempted, res.failed, res.aborted)
	}
	specs, values := endToEnd, res.endToEnd
	if trace {
		specs, values = perLayer(), res.layers
	}
	js, err := res.encode(specs, values)
	if err != nil {
		t.Fatal(err)
	}
	var out jsonResult
	if err := json.Unmarshal(js, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Metrics) != len(specs) {
		t.Errorf("%d metrics printed, want %d", len(out.Metrics), len(specs))
	}
	for _, s := range specs {
		if !trace && values[s.Name] <= 0 {
			t.Errorf("end-to-end %s = %v, want a positive measurement", s.Name, values[s.Name])
		}
	}
	for name := range values {
		if _, ok := out.Metrics[name]; !ok && trace {
			t.Errorf("layer metric %s is not declared", name)
		}
	}
}

func TestSmokeElect(t *testing.T) {
	size := electSize{name: "elect-smoke", n: 32, degree: 4, maxRounds: 20_000, setupReps: 3, warmup: 2, window: 5,
		minOps: 12, exactOps: 6}
	for _, trace := range []bool{false, true} {
		res, err := runElect(smokeConfig(trace), size)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, res, trace)
		if trace && (res.layers["sim.rounds_per_election.bitconv"] == 0 || res.layers["sim.accept_ratio"] == 0) {
			t.Errorf("traced elections recorded no exact counts: %v", res.layers)
		}
	}
}

func TestSmokeTorus(t *testing.T) {
	size := torusSize{name: "torus-smoke", rows: 32, cols: 32, setupReps: 2, warmup: 2, window: 5, minRounds: 5,
		exactRounds: 4}
	for _, trace := range []bool{false, true} {
		res, err := runTorus(smokeConfig(trace), size)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, res, trace)
		if trace && res.layers["sim.allocs_per_round.blindgossip"] != 0 {
			t.Errorf("blind gossip allocated %v objects per round", res.layers["sim.allocs_per_round.blindgossip"])
		}
	}
}

func TestSmokeSweep(t *testing.T) {
	size := sweepSize{name: "sweep-smoke", ids: []string{"E1-blindgossip-scaling", "R3-message-loss-slowdown"},
		quick: true, deadline: time.Minute, setupReps: 3}
	for _, trace := range []bool{false, true} {
		res, err := runSweep(smokeConfig(trace), size)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, res, trace)
		if trace && res.layers["exp.E1_s"] <= 0 {
			t.Errorf("exp.E1_s = %v", res.layers["exp.E1_s"])
		}
	}
}

func TestSweepDeadlineFailsTheRun(t *testing.T) {
	size := sweepSize{name: "sweep-deadline", ids: []string{"E1-blindgossip-scaling"}, quick: true,
		deadline: time.Nanosecond, setupReps: 1}
	res, err := runSweep(smokeConfig(false), size)
	if err != nil {
		t.Fatal(err)
	}
	if !res.aborted || res.correct || res.failed != 1 || res.attempted != 1 {
		t.Fatalf("aborted=%t correct=%t failed=%d attempted=%d", res.aborted, res.correct, res.failed, res.attempted)
	}
}

// TestBenchmarkFileMatches keeps the repository's BENCHMARK.json in step
// with the metrics the benchmark prints.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %+v, want %+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer()) {
		t.Errorf("per_layer in BENCHMARK.json differs from perLayer()")
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{elect256.name, torus1m.name, reproSweep.name}; !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
}
