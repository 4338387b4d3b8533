package mobiletel_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"mobiletel"
)

func TestElectLeaderBlindGossip(t *testing.T) {
	topo := mobiletel.RandomRegular(64, 6, 42)
	res, err := mobiletel.ElectLeader(mobiletel.Static(topo), mobiletel.BlindGossip,
		mobiletel.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 1 || res.Leader == 0 || res.Connections < 1 {
		t.Fatalf("implausible result: %+v", res)
	}
	// The leader must be the minimum of the UID assignment used.
	min := res.UIDs[0]
	for _, u := range res.UIDs {
		if u < min {
			min = u
		}
	}
	if res.Leader != min {
		t.Fatalf("leader %d, want min UID %d", res.Leader, min)
	}
}

func TestElectLeaderAllAlgorithms(t *testing.T) {
	topo := mobiletel.RandomRegular(48, 6, 7)
	for _, algo := range []mobiletel.Algorithm{mobiletel.BlindGossip, mobiletel.BitConv, mobiletel.AsyncBitConv} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			res, err := mobiletel.ElectLeader(mobiletel.Static(topo), algo, mobiletel.Options{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if res.Rounds < 1 {
				t.Fatalf("no rounds: %+v", res)
			}
		})
	}
}

func TestElectLeaderDeterministic(t *testing.T) {
	topo := mobiletel.Clique(32)
	run := func() mobiletel.ElectionResult {
		res, err := mobiletel.ElectLeader(mobiletel.Permuted(topo, 2, 5), mobiletel.BitConv,
			mobiletel.Options{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Leader != b.Leader || a.Rounds != b.Rounds || a.Connections != b.Connections {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestElectLeaderCustomUIDs(t *testing.T) {
	topo := mobiletel.Cycle(10)
	uids := make([]uint64, 10)
	for i := range uids {
		uids[i] = uint64(100 - i)
	}
	res, err := mobiletel.ElectLeader(mobiletel.Static(topo), mobiletel.BlindGossip,
		mobiletel.Options{Seed: 2, UIDs: uids})
	if err != nil {
		t.Fatal(err)
	}
	if res.Leader != 91 {
		t.Fatalf("leader %d, want 91", res.Leader)
	}
}

func TestElectLeaderUIDLengthMismatch(t *testing.T) {
	topo := mobiletel.Cycle(10)
	_, err := mobiletel.ElectLeader(mobiletel.Static(topo), mobiletel.BlindGossip,
		mobiletel.Options{UIDs: []uint64{1, 2}})
	if err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestElectLeaderTimeout(t *testing.T) {
	topo := mobiletel.SqrtLineOfStars(8)
	_, err := mobiletel.ElectLeader(mobiletel.Static(topo), mobiletel.BlindGossip,
		mobiletel.Options{Seed: 1, MaxRounds: 3})
	if !errors.Is(err, mobiletel.ErrNotStabilized) {
		t.Fatalf("want ErrNotStabilized, got %v", err)
	}
}

func TestSpreadRumorBothStrategies(t *testing.T) {
	topo := mobiletel.RandomRegular(64, 6, 11)
	for _, strat := range []mobiletel.RumorStrategy{mobiletel.PushPull, mobiletel.PPush} {
		res, err := mobiletel.SpreadRumor(mobiletel.Static(topo), strat, []int{0}, mobiletel.Options{Seed: 4})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if res.Rounds < 1 || res.Connections < int64(topo.N()-1) {
			t.Fatalf("%v: implausible %+v (need >= n-1 connections)", strat, res)
		}
	}
}

func TestSpreadRumorValidation(t *testing.T) {
	topo := mobiletel.Cycle(5)
	if _, err := mobiletel.SpreadRumor(mobiletel.Static(topo), mobiletel.PushPull, nil, mobiletel.Options{}); err == nil {
		t.Fatal("empty sources accepted")
	}
	if _, err := mobiletel.SpreadRumor(mobiletel.Static(topo), mobiletel.PushPull, []int{9}, mobiletel.Options{}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

func TestTopologyMetadata(t *testing.T) {
	topo := mobiletel.Clique(10)
	if topo.N() != 10 || topo.MaxDegree() != 9 || !topo.AlphaExact() {
		t.Fatalf("clique metadata wrong: n=%d Δ=%d", topo.N(), topo.MaxDegree())
	}
	if topo.Name() != "clique" {
		t.Fatalf("name %q", topo.Name())
	}
	los := mobiletel.SqrtLineOfStars(4)
	if los.Alpha() >= topo.Alpha() {
		t.Fatal("line of stars should have smaller alpha than clique")
	}
}

func TestScheduleMetadata(t *testing.T) {
	topo := mobiletel.Cycle(12)
	s := mobiletel.Permuted(topo, 5, 1)
	if s.Tau() != 5 {
		t.Fatalf("tau %d", s.Tau())
	}
	if !strings.Contains(s.Name(), "permuted") {
		t.Fatalf("name %q", s.Name())
	}
}

func TestMergeSchedule(t *testing.T) {
	topo := mobiletel.Clique(16)
	a := mobiletel.Permuted(topo, 1, 3)
	b := mobiletel.Static(topo)
	m := mobiletel.Merge(a, b, 50)
	res, err := mobiletel.ElectLeader(m, mobiletel.AsyncBitConv, mobiletel.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 1 {
		t.Fatal("no rounds")
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, algo := range []mobiletel.Algorithm{mobiletel.BlindGossip, mobiletel.BitConv, mobiletel.AsyncBitConv} {
		parsed, err := mobiletel.ParseAlgorithm(algo.String())
		if err != nil || parsed != algo {
			t.Fatalf("roundtrip failed for %v", algo)
		}
	}
	if _, err := mobiletel.ParseAlgorithm("nonsense"); err == nil {
		t.Fatal("nonsense algorithm accepted")
	}
}

func TestExperimentsRegistry(t *testing.T) {
	infos := mobiletel.Experiments()
	if len(infos) != 19 {
		t.Fatalf("expected 19 experiments, got %d", len(infos))
	}
	for _, info := range infos {
		if info.ID == "" || info.Claim == "" {
			t.Fatalf("incomplete info: %+v", info)
		}
	}
}

func TestRunExperimentTextAndCSV(t *testing.T) {
	text, err := mobiletel.RunExperiment("E4-lemma-v1-gamma",
		mobiletel.ExperimentOptions{Seed: 1, Trials: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "Lemma V.1") {
		t.Fatalf("unexpected table:\n%s", text)
	}
	csvOut, err := mobiletel.RunExperiment("E4-lemma-v1-gamma",
		mobiletel.ExperimentOptions{Seed: 1, Trials: 3, Quick: true, CSV: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvOut, ",") || strings.Contains(csvOut, "==") {
		t.Fatalf("not CSV:\n%s", csvOut)
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := mobiletel.RunExperiment("bogus", mobiletel.ExperimentOptions{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// byteCounter is an io.Writer that counts what it is given and keeps the
// first line.
type byteCounter struct {
	n     int
	first []byte
}

func (c *byteCounter) Write(p []byte) (int, error) {
	if i := bytes.IndexByte(c.first, '\n'); i < 0 {
		c.first = append(c.first, p...)
	}
	c.n += len(p)
	return len(p), nil
}

// TestRunExperimentTracesA2 requires A2, whose trials end at a round cap,
// to trace its first trial like every other trial batch. That trial
// collides on its minimum tag and runs to the 100 000-round quick cap, so
// the trace is only counted.
func TestRunExperimentTracesA2(t *testing.T) {
	var trace byteCounter
	if _, err := mobiletel.RunExperiment("A2-ablation-tagbits",
		mobiletel.ExperimentOptions{Seed: 1, Trials: 1, Quick: true, TraceTo: &trace}); err != nil {
		t.Fatal(err)
	}
	if trace.n == 0 || !bytes.Contains(trace.first, []byte(`"schema":"mtmtrace/v1"`)) {
		t.Fatalf("A2 wrote %d trace bytes, first line %.120q", trace.n, trace.first)
	}
}

// TestElectLeaderWithFaults runs an election under crash/recover churn and
// message loss: the stop condition quantifies over up devices only, and the
// whole run stays deterministic per (seed, fault plan).
func TestElectLeaderWithFaults(t *testing.T) {
	topo := mobiletel.RandomRegular(48, 6, 11)
	opts := mobiletel.Options{
		Seed: 5,
		// Convergence under steady churn with amnesia resets is a race the
		// protocol wins only between crashes (the paper promises it once
		// faults cease). The crash rate applies to each device every
		// round: at 0.02 (about one crash a round) its seeds needed
		// 5 394 661 rounds; at 0.0025 they stabilize in 213. The cap makes
		// a change in the draws fail fast.
		MaxRounds: 20_000,
		Faults: &mobiletel.FaultPlan{
			Seed:           51,
			CrashRate:      0.0025,
			RecoverRate:    0.3,
			MaxDown:        6,
			ResetOnRecover: true,
			ProposalLoss:   0.1,
			ConnLoss:       0.05,
		},
	}
	run := func() mobiletel.ElectionResult {
		res, err := mobiletel.ElectLeader(mobiletel.Static(topo), mobiletel.AsyncBitConv, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Rounds < 1 || a.Leader == 0 {
		t.Fatalf("implausible faulted result: %+v", a)
	}
	if a.Leader != b.Leader || a.Rounds != b.Rounds || a.Connections != b.Connections {
		t.Fatalf("faulted run nondeterministic: %+v vs %+v", a, b)
	}
}

// TestElectLeaderScheduledCrash crashes one specific device and checks the
// election completes among the survivors (the stop condition must not wait
// for the crashed device's stale state).
func TestElectLeaderScheduledCrash(t *testing.T) {
	topo := mobiletel.Clique(16)
	res, err := mobiletel.ElectLeader(mobiletel.Static(topo), mobiletel.BlindGossip,
		mobiletel.Options{
			Seed: 2,
			Faults: &mobiletel.FaultPlan{
				Seed:    21,
				Crashes: []mobiletel.FaultEvent{{Round: 1, Device: 3}},
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 1 {
		t.Fatalf("implausible result: %+v", res)
	}
}

// TestRunExperimentCheckpointResume kills nothing but runs the same
// experiment twice against one checkpoint directory: the second run replays
// every trial and must render the identical table.
func TestRunExperimentCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	opts := mobiletel.ExperimentOptions{Seed: 1, Trials: 2, Quick: true, CheckpointDir: dir}
	first, err := mobiletel.RunExperiment("E6-bitconv-tau", opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := mobiletel.RunExperiment("E6-bitconv-tau", opts)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("resumed table differs:\n%s\nvs\n%s", first, second)
	}
	// A different seed against the same checkpoint is a stale-checkpoint
	// error, not silent reuse of wrong results.
	bad := opts
	bad.Seed = 2
	if _, err := mobiletel.RunExperiment("E6-bitconv-tau", bad); err == nil {
		t.Fatal("stale checkpoint (different seed) accepted")
	}
}

// TestRunExperimentInterrupt aborts a run via an already-closed Interrupt
// channel and checks the sentinel error surfaces through the facade.
func TestRunExperimentInterrupt(t *testing.T) {
	interrupt := make(chan struct{})
	close(interrupt)
	_, err := mobiletel.RunExperiment("E6-bitconv-tau",
		mobiletel.ExperimentOptions{Seed: 1, Trials: 2, Quick: true, Interrupt: interrupt})
	if !errors.Is(err, mobiletel.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
}

func TestAsyncActivations(t *testing.T) {
	topo := mobiletel.RandomRegular(32, 4, 9)
	acts := make([]int, 32)
	for i := range acts {
		acts[i] = 1 + (i*13)%100
	}
	res, err := mobiletel.ElectLeader(mobiletel.Static(topo), mobiletel.AsyncBitConv,
		mobiletel.Options{Seed: 8, Activations: acts})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 100 {
		t.Fatalf("stabilized at %d, before last activation", res.Rounds)
	}
}

func TestBarabasiAlbertTopology(t *testing.T) {
	topo := mobiletel.BarabasiAlbert(128, 3, 5)
	if topo.N() != 128 || topo.MaxDegree() < 6 {
		t.Fatalf("BA metadata: n=%d Δ=%d", topo.N(), topo.MaxDegree())
	}
	res, err := mobiletel.ElectLeader(mobiletel.Static(topo), mobiletel.BlindGossip, mobiletel.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 1 {
		t.Fatal("no rounds")
	}
}

// TestElectLeaderRecording checks the connection record a run leaves: a
// trace filtered to connect events holds exactly one event per connection
// the election reports, at any worker count.
func TestElectLeaderRecording(t *testing.T) {
	topo := mobiletel.Cycle(12)
	for _, algo := range []mobiletel.Algorithm{mobiletel.BlindGossip, mobiletel.BitConv, mobiletel.AsyncBitConv} {
		for _, workers := range []int{1, 2} {
			var buf strings.Builder
			res, err := mobiletel.ElectLeader(mobiletel.Static(topo), algo, mobiletel.Options{
				Seed: 3, Workers: workers, TraceTo: &buf, TraceTypes: []string{"connect"},
			})
			if err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if !strings.Contains(out, "\"schedule\":\"static/cycle\"") {
				t.Fatalf("%v w=%d: trace header missing: %q", algo, workers, out[:min(120, len(out))])
			}
			// One header line plus one connect event per connection.
			lines := strings.Split(strings.TrimSpace(out), "\n")
			connects := strings.Count(out, "\"t\":\"connect\"")
			if connects != len(lines)-1 || int64(connects) != res.Connections {
				t.Fatalf("%v w=%d: %d connect events in %d lines, election reports %d connections",
					algo, workers, connects, len(lines), res.Connections)
			}
		}
	}
}
