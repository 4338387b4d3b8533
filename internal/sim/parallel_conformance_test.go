package sim_test

import (
	"bytes"
	"errors"
	"testing"

	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/fault"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/obs"
	"mobiletel/internal/rumor"
	"mobiletel/internal/sim"
)

// conformanceCase builds a fresh protocol network plus the engine config it
// needs, and digests the network's post-run state so worker counts can be
// compared bit-for-bit. Each call must construct new protocol state:
// engines mutate it in place.
type conformanceCase struct {
	name    string
	tagBits int
	stop    sim.StopCondition
	build   func(n int) []sim.Protocol
	digest  func(protocols []sim.Protocol) uint64
}

func leaderDigest(protocols []sim.Protocol) uint64 {
	h := uint64(1469598103934665603)
	for _, p := range protocols {
		h = (h ^ p.Leader()) * 1099511628211
	}
	return h
}

func conformanceCases(n, maxDegree int) []conformanceCase {
	params := core.DefaultBitConvParams(n, maxDegree)
	return []conformanceCase{
		{
			name: "blindgossip", tagBits: 0, stop: sim.AllLeadersEqual,
			build: func(n int) []sim.Protocol {
				return core.NewBlindGossipNetwork(core.UniqueUIDs(n, 91))
			},
			digest: leaderDigest,
		},
		{
			name: "bitconv", tagBits: 1, stop: sim.AllLeadersEqual,
			build: func(n int) []sim.Protocol {
				p, _ := core.NewBitConvNetwork(core.UniqueUIDs(n, 92), params, 5)
				return p
			},
			digest: leaderDigest,
		},
		{
			name: "asyncbitconv", tagBits: core.TagBitsNeeded(params), stop: sim.AllLeadersEqual,
			build: func(n int) []sim.Protocol {
				p, _ := core.NewAsyncBitConvNetwork(core.UniqueUIDs(n, 93), params, 5)
				return p
			},
			digest: leaderDigest,
		},
		{
			name: "pushpull", tagBits: 0, stop: rumor.AllInformed,
			build: func(n int) []sim.Protocol {
				return rumor.NewPushPullNetwork(n, map[int]bool{0: true})
			},
			digest: func(p []sim.Protocol) uint64 { return uint64(rumor.CountInformed(p)) },
		},
		{
			name: "ppush", tagBits: 1, stop: rumor.AllInformed,
			build: func(n int) []sim.Protocol {
				return rumor.NewPPushNetwork(n, map[int]bool{0: true})
			},
			digest: func(p []sim.Protocol) uint64 { return uint64(rumor.CountInformed(p)) },
		},
	}
}

// sweepPlan is the conformance sweep's full-repertoire fault plan for an
// n-node network (n > 200): rate churn, a partition with a scheduled heal,
// a corruption burst, message loss and tag flips.
func sweepPlan(n int) fault.Plan {
	return fault.Plan{
		Seed: 31, CrashRate: 0.002, RecoverRate: 0.3, MaxDown: n / 8,
		ProposalLoss: 0.05, ConnLoss: 0.03, TagFlipRate: 0.02,
		Corruptions: []fault.Burst{{Round: 12, Nodes: []int{3, 9, 200}}},
		Partitions:  []fault.Partition{{Start: 5, Heal: 25, Parts: 2}},
	}
}

// TestParallelRoundConformanceAcrossWorkers pins the contract behind the
// parallel round core: Workers is a throughput knob, never a semantic one.
// Every protocol in the repertoire runs to its stop condition on the
// paper's line-of-stars topology at worker counts on both sides of the
// chunking thresholds (1 = inline path, 2 = minimal split, 7 = uneven
// chunks, 16 > GOMAXPROCS on most CI hosts), and every execution must
// produce a bit-identical Result, final protocol state, and — with a JSONL
// sink attached — a byte-identical event trace: per-worker buffers flushed
// in chunk order must reproduce the sequential ascending-node emission order
// exactly (the contract mtmtrace diff relies on).
//
// The forced-pool columns run the round on the persistent worker pool with
// real goroutines even where the engine would otherwise resolve inline (n
// below the gate, or a single-P host); the other columns run every phase
// inline as one chunk. There is one round core, so the sweep shows that
// chunking and the epoch-published pool change scheduling, not semantics.
// It compares the engine only with itself: TestEngineMatchesOracle checks
// the semantics against the reference executor.
//
// The faulted column repeats the sweep with a full-repertoire fault plan
// (rate churn, a partition with a scheduled heal, corruption bursts, message
// loss, tag flips) and the invariant audit on: node-addressed fault draws
// are pure functions of (plan seed, kind, node, round), so the faulted
// execution — trace bytes included — must be just as worker-independent as
// the fault-free one.
func TestParallelRoundConformanceAcrossWorkers(t *testing.T) {
	f := gen.SqrtLineOfStars(20) // n = 420, Δ = 22: hubs stress degree-balanced chunking
	variants := []struct {
		name    string
		workers int
		pool    bool
	}{
		{"w1", 1, false},
		{"w2", 2, false},
		{"w7", 7, false},
		{"w16", 16, false},
		{"w2-pool", 2, true},
		{"w7-pool", 7, true},
		{"w16-pool", 16, true},
	}
	plan := sweepPlan(f.N())
	for _, faulted := range []bool{false, true} {
		col := "fault-free"
		if faulted {
			col = "faulted"
		}
		for _, tc := range conformanceCases(f.N(), 22) {
			t.Run(col+"/"+tc.name, func(t *testing.T) {
				var wantRes sim.Result
				var wantDigest uint64
				var wantTrace []byte
				for i, v := range variants {
					protocols := tc.build(f.N())
					var buf bytes.Buffer
					cfg := sim.Config{
						Seed: 29, TagBits: tc.tagBits, Workers: v.workers,
						MaxRounds: 2_000_000, Sink: obs.NewJSONL(&buf),
					}
					if v.pool {
						cfg = sim.ForcePool(cfg)
					}
					if faulted {
						// A fresh injector per engine run: injectors carry
						// mutable down-state across rounds.
						in, err := fault.NewInjector(plan, f.N())
						if err != nil {
							t.Fatal(err)
						}
						cfg.Faults = in
						cfg.Check = true
					}
					eng, err := sim.New(dyngraph.NewPermuted(f, 2, 17), protocols, cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := eng.Run(tc.stop)
					eng.Close()
					if err != nil {
						t.Fatalf("%s: %v", v.name, err)
					}
					digest := tc.digest(protocols)
					if i == 0 {
						wantRes, wantDigest, wantTrace = res, digest, buf.Bytes()
						continue
					}
					if res != wantRes || digest != wantDigest {
						t.Fatalf("%s diverged from %s: (%+v, %#x) vs (%+v, %#x)",
							v.name, variants[0].name, res, digest, wantRes, wantDigest)
					}
					if !bytes.Equal(buf.Bytes(), wantTrace) {
						t.Fatalf("%s trace diverged from %s: %d vs %d bytes (first difference at byte %d)",
							v.name, variants[0].name, buf.Len(), len(wantTrace), firstDiff(buf.Bytes(), wantTrace))
					}
				}
			})
		}
	}
}

// firstDiff returns the index of the first differing byte (or the shorter
// length when one slice is a prefix of the other).
func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestActiveSetMatchingZeroAllocs pins the tagged neighbor pick
// (RandomNeighborWithTag) at zero steady-state allocations with Workers=1:
// the candidate scratch must live on the Context and be reused across
// rounds. PPush's informed nodes pick among neighbors advertising 1 every
// round.
func TestActiveSetMatchingZeroAllocs(t *testing.T) {
	const n = 256
	eng, err := sim.New(
		dyngraph.NewStatic(gen.RandomRegular(n, 8, 4)),
		rumor.NewPPushNetwork(n, map[int]bool{0: true}),
		sim.Config{Seed: 6, TagBits: 1, Workers: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunRounds(1, 50)
	next := 51
	avg := testing.AllocsPerRun(200, func() {
		eng.RunRounds(next, 1)
		next++
	})
	if avg != 0 {
		t.Fatalf("matching steady-state round allocates: %v allocs/round, want 0", avg)
	}
}

// TestParallelMillionNodeRound is the scale acceptance check: a full round
// on a 1,048,576-node mesh and on a degree-8 expander must materialize and
// complete — no quadratic intermediate allocation anywhere in the generator,
// scheduler, or round core — and the round's stats must be bit-identical
// across worker counts spanning the inline and parallel dispatch paths.
// The faulted expander subtest repeats the sweep with rate-driven loss and a
// live partition: fault draws at a million nodes stay worker-independent.
func TestParallelMillionNodeRound(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-node round skipped in -short mode")
	}
	expander := gen.Expander(1<<20, 8, 77)
	cases := []struct {
		f       gen.Family
		faulted bool
	}{
		{gen.Torus(1024, 1024), false},
		{expander, false},
		{expander, true},
	}
	plan := fault.Plan{
		Seed: 13, ProposalLoss: 0.01, ConnLoss: 0.01,
		Partitions: []fault.Partition{{Start: 1, Parts: 2}},
	}
	for _, c := range cases {
		f, faulted := c.f, c.faulted
		name := f.Name
		if faulted {
			name += "/faulted"
		}
		t.Run(name, func(t *testing.T) {
			var want sim.RoundStats
			for i, workers := range []int{1, 2, 8} {
				var got sim.RoundStats
				cfg := sim.Config{
					Seed: 11, Workers: workers, MaxRounds: 1,
					Observer: func(s sim.RoundStats) { got = s },
				}
				if faulted {
					in, err := fault.NewInjector(plan, f.N())
					if err != nil {
						t.Fatal(err)
					}
					cfg.Faults = in
				}
				eng, err := sim.New(
					dyngraph.NewStatic(f),
					core.NewBlindGossipNetwork(core.UniqueUIDs(f.N(), 7)),
					cfg,
				)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Run(nil); !errors.Is(err, sim.ErrNotStabilized) {
					t.Fatalf("Workers=%d: unexpected error %v", workers, err)
				}
				if got.ActiveNodes != f.N() || got.Proposals == 0 || got.Connections == 0 {
					t.Fatalf("Workers=%d: implausible round stats %+v", workers, got)
				}
				if faulted && got.FaultLost == 0 {
					t.Fatalf("Workers=%d: no fault-lost proposals under loss rates and a live partition", workers)
				}
				if i == 0 {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("Workers=%d diverged: %+v vs %+v", workers, got, want)
				}
			}
		})
	}
}
