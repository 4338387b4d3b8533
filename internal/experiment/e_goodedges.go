package experiment

import (
	"fmt"
	"slices"

	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/sim"
	"mobiletel/internal/trace"
)

func init() {
	register(Experiment{
		ID: "E11-good-edge-probability",
		Claim: "Definition VI.2 / Theorem VI.1 key step: for any directed edge " +
			"(u,v), the probability that blind gossip connects u to v in a round " +
			"is at least the 'good edge' probability 1/(4·d(u)·d(v)) ≥ 1/(4Δ²). " +
			"Measured per-edge connection frequencies must clear that floor.",
		Run: runE11,
	})
}

// connCounter wraps blind gossip behavior and counts, for each directed
// neighbor pair (self, peer), how many rounds ended with a connection in
// which self was the proposer.
type connCounter struct {
	inner    *core.BlindGossip
	id       int32
	proposed int32 // neighbor proposed to this round, or -1
	counts   map[[2]int32]int
}

func (c *connCounter) Advertise(ctx *sim.Context) uint64 { return c.inner.Advertise(ctx) }

func (c *connCounter) Decide(ctx *sim.Context) (int32, bool) {
	target, propose := c.inner.Decide(ctx)
	if propose {
		c.proposed = target
	} else {
		c.proposed = -1
	}
	return target, propose
}

func (c *connCounter) Outgoing(ctx *sim.Context, peer int32) sim.Message {
	return c.inner.Outgoing(ctx, peer)
}

func (c *connCounter) Deliver(ctx *sim.Context, peer int32, msg sim.Message) {
	if c.proposed == peer {
		c.counts[[2]int32{c.id, peer}]++
	}
	c.inner.Deliver(ctx, peer, msg)
}

func (c *connCounter) EndRound(ctx *sim.Context) {
	c.proposed = -1
	c.inner.EndRound(ctx)
}

func (c *connCounter) Leader() uint64 { return c.inner.Leader() }

func runE11(cfg Config) (*trace.Table, error) {
	rounds := pick(cfg.Quick, 60_000, 250_000)

	families := []gen.Family{
		gen.Star(16),           // maximal asymmetry: hub degree 15, leaves 1
		gen.SqrtLineOfStars(5), // the lower-bound construction
		gen.RandomRegular(24, 4, cfg.Seed+9000),
		gen.Clique(12),
	}

	table := trace.NewTable("E11 good-edge probability floor (Definition VI.2)",
		"family", "n", "edges checked", "min measured/floor", "median measured/floor")

	// Each family is one point with one trial that runs the full horizon.
	// The check turns the trial's connection counts into ratios[fi], the
	// measured/floor ratio of every directed edge; no checkpoint cell can
	// hold those, so the batch runs without one.
	ratios := make([][]float64, len(families))
	builds := make([]func(int) trialRun, len(families))
	for fi, f := range families {
		builds[fi] = func(trial int) trialRun {
			counts := make(map[[2]int32]int)
			protocols := make([]sim.Protocol, f.N())
			uids := core.UniqueUIDs(f.N(), trialSeed(cfg.Seed, 9100+fi, trial))
			for i := range protocols {
				protocols[i] = &connCounter{
					inner:  core.NewBlindGossip(uids[i]),
					id:     int32(i),
					counts: counts,
				}
			}
			return trialRun{sched: dyngraph.NewStatic(f), protocols: protocols,
				cfg:  sim.Config{Seed: trialSeed(cfg.Seed, 9200+fi, trial), MaxRounds: rounds},
				stop: atHorizon(rounds),
				check: func() error {
					ratios[fi] = goodEdgeRatios(f, counts, rounds)
					return nil
				}}
		}
	}
	if _, err := runPointTrials(withoutCheckpoint(cfg), 1, builds); err != nil {
		return nil, err
	}

	for fi, f := range families {
		minRatio := slices.Min(ratios[fi])
		table.AddRow(f.Name, f.N(), len(ratios[fi]), minRatio, medianOf(ratios[fi]))
		if minRatio < 0.85 { // the floor is exactly tight for hub→leaf edges; allow sampling noise
			return table, fmt.Errorf("E11: %s edge connection frequency %.3f of floor — bound violated",
				f.Name, minRatio)
		}
	}
	return table, nil
}

// goodEdgeRatios returns, for every directed edge (u,v) of f, its measured
// connection frequency over rounds divided by its floor 1/(4·d(u)·d(v)).
func goodEdgeRatios(f gen.Family, counts map[[2]int32]int, rounds int) []float64 {
	ratios := make([]float64, 0, 2*f.Graph.M())
	f.Graph.Edges(func(u, v int) {
		for _, pair := range [][2]int{{u, v}, {v, u}} {
			floor := 1 / (4 * float64(f.Graph.Degree(pair[0])) * float64(f.Graph.Degree(pair[1])))
			measured := float64(counts[[2]int32{int32(pair[0]), int32(pair[1])}]) / float64(rounds)
			ratios = append(ratios, measured/floor)
		}
	})
	return ratios
}

// medianOf returns the upper median of xs, sorted[len/2].
func medianOf(xs []float64) float64 {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	return sorted[len(sorted)/2]
}
