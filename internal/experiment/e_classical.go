package experiment

import (
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/rumor"
	"mobiletel/internal/sim"
	"mobiletel/internal/stats"
	"mobiletel/internal/trace"
	"mobiletel/internal/xrand"
)

func init() {
	register(Experiment{
		ID: "E12-classical-vs-mobile",
		Claim: "Related-work motivation (Daum et al. / Section I): the classical " +
			"telephone model lets a node serve unboundedly many connections per " +
			"round, which the mobile telephone model forbids. PUSH-PULL on hub " +
			"topologies is exponentially faster classically (a hub serves all " +
			"leaves at once) — the gap that motivates the model.",
		Run: runE12,
	})
}

func runE12(cfg Config) (*trace.Table, error) {
	trials := pickTrials(cfg, 5, 15)
	starN := pick(cfg.Quick, 64, 256)
	side := pick(cfg.Quick, 6, 12)

	type point struct {
		name   string
		family gen.Family
		src    func(n int, seed uint64) int // rumor source placement
	}
	points := []point{
		{"star (hub source)", gen.Star(starN), func(int, uint64) int { return 0 }},
		{"star (leaf source)", gen.Star(starN), func(int, uint64) int { return 1 }},
		{"line of stars", gen.SqrtLineOfStars(side), func(int, uint64) int { return 0 }},
		{"expander", gen.RandomRegular(starN, 8, cfg.Seed+12000), func(n int, seed uint64) int {
			return int(xrand.Mix3(seed, 3, 0) % uint64(n))
		}},
	}

	table := trace.NewTable("E12 classical vs mobile telephone model (PUSH-PULL rumor spreading)",
		"topology", "n", "Δ", "classical med", "mobile med", "mobile/classical")

	// Points 2·pi and 2·pi+1 are point pi's classical and mobile runs;
	// both model variants of every topology share one pipelined pool.
	allRounds, err := RunCells(cfg, 2*len(points), trials, func(p, trial int) (int, error) {
		pt := points[p/2]
		seed := trialSeed(cfg.Seed, 1400+p/2, trial)
		src := pt.src(pt.family.N(), seed)
		return runTrial(cfg, p, trial, trialRun{sched: dyngraph.NewStatic(pt.family),
			protocols: rumor.NewPushPullNetwork(pt.family.N(), map[int]bool{src: true}),
			cfg:       sim.Config{Seed: seed + 1, TagBits: 0, MaxRounds: 50_000_000, Classical: p%2 == 0},
			stop:      rumor.AllInformed})
	})
	if err != nil {
		return nil, err
	}

	for pi, pt := range points {
		c := stats.IntSummary(allRounds[2*pi])
		m := stats.IntSummary(allRounds[2*pi+1])
		table.AddRow(pt.name, pt.family.N(), pt.family.MaxDegree(), c.Median, m.Median, m.Median/c.Median)
	}
	return table, nil
}
