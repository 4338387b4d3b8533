package experiment

import (
	"fmt"
	"math"

	"mobiletel/internal/bounds"
	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/sim"
	"mobiletel/internal/stats"
	"mobiletel/internal/trace"
)

func init() {
	register(Experiment{
		ID: "E6-bitconv-tau",
		Claim: "Theorem VII.2: bit convergence stabilizes in " +
			"O((1/α)Δ^{1/τ̂}·τ̂·log⁵n) rounds, τ̂ = min(τ, log Δ): rounds should " +
			"fall as τ grows from 1 to log Δ and flatten beyond log Δ. The " +
			"τ-dependence only binds against an adaptive adversary that re-buries " +
			"the convergence frontier each epoch — oblivious random schedules mix " +
			"nodes across bottlenecks and help the algorithm (reported for contrast).",
		Run: runE6,
	})
	register(Experiment{
		ID: "E7-zero-vs-one-bit",
		Claim: "Headline gap (Sections VI vs VII): with one advertising bit, " +
			"leader election beats the b = 0 blind gossip strategy; the speedup " +
			"grows from ~Δ toward ~Δ² as τ grows (largest on low-α topologies).",
		Run: runE7,
	})
}

// idPairs zips a network's UIDs and tags into its ID pairs.
func idPairs(uids, tags []uint64) []core.IDPair {
	pairs := make([]core.IDPair, len(uids))
	for i := range uids {
		pairs[i] = core.IDPair{UID: uids[i], Tag: tags[i]}
	}
	return pairs
}

// leaderIsMin returns a trial check that the elected leader owns the
// smallest (tag, UID) pair of uids and tags. With tags nil (blind gossip)
// that is the smallest UID.
func leaderIsMin(uids, tags []uint64, protocols []sim.Protocol) func() error {
	return func() error {
		want := core.MinUID(uids)
		if tags != nil {
			want = core.MinPair(idPairs(uids, tags)).UID
		}
		if got := protocols[0].Leader(); got != want {
			return fmt.Errorf("elected %d, want %d", got, want)
		}
		return nil
	}
}

func runE6(cfg Config) (*trace.Table, error) {
	trials := pickTrials(cfg, 5, 15)
	n := pick(cfg.Quick, 64, 128)
	points := 15 // star size - 1; Δ = 17
	delta := points + 2
	logDelta := core.Log2Ceil(delta + 1)

	taus := []int{1, 2, 4, logDelta, logDelta * 3}
	table := trace.NewTable(
		fmt.Sprintf("E6 bit convergence vs stability factor (Theorem VII.2), n=%d Δ=%d logΔ=%d", n, delta, logDelta),
		"schedule", "τ", "τ̂", "median", "p90", "Δ^{1/τ̂}·τ̂", "median/factor")

	params := core.DefaultBitConvParams(n, delta)
	oblivious := gen.RandomRegular(n, 16, cfg.Seed+3000)

	// Point 2·pi is τ = taus[pi] against the adaptive adversary and point
	// 2·pi+1 the oblivious schedule; they draw trialSeed points 2·pi+11 and
	// 2·pi+10.
	var builds []func(int) trialRun
	for pi, tau := range taus {
		for _, adaptive := range []bool{true, false} {
			point := pi*2 + 10
			if adaptive {
				point++
			}
			builds = append(builds, func(trial int) trialRun {
				seed := trialSeed(cfg.Seed, point, trial)
				uids := core.UniqueUIDs(n, seed)
				protocols, tags := core.NewBitConvNetwork(uids, params, seed+1)
				var sched dyngraph.Schedule
				if adaptive {
					adv := newAdaptiveStars(n, points, tau)
					adv.SetSource(protocols)
					sched = adv
				} else {
					sched = dyngraph.NewPermuted(oblivious, tau, seed+2)
				}
				return trialRun{sched: sched, protocols: protocols,
					cfg:   sim.Config{Seed: seed + 3, TagBits: 1, MaxRounds: 50_000_000},
					check: leaderIsMin(uids, tags, protocols)}
			})
		}
	}
	allRounds, err := runPointTrials(cfg, trials, builds)
	if err != nil {
		return nil, err
	}
	for i, rounds := range allRounds {
		tau := taus[i/2]
		s := stats.IntSummary(rounds)
		tauHat := bounds.TauHat(tau, delta)
		factor := math.Pow(float64(delta), 1/float64(tauHat)) * float64(tauHat)
		name := "adaptive-stars"
		if i%2 == 1 {
			name = "oblivious-permuted"
		}
		table.AddRow(name, tau, tauHat, s.Median, s.P90, factor, s.Median/factor)
	}
	return table, nil
}

// e7Point is one row of the E7 comparison.
type e7Point struct {
	family   gen.Family
	tau      int // 0 = static (ignored when adaptive)
	adaptive bool
	advN     int // network size for the adaptive adversary
}

func runE7(cfg Config) (*trace.Table, error) {
	trials := pickTrials(cfg, 5, 15)
	size := pick(cfg.Quick, 48, 110)
	side := pick(cfg.Quick, 8, 25)
	advN := pick(cfg.Quick, 64, 128)

	points := []e7Point{
		{family: gen.SqrtLineOfStars(side)},
		{family: gen.SqrtLineOfStars(side), tau: 1},
		{family: gen.RingOfCliques(size/8, 8)},
		{family: gen.RandomRegular(size, 8, cfg.Seed+4000), tau: 1},
		{adaptive: true, tau: 1, advN: advN},
		{adaptive: true, tau: 8, advN: advN},
	}
	table := trace.NewTable("E7 zero-bit vs one-bit leader election (Sections VI vs VII)",
		"schedule", "n", "Δ", "τ", "blind gossip med", "bit conv med", "speedup")

	const advPoints = 15 // adversary star size - 1; Δ = 17

	// Both election algorithms on every point feed one shared pool: points
	// 2·pi and 2·pi+1 are point pi's blind-gossip and bit-convergence runs.
	builds := make([]func(int) trialRun, 0, 2*len(points))
	for pi, pt := range points {
		for _, bitconv := range []bool{false, true} {
			builds = append(builds, func(trial int) trialRun {
				seed := trialSeed(cfg.Seed, pi+20, trial)
				n, delta := pt.advN, advPoints+2
				if !pt.adaptive {
					n, delta = pt.family.N(), pt.family.MaxDegree()
				}
				uids := core.UniqueUIDs(n, seed)
				var protocols []sim.Protocol
				tagBits := 0
				if bitconv {
					protocols, _ = core.NewBitConvNetwork(uids, core.DefaultBitConvParams(n, delta), seed+1)
					tagBits = 1
				} else {
					protocols = core.NewBlindGossipNetwork(uids)
				}
				var sched dyngraph.Schedule
				switch {
				case pt.adaptive:
					adv := newAdaptiveStars(n, advPoints, pt.tau)
					adv.SetSource(protocols)
					sched = adv
				case pt.tau > 0:
					sched = dyngraph.NewPermuted(pt.family, pt.tau, seed+1)
				default:
					sched = dyngraph.NewStatic(pt.family)
				}
				return trialRun{sched: sched, protocols: protocols,
					cfg: sim.Config{Seed: seed + 2, TagBits: tagBits, MaxRounds: 100_000_000}}
			})
		}
	}
	allRounds, err := runPointTrials(cfg, trials, builds)
	if err != nil {
		return nil, err
	}

	for pi, pt := range points {
		bg := stats.IntSummary(allRounds[2*pi])
		bc := stats.IntSummary(allRounds[2*pi+1])
		tau := "inf"
		if pt.tau > 0 {
			tau = fmt.Sprintf("%d", pt.tau)
		}
		var name string
		var n, delta int
		switch {
		case pt.adaptive:
			name, n, delta = "adaptive-stars", pt.advN, advPoints+2
		case pt.tau > 0:
			name, n, delta = "permuted/"+pt.family.Name, pt.family.N(), pt.family.MaxDegree()
		default:
			name, n, delta = "static/"+pt.family.Name, pt.family.N(), pt.family.MaxDegree()
		}
		table.AddRow(name, n, delta, tau, bg.Median, bc.Median, bg.Median/bc.Median)
	}
	return table, nil
}
