package rumor_test

import (
	"testing"

	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/obs"
	"mobiletel/internal/rumor"
	"mobiletel/internal/sim"
)

func runSpread(t *testing.T, sched dyngraph.Schedule, protocols []sim.Protocol, tagBits int, seed uint64) sim.Result {
	t.Helper()
	eng, err := sim.New(sched, protocols, sim.Config{Seed: seed, TagBits: tagBits, MaxRounds: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(rumor.AllInformed)
	if err != nil {
		t.Fatalf("rumor did not spread: %v", err)
	}
	return res
}

func TestPushPullSpreadsOnFamilies(t *testing.T) {
	families := []gen.Family{
		gen.Clique(32),
		gen.Path(30),
		gen.SqrtLineOfStars(5),
		gen.RandomRegular(64, 4, 6),
	}
	for _, f := range families {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			protocols := rumor.NewPushPullNetwork(f.N(), map[int]bool{0: true})
			res := runSpread(t, dyngraph.NewStatic(f), protocols, 0, 11)
			if rumor.CountInformed(protocols) != f.N() {
				t.Fatal("not everyone informed at stop")
			}
			if res.StabilizedRound < 1 {
				t.Fatal("no stabilization round recorded")
			}
		})
	}
}

func TestPPushSpreadsOnFamilies(t *testing.T) {
	families := []gen.Family{
		gen.Clique(32),
		gen.SqrtLineOfStars(5),
		gen.RandomRegular(64, 4, 6),
	}
	for _, f := range families {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			protocols := rumor.NewPPushNetwork(f.N(), map[int]bool{0: true})
			runSpread(t, dyngraph.NewStatic(f), protocols, 1, 12)
			if rumor.CountInformed(protocols) != f.N() {
				t.Fatal("not everyone informed at stop")
			}
		})
	}
}

func TestPPushUnderChange(t *testing.T) {
	f := gen.RandomRegular(48, 6, 2)
	protocols := rumor.NewPPushNetwork(48, map[int]bool{3: true})
	sched := dyngraph.NewPermuted(f, 1, 7)
	runSpread(t, sched, protocols, 1, 13)
	if rumor.CountInformed(protocols) != 48 {
		t.Fatal("not everyone informed under tau=1")
	}
}

func TestRumorMonotonicity(t *testing.T) {
	// Informed count never decreases; rumor never appears from nothing.
	f := gen.RandomRegular(40, 4, 9)
	protocols := rumor.NewPushPullNetwork(40, map[int]bool{5: true})
	prev := 1
	stop := func(round int, ps []sim.Protocol) bool {
		cur := rumor.CountInformed(ps)
		if cur < prev {
			t.Fatalf("informed count dropped from %d to %d", prev, cur)
		}
		prev = cur
		return rumor.AllInformed(round, ps)
	}
	eng, err := sim.New(dyngraph.NewStatic(f), protocols, sim.Config{Seed: 3, MaxRounds: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(stop); err != nil {
		t.Fatal(err)
	}
}

func TestNoRumorNoSpread(t *testing.T) {
	// With zero informed nodes, nothing ever becomes informed.
	f := gen.Clique(10)
	protocols := rumor.NewPushPullNetwork(10, nil)
	eng, err := sim.New(dyngraph.NewStatic(f), protocols, sim.Config{Seed: 1, MaxRounds: 200})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = eng.Run(nil)
	if rumor.CountInformed(protocols) != 0 {
		t.Fatal("rumor appeared from nothing")
	}
}

func TestPPushFasterThanPushPullOnLineOfStars(t *testing.T) {
	// The b=0 vs b=1 rumor gap (the motivation for Section VII): PPUSH
	// should beat PUSH-PULL clearly on the adversarial family. Run a few
	// seeds and compare medians coarsely.
	f := gen.SqrtLineOfStars(6)
	var ppSum, ppushSum int
	for seed := uint64(0); seed < 5; seed++ {
		pp := rumor.NewPushPullNetwork(f.N(), map[int]bool{0: true})
		resPP := runSpread(t, dyngraph.NewStatic(f), pp, 0, seed)
		ppSum += resPP.StabilizedRound

		ppush := rumor.NewPPushNetwork(f.N(), map[int]bool{0: true})
		resPPush := runSpread(t, dyngraph.NewStatic(f), ppush, 1, seed)
		ppushSum += resPPush.StabilizedRound
	}
	if ppushSum >= ppSum {
		t.Fatalf("PPUSH (%d total rounds) not faster than PUSH-PULL (%d) on line of stars",
			ppushSum, ppSum)
	}
}

func TestInformedSeedVariants(t *testing.T) {
	// Multiple seeds spread faster than a single one; also exercises the
	// multi-source path.
	f := gen.Path(60)
	single := rumor.NewPushPullNetwork(60, map[int]bool{0: true})
	resSingle := runSpread(t, dyngraph.NewStatic(f), single, 0, 5)

	multi := rumor.NewPushPullNetwork(60, map[int]bool{0: true, 30: true, 59: true})
	resMulti := runSpread(t, dyngraph.NewStatic(f), multi, 0, 5)

	if resMulti.StabilizedRound >= resSingle.StabilizedRound {
		t.Fatalf("3 sources (%d rounds) not faster than 1 source (%d rounds) on a path",
			resMulti.StabilizedRound, resSingle.StabilizedRound)
	}
}

func TestLeaderReportsInformedStatus(t *testing.T) {
	p := rumor.NewPushPull(false)
	if p.Leader() != 0 || p.Informed() {
		t.Fatal("uninformed state wrong")
	}
	q := rumor.NewPPush(true)
	if q.Leader() != 1 || !q.Informed() {
		t.Fatal("informed state wrong")
	}
}

// TestEveryStrategyTracesInformedTransitions traces each strategy's spread
// from one source and counts its informed transitions: every other node
// learns the rumor once, so a complete run emits n-1 of them.
func TestEveryStrategyTracesInformedTransitions(t *testing.T) {
	f := gen.RandomRegular(48, 6, 3)
	for _, c := range []struct {
		name    string
		tagBits int
		network func(int, map[int]bool) []sim.Protocol
	}{
		{"pushpull", 0, rumor.NewPushPullNetwork},
		{"ppush", 1, rumor.NewPPushNetwork},
		{"push", 0, rumor.NewPushNetwork},
		{"pull", 0, rumor.NewPullNetwork},
	} {
		t.Run(c.name, func(t *testing.T) {
			ring := obs.NewRing(1 << 16)
			eng, err := sim.New(dyngraph.NewStatic(f), c.network(f.N(), map[int]bool{0: true}),
				sim.Config{Seed: 21, TagBits: c.tagBits, MaxRounds: 100_000, Sink: ring})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if _, err := eng.Run(rumor.AllInformed); err != nil {
				t.Fatal(err)
			}
			events := ring.Events()
			if int64(len(events)) != ring.Total() {
				t.Fatalf("ring kept %d of %d events; grow it", len(events), ring.Total())
			}
			informed := 0
			for _, e := range events {
				if e.Type == obs.TypeTransition && e.Kind == obs.KindInformed {
					informed++
				}
			}
			if informed != f.N()-1 {
				t.Fatalf("%d informed transitions, want n-1 = %d", informed, f.N()-1)
			}
		})
	}
}
