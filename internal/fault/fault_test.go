package fault

import (
	"math"
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		ok   bool
	}{
		{"zero plan", Plan{}, true},
		{"rates in range", Plan{CrashRate: 0.5, RecoverRate: 1, ProposalLoss: 0.1, ConnLoss: 0.2, TagFlipRate: 0.3}, true},
		{"negative rate", Plan{CrashRate: -0.1}, false},
		{"rate above one", Plan{ProposalLoss: 1.5}, false},
		{"crash rate NaN", Plan{CrashRate: math.NaN()}, false},
		{"recover rate NaN", Plan{RecoverRate: math.NaN()}, false},
		{"proposal loss NaN", Plan{ProposalLoss: math.NaN()}, false},
		{"conn loss NaN", Plan{ConnLoss: math.NaN()}, false},
		{"tag flip rate NaN", Plan{TagFlipRate: math.NaN()}, false},
		{"rate infinite", Plan{ConnLoss: math.Inf(1)}, false},
		{"scripted ok", Plan{Crashes: []NodeRound{{Round: 3, Node: 7}}}, true},
		{"crash round zero", Plan{Crashes: []NodeRound{{Round: 0, Node: 0}}}, false},
		{"crash node out of range", Plan{Crashes: []NodeRound{{Round: 1, Node: 8}}}, false},
		{"recovery node negative", Plan{Recoveries: []NodeRound{{Round: 1, Node: -1}}}, false},
		{"crash then recovery", Plan{Crashes: []NodeRound{{Round: 2, Node: 3}},
			Recoveries: []NodeRound{{Round: 4, Node: 3}}}, true},
		{"recovery without crash", Plan{Recoveries: []NodeRound{{Round: 4, Node: 3}}}, false},
		{"recovery before crash", Plan{Crashes: []NodeRound{{Round: 5, Node: 3}},
			Recoveries: []NodeRound{{Round: 4, Node: 3}}}, false},
		{"recovery at crash round", Plan{Crashes: []NodeRound{{Round: 4, Node: 3}},
			Recoveries: []NodeRound{{Round: 4, Node: 3}}}, false},
		{"recovery of other crashed node", Plan{Crashes: []NodeRound{{Round: 2, Node: 1}},
			Recoveries: []NodeRound{{Round: 4, Node: 3}}}, false},
		{"duplicate crash entry", Plan{Crashes: []NodeRound{{Round: 2, Node: 3}, {Round: 2, Node: 3}}}, false},
		{"same node crashes twice at different rounds", Plan{Crashes: []NodeRound{
			{Round: 2, Node: 3}, {Round: 6, Node: 3}}, Recoveries: []NodeRound{{Round: 4, Node: 3}}}, true},
		{"corruption ok", Plan{Corruptions: []Burst{{Round: 2, Nodes: []int{0, 7}}}}, true},
		{"corruption empty", Plan{Corruptions: []Burst{{Round: 2}}}, false},
		{"corruption node out of range", Plan{Corruptions: []Burst{{Round: 2, Nodes: []int{8}}}}, false},
		{"maxdown negative", Plan{MaxDown: -1}, false},
		{"maxdown at n", Plan{MaxDown: 8}, true},
		{"maxdown above n", Plan{MaxDown: 9}, false},
		{"partition ok", Plan{Partitions: []Partition{{Start: 3, Heal: 9, Parts: 2}}}, true},
		{"partition never heals", Plan{Partitions: []Partition{{Start: 3, Heal: 0, Parts: 3}}}, true},
		{"partition start zero", Plan{Partitions: []Partition{{Start: 0, Heal: 9, Parts: 2}}}, false},
		{"partition heals before start", Plan{Partitions: []Partition{{Start: 5, Heal: 5, Parts: 2}}}, false},
		{"partition one part", Plan{Partitions: []Partition{{Start: 3, Parts: 1}}}, false},
		{"partition more parts than nodes", Plan{Partitions: []Partition{{Start: 3, Parts: 9}}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Validate(8)
			if (err == nil) != tc.ok {
				t.Errorf("Validate = %v, want ok=%v", err, tc.ok)
			}
		})
	}
	if _, err := NewInjector(Plan{}, 0); err == nil {
		t.Error("NewInjector accepted n=0")
	}
}

func TestScriptedChurn(t *testing.T) {
	plan := Plan{
		Crashes:    []NodeRound{{Round: 2, Node: 3}, {Round: 2, Node: 1}, {Round: 5, Node: 1}},
		Recoveries: []NodeRound{{Round: 4, Node: 1}, {Round: 4, Node: 3}},
	}
	in, err := NewInjector(plan, 8)
	if err != nil {
		t.Fatal(err)
	}

	in.BeginRound(1)
	if in.DownMask() != nil || in.DownCount() != 0 {
		t.Fatal("round 1: nodes down before any scripted crash")
	}

	in.BeginRound(2)
	if got := in.NewlyDown(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("round 2 NewlyDown = %v, want [1 3] (ascending)", got)
	}
	if !in.Down(1) || !in.Down(3) || in.Down(0) || in.DownCount() != 2 {
		t.Fatalf("round 2 down state wrong")
	}
	mask := in.DownMask()
	if mask == nil || !mask[1] || !mask[3] || mask[0] {
		t.Fatalf("round 2 DownMask = %v", mask)
	}

	in.BeginRound(3)
	if len(in.NewlyDown()) != 0 || len(in.NewlyRecovered()) != 0 || in.DownCount() != 2 {
		t.Fatal("round 3: churn fired without scripted events or rates")
	}

	in.BeginRound(4)
	if got := in.NewlyRecovered(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("round 4 NewlyRecovered = %v, want [1 3]", got)
	}
	if in.DownMask() != nil {
		t.Fatal("round 4: mask non-nil after full recovery")
	}

	// Re-crash of node 1 at round 5 works; crash of a down node is a no-op.
	in.BeginRound(5)
	if got := in.NewlyDown(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("round 5 NewlyDown = %v, want [1]", got)
	}
	in2, _ := NewInjector(Plan{Crashes: []NodeRound{{Round: 1, Node: 0}, {Round: 2, Node: 0}}}, 4)
	in2.BeginRound(1)
	in2.BeginRound(2)
	if len(in2.NewlyDown()) != 0 || in2.DownCount() != 1 {
		t.Error("double crash of the same node was not a no-op")
	}
}

func TestChurnDeterminism(t *testing.T) {
	plan := Plan{Seed: 99, CrashRate: 0.2, RecoverRate: 0.5}
	run := func() ([]int, []int) {
		in, err := NewInjector(plan, 64)
		if err != nil {
			t.Fatal(err)
		}
		var downs, recovers []int
		for r := 1; r <= 200; r++ {
			in.BeginRound(r)
			for _, u := range in.NewlyDown() {
				downs = append(downs, r*1000+int(u))
			}
			for _, u := range in.NewlyRecovered() {
				recovers = append(recovers, r*1000+int(u))
			}
		}
		return downs, recovers
	}
	d1, r1 := run()
	d2, r2 := run()
	if len(d1) == 0 {
		t.Fatal("no crashes at CrashRate 0.2 over 200 rounds")
	}
	if len(r1) == 0 {
		t.Fatal("no recoveries at RecoverRate 0.5")
	}
	if !equalInts(d1, d2) || !equalInts(r1, r2) {
		t.Error("same plan produced different churn across runs")
	}

	// A different fault seed produces a different pattern.
	other := plan
	other.Seed = 100
	in, _ := NewInjector(other, 64)
	var d3 []int
	for r := 1; r <= 200; r++ {
		in.BeginRound(r)
		for _, u := range in.NewlyDown() {
			d3 = append(d3, r*1000+int(u))
		}
	}
	if equalInts(d1, d3) {
		t.Error("different fault seeds produced identical churn")
	}
}

func TestMaxDownCap(t *testing.T) {
	in, err := NewInjector(Plan{Seed: 7, CrashRate: 1, MaxDown: 3}, 16)
	if err != nil {
		t.Fatal(err)
	}
	in.BeginRound(1)
	if in.DownCount() != 3 {
		t.Errorf("DownCount = %d, want capped at 3", in.DownCount())
	}
	// MaxDown boundary: a cap of n lets churn take the whole network down.
	inAll, _ := NewInjector(Plan{Seed: 7, CrashRate: 1, MaxDown: 16}, 16)
	inAll.BeginRound(1)
	if inAll.DownCount() != 16 {
		t.Errorf("MaxDown = n: DownCount = %d, want 16", inAll.DownCount())
	}
	// Scripted crashes are exempt from the cap.
	in2, _ := NewInjector(Plan{Seed: 7, CrashRate: 1, MaxDown: 1,
		Crashes: []NodeRound{{Round: 1, Node: 4}, {Round: 1, Node: 5}}}, 16)
	in2.BeginRound(1)
	if !in2.Down(4) || !in2.Down(5) {
		t.Error("scripted crashes were blocked by MaxDown")
	}
}

func TestDropAndFlipDeterminism(t *testing.T) {
	plan := Plan{Seed: 5, ProposalLoss: 0.3, ConnLoss: 0.2, TagFlipRate: 0.4}
	run := func() []uint64 {
		in, err := NewInjector(plan, 8)
		if err != nil {
			t.Fatal(err)
		}
		var got []uint64
		for r := 1; r <= 50; r++ {
			in.BeginRound(r)
			for u := int32(0); u < 8; u++ {
				tag, flipped := in.FlipTag(u, r, 3, uint64(u))
				if flipped {
					got = append(got, uint64(r)<<32|tag)
				}
				if in.DropProposal(u, r) {
					got = append(got, uint64(r)<<16|uint64(u))
				}
				if in.DropConnection(u, (u+1)%8, r) {
					got = append(got, uint64(r)<<8|uint64(u))
				}
			}
		}
		return got
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no faults drawn at high rates")
	}
	if len(a) != len(b) {
		t.Fatalf("draw counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs", i)
		}
	}
}

// TestDrawsAreOrderIndependent pins the property the parallel round core
// rests on: a per-node draw's outcome depends only on (plan seed, kind,
// node, round) — evaluating draws in reverse order, skipping nodes, or
// interleaving kinds never changes any verdict.
func TestDrawsAreOrderIndependent(t *testing.T) {
	plan := Plan{Seed: 41, ProposalLoss: 0.4, ConnLoss: 0.3, TagFlipRate: 0.5}
	const n, rounds = 32, 20
	in, err := NewInjector(plan, n)
	if err != nil {
		t.Fatal(err)
	}

	type verdicts struct {
		drop, conn bool
		tag        uint64
		flipped    bool
	}
	forward := make([][]verdicts, rounds+1)
	for r := 1; r <= rounds; r++ {
		in.BeginRound(r)
		forward[r] = make([]verdicts, n)
		for u := int32(0); u < n; u++ {
			v := &forward[r][int(u)]
			v.drop = in.DropProposal(u, r)
			v.conn = in.DropConnection(u, (u+3)%n, r)
			v.tag, v.flipped = in.FlipTag(u, r, 4, uint64(u)%16)
		}
	}

	// Second injector: descending node order, kinds interleaved differently,
	// odd nodes queried twice and even rounds partially skipped.
	in2, err := NewInjector(plan, n)
	if err != nil {
		t.Fatal(err)
	}
	for r := rounds; r >= 1; r-- {
		in2.BeginRound(r)
		for u := int32(n - 1); u >= 0; u-- {
			if r%2 == 0 && u%4 == 0 {
				continue // skipped draws must not shift anyone else's
			}
			want := forward[r][int(u)]
			if u%2 == 1 {
				_ = in2.DropProposal(u, r) // replay: draws are idempotent
			}
			tag, flipped := in2.FlipTag(u, r, 4, uint64(u)%16)
			if got := in2.DropProposal(u, r); got != want.drop {
				t.Fatalf("round %d node %d: DropProposal %v out of order, want %v", r, u, got, want.drop)
			}
			if got := in2.DropConnection(u, (u+3)%n, r); got != want.conn {
				t.Fatalf("round %d node %d: DropConnection %v out of order, want %v", r, u, got, want.conn)
			}
			if tag != want.tag || flipped != want.flipped {
				t.Fatalf("round %d node %d: FlipTag (%d, %v) out of order, want (%d, %v)",
					r, u, tag, flipped, want.tag, want.flipped)
			}
		}
	}
}

func TestFlipTagStaysInRange(t *testing.T) {
	in, _ := NewInjector(Plan{Seed: 3, TagFlipRate: 1}, 256)
	in.BeginRound(1)
	const bits = 4
	for u := int32(0); u < 100; u++ {
		tag, flipped := in.FlipTag(u, 1, bits, 0b1010)
		if !flipped {
			t.Fatal("TagFlipRate 1 did not flip")
		}
		if tag >= 1<<bits {
			t.Fatalf("flipped tag %#x exceeds %d bits", tag, bits)
		}
		if tag == 0b1010 {
			t.Fatal("flip produced the original tag")
		}
	}
	// Zero tag bits (no advertisements) can never flip.
	if _, flipped := in.FlipTag(0, 1, 0, 0); flipped {
		t.Error("flip with 0 tag bits")
	}
}

func TestZeroRatesConsumeNoDraws(t *testing.T) {
	// Zero-rate plans draw nothing: the query methods return their no-fault
	// verdicts without touching any stream, so adding unused knobs can never
	// perturb existing runs.
	in, _ := NewInjector(Plan{Seed: 11, Crashes: []NodeRound{{Round: 1, Node: 0}}}, 4)
	in.BeginRound(1)
	churn := in.rng
	if in.DropProposal(1, 1) || in.DropConnection(1, 2, 1) {
		t.Fatal("zero-rate drop fired")
	}
	if _, flipped := in.FlipTag(1, 1, 3, 1); flipped {
		t.Fatal("zero-rate flip fired")
	}
	if in.rng != churn {
		t.Error("zero-rate queries advanced the injector's churn stream")
	}
}

// TestCorruptTargets pins that burst targets come back in ascending node
// order regardless of plan declaration order — corruptAt is map-backed, and
// map iteration order must never leak into results.
func TestCorruptTargets(t *testing.T) {
	in, err := NewInjector(Plan{Corruptions: []Burst{
		{Round: 3, Nodes: []int{5, 1}},
		{Round: 3, Nodes: []int{2}},
		{Round: 7, Nodes: []int{0}},
	}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.CorruptTargets(2); got != nil {
		t.Errorf("round 2 targets = %v, want nil", got)
	}
	got := in.CorruptTargets(3)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 5 {
		t.Errorf("round 3 targets = %v, want [1 2 5]", got)
	}
	if got := in.CorruptTargets(7); len(got) != 1 || got[0] != 0 {
		t.Errorf("round 7 targets = %v", got)
	}

	// Reversed declaration order (and reversed node lists) must produce the
	// identical ascending target lists.
	rev, err := NewInjector(Plan{Corruptions: []Burst{
		{Round: 7, Nodes: []int{0}},
		{Round: 3, Nodes: []int{2}},
		{Round: 3, Nodes: []int{1, 5}},
	}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{2, 3, 7} {
		a, b := in.CorruptTargets(r), rev.CorruptTargets(r)
		if len(a) != len(b) {
			t.Fatalf("round %d: %v vs %v", r, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round %d: declaration order leaked: %v vs %v", r, a, b)
			}
		}
	}
}

func TestPartitionCut(t *testing.T) {
	plan := Plan{Seed: 17, Partitions: []Partition{{Start: 4, Heal: 10, Parts: 2}}}
	const n = 64
	in, err := NewInjector(plan, n)
	if err != nil {
		t.Fatal(err)
	}
	// Find one cut pair and one same-side pair via CutEdge during the window.
	cutU, cutV, sameU, sameV := int32(-1), int32(-1), int32(-1), int32(-1)
	for v := int32(1); v < n; v++ {
		if in.CutEdge(0, v, 5) {
			cutU, cutV = 0, v
		} else {
			sameU, sameV = 0, v
		}
	}
	if cutU < 0 || sameU < 0 {
		t.Fatal("partition did not split node 0's pairs into both sides")
	}
	for r := 1; r <= 12; r++ {
		in.BeginRound(r)
		live := r >= 4 && r < 10
		if got := in.CutEdge(cutU, cutV, r); got != live {
			t.Errorf("round %d: CutEdge(%d, %d) = %v, want %v", r, cutU, cutV, got, live)
		}
		if in.CutEdge(sameU, sameV, r) {
			t.Errorf("round %d: same-component pair reported cut", r)
		}
		// DropConnection folds the cut in deterministically (ConnLoss = 0,
		// so any true verdict is the partition).
		if got := in.DropConnection(cutU, cutV, r); got != live {
			t.Errorf("round %d: DropConnection on cut edge = %v, want %v", r, got, live)
		}
		if in.DropConnection(sameU, sameV, r) {
			t.Errorf("round %d: DropConnection fired on same-component edge with zero ConnLoss", r)
		}
	}
	// Symmetry and determinism of the component assignment.
	in2, _ := NewInjector(plan, n)
	for v := int32(1); v < n; v++ {
		if in.CutEdge(0, v, 5) != in.CutEdge(v, 0, 5) {
			t.Fatalf("CutEdge(0, %d) is asymmetric", v)
		}
		if in.CutEdge(0, v, 5) != in2.CutEdge(0, v, 5) {
			t.Fatalf("component assignment not deterministic for node %d", v)
		}
	}
	// A never-healing partition stays cut arbitrarily far out.
	never, _ := NewInjector(Plan{Seed: 17, Partitions: []Partition{{Start: 2, Parts: 2}}}, n)
	cut := false
	for v := int32(1); v < n; v++ {
		cut = cut || never.CutEdge(0, v, 1_000_000)
	}
	if !cut {
		t.Error("Heal = 0 partition healed")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzPlanValidate decodes a network size n in [1, 64] and a Plan whose
// rates are raw float64 bits (so NaN and ±Inf occur) and whose scripted
// faults come from 4-byte records of script. Validate must never panic and
// must word every rejection "fault: ...". An accepted plan must hold every
// rate in [0, 1], compile through NewInjector, and survive a few rounds of
// every query the engine makes.
func FuzzPlanValidate(f *testing.F) {
	bits := math.Float64bits
	// One valid plan per feature, then the NaN rate that Validate once let
	// through as a fault-free plan.
	f.Add(uint8(15), bits(0.1), bits(0.5), uint64(0), uint64(0), uint64(0), int8(0), true, []byte(nil))
	f.Add(uint8(15), bits(0.2), uint64(0), uint64(0), uint64(0), uint64(0), int8(3), false, []byte(nil))
	f.Add(uint8(7), uint64(0), uint64(0), bits(0.2), bits(0.3), bits(0.25), int8(0), false, []byte(nil))
	f.Add(uint8(7), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), int8(0), true,
		[]byte{0, 2, 3, 0, 1, 4, 3, 0})
	f.Add(uint8(7), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), int8(0), false,
		[]byte{2 | 2<<2, 3, 1, 5})
	f.Add(uint8(7), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), int8(0), false,
		[]byte{3, 2, 6, 2, 3, 4, 0, 3})
	f.Add(uint8(63), uint64(0), uint64(0), bits(math.NaN()), uint64(0), uint64(0), int8(0), false, []byte(nil))
	f.Fuzz(func(t *testing.T, nb uint8, crash, recover, prop, conn, flip uint64, maxDown int8, reset bool, script []byte) {
		n := 1 + int(nb%64)
		p := Plan{
			Seed:           uint64(nb) * 0x9e3779b97f4a7c15,
			CrashRate:      math.Float64frombits(crash),
			RecoverRate:    math.Float64frombits(recover),
			MaxDown:        int(maxDown),
			ResetOnRecover: reset,
			ProposalLoss:   math.Float64frombits(prop),
			ConnLoss:       math.Float64frombits(conn),
			TagFlipRate:    math.Float64frombits(flip),
		}
		for i := 0; i+4 <= len(script) && i < 64; i += 4 {
			op, x, y, z := script[i], int(int8(script[i+1])), int(int8(script[i+2])), int(int8(script[i+3]))
			switch op % 4 {
			case 0:
				p.Crashes = append(p.Crashes, NodeRound{Round: x, Node: y})
			case 1:
				p.Recoveries = append(p.Recoveries, NodeRound{Round: x, Node: y})
			case 2:
				p.Corruptions = append(p.Corruptions, Burst{Round: x, Nodes: []int{y, z}[:op>>2%3]})
			case 3:
				p.Partitions = append(p.Partitions, Partition{Start: x, Heal: y, Parts: z})
			}
		}
		if err := p.Validate(n); err != nil {
			if !strings.HasPrefix(err.Error(), "fault: ") {
				t.Fatalf("rejection %q does not start with %q", err, "fault: ")
			}
			return
		}
		for _, r := range []float64{p.CrashRate, p.RecoverRate, p.ProposalLoss, p.ConnLoss, p.TagFlipRate} {
			if !(r >= 0 && r <= 1) {
				t.Fatalf("Validate accepted rate %v outside [0, 1] in %+v", r, p)
			}
		}
		in, err := NewInjector(p, n)
		if err != nil {
			t.Fatalf("NewInjector rejected a valid plan: %v", err)
		}
		tagBits := 1 + int(nb%64)
		for r := 1; r <= 8; r++ {
			in.BeginRound(r)
			if down := in.DownMask(); down != nil && len(down) != n {
				t.Fatalf("round %d: down mask of %d nodes, want %d", r, len(down), n)
			}
			for u := int32(0); u < int32(n); u++ {
				in.DropProposal(u, r)
				in.DropConnection(u, (u+1)%int32(n), r)
				in.FlipTag(u, r, tagBits, uint64(u))
			}
			for _, u := range in.CorruptTargets(r) {
				if u < 0 || int(u) >= n {
					t.Fatalf("round %d: corruption target %d outside [0, %d)", r, u, n)
				}
			}
		}
	})
}
