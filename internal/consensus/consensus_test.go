package consensus_test

import (
	"slices"
	"testing"

	"mobiletel/internal/consensus"
	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/fault"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/sim"
	"mobiletel/internal/xrand"
)

func runConsensus(t *testing.T, sched dyngraph.Schedule, values []uint64, params core.BitConvParams, seed uint64, activations []int) ([]sim.Protocol, sim.Result) {
	t.Helper()
	protocols, _ := consensus.NewNetwork(values, params, seed)
	eng, err := sim.New(sched, protocols, sim.Config{
		Seed:        seed + 1,
		TagBits:     consensus.TagBits(params),
		MaxRounds:   5_000_000,
		Activations: activations,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(consensus.AllAgree)
	if err != nil {
		t.Fatalf("consensus did not terminate: %v", err)
	}
	return protocols, res
}

func inputsFor(n int, seed uint64) []uint64 {
	rng := xrand.New(seed)
	values := make([]uint64, n)
	for i := range values {
		values[i] = rng.Uint64n(1000)
	}
	return values
}

func checkAgreementAndValidity(t *testing.T, protocols []sim.Protocol, values []uint64) {
	t.Helper()
	decided := protocols[0].(*consensus.Proposer).Value()
	leader := protocols[0].Leader()
	for i, p := range protocols {
		q := p.(*consensus.Proposer)
		if q.Value() != decided || q.Leader() != leader {
			t.Fatalf("node %d disagrees: value=%d leader=%d (want %d, %d)",
				i, q.Value(), q.Leader(), decided, leader)
		}
	}
	// Validity: decided value is some node's input.
	found := false
	for _, v := range values {
		if v == decided {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("decided value %d is nobody's input", decided)
	}
}

func TestConsensusOnFamilies(t *testing.T) {
	families := []gen.Family{
		gen.Clique(24),
		gen.RandomRegular(48, 6, 3),
		gen.RingOfCliques(4, 6),
	}
	for _, f := range families {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			params := core.DefaultBitConvParams(f.N(), f.MaxDegree())
			values := inputsFor(f.N(), 11)
			protocols, _ := runConsensus(t, dyngraph.NewStatic(f), values, params, 5, nil)
			checkAgreementAndValidity(t, protocols, values)
		})
	}
}

func TestConsensusUnderChange(t *testing.T) {
	f := gen.RandomRegular(32, 4, 9)
	params := core.DefaultBitConvParams(32, 4)
	values := inputsFor(32, 21)
	sched := dyngraph.NewPermuted(f, 2, 7)
	protocols, _ := runConsensus(t, sched, values, params, 3, nil)
	checkAgreementAndValidity(t, protocols, values)
}

func TestConsensusWithAsyncActivations(t *testing.T) {
	n := 32
	f := gen.RandomRegular(n, 4, 17)
	params := core.DefaultBitConvParams(n, 4)
	values := inputsFor(n, 31)
	activations := make([]int, n)
	for i := range activations {
		activations[i] = 1 + (i*29)%150
	}
	protocols, res := runConsensus(t, dyngraph.NewStatic(f), values, params, 7, activations)
	checkAgreementAndValidity(t, protocols, values)
	if res.StabilizedRound < 150 {
		t.Fatalf("agreed at round %d, before the last activation", res.StabilizedRound)
	}
}

func TestConsensusDecidedValueBelongsToLeader(t *testing.T) {
	// The decided value must be the *leader's* input, not just any input.
	n := 24
	f := gen.Clique(n)
	params := core.DefaultBitConvParams(n, n-1)
	values := make([]uint64, n)
	for i := range values {
		values[i] = uint64(1000 + i) // distinct, position-identifying
	}
	protocols, tags := consensus.NewNetwork(values, params, 13)
	eng, err := sim.New(dyngraph.NewStatic(f), protocols, sim.Config{
		Seed: 2, TagBits: consensus.TagBits(params), MaxRounds: 5_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(consensus.AllAgree); err != nil {
		t.Fatal(err)
	}

	// Find the owner of the minimum (tag, uid) pair.
	minIdx := 0
	best := protocols[0].(*consensus.Proposer)
	_ = best
	pairs := make([]core.IDPair, n)
	for i, p := range protocols {
		_ = p
		pairs[i] = core.IDPair{Tag: tags[i]}
	}
	// Reconstruct: the leader UID reported must map to the node whose value
	// was decided.
	decided := protocols[0].(*consensus.Proposer).Value()
	for i := range values {
		if values[i] == decided {
			minIdx = i
		}
	}
	// That node's pair must be the global minimum among (tag, uid) pairs.
	winner := protocols[minIdx].(*consensus.Proposer)
	if winner.Leader() != protocols[0].Leader() {
		t.Fatalf("decided value's owner %d is not the leader", minIdx)
	}
}

func TestConsensusStability(t *testing.T) {
	f := gen.RandomRegular(24, 4, 5)
	params := core.DefaultBitConvParams(24, 4)
	values := inputsFor(24, 41)
	protocols, _ := consensus.NewNetwork(values, params, 9)
	eng, err := sim.New(dyngraph.NewStatic(f), protocols, sim.Config{
		Seed: 4, TagBits: consensus.TagBits(params), MaxRounds: 5_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(consensus.AllAgree)
	if err != nil {
		t.Fatal(err)
	}
	decided := protocols[0].(*consensus.Proposer).Value()
	eng.RunRounds(res.RoundsExecuted+1, 400)
	for i, p := range protocols {
		if p.(*consensus.Proposer).Value() != decided {
			t.Fatalf("node %d changed its decision after agreement", i)
		}
	}
}

func TestProposerValidation(t *testing.T) {
	params := core.BitConvParams{K: 4, GroupLen: 2}
	defer func() {
		if recover() == nil {
			t.Fatal("bad tag accepted")
		}
	}()
	consensus.NewProposer(1, 0, 5, params)
}

func TestAllAgreeDetectsDisagreement(t *testing.T) {
	params := core.BitConvParams{K: 4, GroupLen: 2}
	a := consensus.NewProposer(1, 2, 10, params)
	b := consensus.NewProposer(2, 3, 20, params)
	if consensus.AllAgree(1, []sim.Protocol{a, b}) {
		t.Fatal("disagreeing nodes reported as agreeing")
	}
	c := consensus.NewProposer(1, 2, 10, params)
	if !consensus.AllAgree(1, []sim.Protocol{a, c}) {
		t.Fatal("identical nodes reported as disagreeing")
	}
}

// TestProposerRecoversFromLeaderCrash runs experiment R1's scenario on a
// consensus network: once the network agrees, the owner of the minimum pair
// crashes and every survivor's state is reset. After the up nodes agree
// again, each one's value must be the proposal of the node whose UID it
// names as leader — a reset node must not keep the crashed leader's value.
func TestProposerRecoversFromLeaderCrash(t *testing.T) {
	const n = 32
	f := gen.RandomRegular(n, 6, 19)
	params := core.DefaultBitConvParams(n, 6)
	uids := core.UniqueUIDs(n, 3)
	// Distinct tags, as in the R-series: two owners of the minimum tag could
	// never exchange, which would read as a recovery failure.
	var tags []uint64
	for seed := uint64(4); ; seed++ {
		tags = core.AssignTags(n, params.K, seed)
		sorted := slices.Clone(tags)
		slices.Sort(sorted)
		if len(slices.Compact(sorted)) == n {
			break
		}
	}
	proposalOf := make(map[uint64]uint64, n)
	network := func() []sim.Protocol {
		protocols := make([]sim.Protocol, n)
		for i := range protocols {
			protocols[i] = consensus.NewProposer(uids[i], tags[i], 7000+uint64(i), params)
			proposalOf[uids[i]] = 7000 + uint64(i)
		}
		return protocols
	}
	cfg := sim.Config{Seed: 8, TagBits: consensus.TagBits(params), MaxRounds: 1_000_000}

	// A fault-free run finds the round the network first agrees in; scripted
	// faults draw nothing before their round, so the faulted run below is
	// the same execution up to there.
	eng, err := sim.New(dyngraph.NewStatic(f), network(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(consensus.AllAgree)
	if err != nil {
		t.Fatal(err)
	}
	crashRound := res.StabilizedRound + 1

	pairs := make([]core.IDPair, n)
	for i := range pairs {
		pairs[i] = core.IDPair{UID: uids[i], Tag: tags[i]}
	}
	crashed := slices.Index(pairs, core.MinPair(pairs))
	var survivors []int
	for u := 0; u < n; u++ {
		if u != crashed {
			survivors = append(survivors, u)
		}
	}
	in, err := fault.NewInjector(fault.Plan{
		Seed:        5,
		Crashes:     []fault.NodeRound{{Round: crashRound, Node: crashed}},
		Corruptions: []fault.Burst{{Round: crashRound, Nodes: survivors}},
	}, n)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = in
	protocols := network()
	eng, err = sim.New(dyngraph.NewStatic(f), protocols, cfg)
	if err != nil {
		t.Fatal(err)
	}
	upAgree := sim.UpOnly(in, sim.AllLeadersEqual)
	if _, err := eng.Run(func(r int, ps []sim.Protocol) bool { return r > crashRound && upAgree(r, ps) }); err != nil {
		t.Fatal(err)
	}
	for u, p := range protocols {
		if u == crashed {
			continue
		}
		q := p.(*consensus.Proposer)
		if q.Leader() == uids[crashed] {
			t.Fatalf("node %d still follows the crashed leader", u)
		}
		if want := proposalOf[q.Leader()]; q.Value() != want {
			t.Fatalf("node %d holds value %d, but its leader %#x proposed %d", u, q.Value(), q.Leader(), want)
		}
	}
}
