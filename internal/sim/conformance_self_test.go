package sim_test

// Self-tests for the conformance checker: it must flag protocols that
// violate the model, and pass well-behaved ones.

import (
	"strings"
	"testing"

	"mobiletel/internal/sim"
)

// politeProto is a minimal well-behaved protocol.
type politeProto struct{}

func (politeProto) Advertise(*sim.Context) uint64 { return 0 }
func (politeProto) Decide(ctx *sim.Context) (int32, bool) {
	if ctx.Bool() {
		return 0, false
	}
	t, ok := ctx.RandomNeighbor()
	return t, ok
}
func (politeProto) Outgoing(*sim.Context, int32) sim.Message { return sim.Message{} }
func (politeProto) Deliver(*sim.Context, int32, sim.Message) {}
func (politeProto) Leader() uint64                           { return 0 }

func TestConformancePassesPoliteProtocol(t *testing.T) {
	err := sim.CheckConformance(func(int) sim.Protocol { return politeProto{} },
		sim.ConformanceConfig{Seed: 1, Rounds: 60})
	if err != nil {
		t.Fatal(err)
	}
}

// loudProto advertises more bits than it is entitled to.
type loudProto struct{ politeProto }

func (loudProto) Advertise(*sim.Context) uint64 { return 3 }

func TestConformanceCatchesTagViolation(t *testing.T) {
	err := sim.CheckConformance(func(int) sim.Protocol { return loudProto{} },
		sim.ConformanceConfig{Seed: 2, TagBits: 1, Rounds: 20})
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("tag violation not caught: %v", err)
	}
}

// chattyProto2 exceeds the message UID budget.
type chattyProto2 struct{ politeProto }

func (chattyProto2) Decide(ctx *sim.Context) (int32, bool) {
	// Even nodes propose, odd nodes receive, so connections actually form
	// and Outgoing's oversized message reaches the engine's check.
	if ctx.Node%2 == 1 {
		return 0, false
	}
	t, ok := ctx.RandomNeighbor()
	return t, ok
}
func (chattyProto2) Outgoing(*sim.Context, int32) sim.Message {
	return sim.Message{UIDs: []uint64{1, 2, 3, 4, 5}}
}

func TestConformanceCatchesMessageViolation(t *testing.T) {
	err := sim.CheckConformance(func(int) sim.Protocol { return chattyProto2{} },
		sim.ConformanceConfig{Seed: 3, Rounds: 20})
	if err == nil {
		t.Fatal("message budget violation not caught")
	}
}

// nondetProto draws randomness outside the Context, breaking determinism.
type nondetProto struct {
	politeProto
	counter *int
}

func (p nondetProto) Decide(ctx *sim.Context) (int32, bool) {
	*p.counter++
	// A decision that depends on cross-instance shared state: the second
	// conformance run sees different counter values than the first.
	if *p.counter%7 == 0 {
		return 0, false
	}
	t, ok := ctx.RandomNeighbor()
	return t, ok
}

func TestConformanceCatchesNondeterminism(t *testing.T) {
	shared := 0
	err := sim.CheckConformance(func(int) sim.Protocol {
		return nondetProto{counter: &shared}
	}, sim.ConformanceConfig{Seed: 4, Rounds: 40})
	if err == nil || !strings.Contains(err.Error(), "nondeterministic") {
		t.Fatalf("nondeterminism not caught: %v", err)
	}
}
