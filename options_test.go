package mobiletel_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mobiletel"
)

// TestEveryEntryPointAppliesOptions runs each of the five run entry points
// with every observer, a loss-only fault plan and the invariant audit set,
// and holds what the observers saw to the reported result: one round_end
// event per round, a metrics summary and a phase profile that count the
// same rounds, one OnRound call per round, and the plan's proposal-loss
// events in the trace. Observing must not change the result.
func TestEveryEntryPointAppliesOptions(t *testing.T) {
	const n = 24
	sched := mobiletel.Static(mobiletel.RandomRegular(n, 4, 3))
	inputs := make([]float64, n)
	proposals := make([]uint64, n)
	for i := range inputs {
		inputs[i] = float64(i%5 + 1)
		proposals[i] = uint64(100 + i)
	}
	cases := []struct {
		name string
		run  func(mobiletel.Options) (rounds int, result any, err error)
	}{
		{"ElectLeader", func(o mobiletel.Options) (int, any, error) {
			r, err := mobiletel.ElectLeader(sched, mobiletel.AsyncBitConv, o)
			return r.Rounds, r, err
		}},
		{"SpreadRumor", func(o mobiletel.Options) (int, any, error) {
			r, err := mobiletel.SpreadRumor(sched, mobiletel.PPush, []int{0}, o)
			return r.Rounds, r, err
		}},
		{"Decide", func(o mobiletel.Options) (int, any, error) {
			r, err := mobiletel.Decide(sched, proposals, o)
			return r.Rounds, r, err
		}},
		{"Aggregate", func(o mobiletel.Options) (int, any, error) {
			r, err := mobiletel.Aggregate(sched, mobiletel.Mean, inputs, 0.05, o)
			return r.Rounds, r, err
		}},
		{"GossipAll", func(o mobiletel.Options) (int, any, error) {
			r, err := mobiletel.GossipAll(sched, o)
			return r.Rounds, r, err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain := mobiletel.Options{
				Seed: 5, MaxRounds: 200_000, Check: true,
				Faults: &mobiletel.FaultPlan{Seed: 9, ProposalLoss: 0.3},
			}
			_, want, err := tc.run(plain)
			if err != nil {
				t.Fatal(err)
			}
			var trace, metrics, prof bytes.Buffer
			calls := 0
			observed := plain
			observed.TraceTo, observed.MetricsTo, observed.PhaseProfTo = &trace, &metrics, &prof
			observed.OnRound = func(round, _ int) {
				calls++
				if round != calls {
					t.Errorf("OnRound call %d reported round %d", calls, round)
				}
			}
			rounds, got, err := tc.run(observed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("observed run returned %+v, unobserved %+v", got, want)
			}
			if rounds < 1 {
				t.Fatalf("run reported %d rounds", rounds)
			}
			if ends := strings.Count(trace.String(), `"t":"round_end"`); ends != rounds {
				t.Errorf("trace has %d round_end events for %d rounds", ends, rounds)
			}
			if !strings.Contains(trace.String(), `"kind":"proploss"`) {
				t.Error("trace has no proposal-loss fault events")
			}
			var m struct {
				Rounds int `json:"rounds"`
			}
			if err := json.Unmarshal(metrics.Bytes(), &m); err != nil || m.Rounds != rounds {
				t.Errorf("metrics count %d rounds (err %v), want %d", m.Rounds, err, rounds)
			}
			var p struct {
				Rounds int `json:"rounds"`
			}
			if err := json.Unmarshal(prof.Bytes(), &p); err != nil || p.Rounds != rounds {
				t.Errorf("phase profile counts %d rounds (err %v), want %d", p.Rounds, err, rounds)
			}
			if calls != rounds {
				t.Errorf("OnRound called %d times for %d rounds", calls, rounds)
			}
		})
	}
}

// TestEntryPointsStopOverUpDevices crashes one device at round 2 for good.
// Every entry point evaluates its stop condition over the up devices, so an
// election, a consensus and a rumor from another device finish among the
// survivors instead of waiting for the crashed device until MaxRounds.
func TestEntryPointsStopOverUpDevices(t *testing.T) {
	const n = 32
	sched := mobiletel.Static(mobiletel.RandomRegular(n, 6, 3))
	opts := mobiletel.Options{Seed: 9, MaxRounds: 50_000, Faults: &mobiletel.FaultPlan{
		Crashes: []mobiletel.FaultEvent{{Round: 2, Node: 5}},
	}}
	if _, err := mobiletel.ElectLeader(sched, mobiletel.AsyncBitConv, opts); err != nil {
		t.Errorf("ElectLeader: %v", err)
	}
	proposals := make([]uint64, n)
	for i := range proposals {
		proposals[i] = uint64(100 + i)
	}
	if res, err := mobiletel.Decide(sched, proposals, opts); err != nil {
		t.Errorf("Decide: %v", err)
	} else if !slices.Contains(proposals, res.Value) {
		t.Errorf("Decide agreed on %d, which nobody proposed", res.Value)
	}
	if _, err := mobiletel.SpreadRumor(sched, mobiletel.PushPull, []int{0}, opts); err != nil {
		t.Errorf("SpreadRumor: %v", err)
	}
}

func TestParsePartitions(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []mobiletel.FaultPartition
		ok   bool
	}{
		{"", nil, true},
		{"10:40:2", []mobiletel.FaultPartition{{Start: 10, Heal: 40, Parts: 2}}, true},
		{"10:40:2,60:0:3", []mobiletel.FaultPartition{{Start: 10, Heal: 40, Parts: 2}, {Start: 60, Heal: 0, Parts: 3}}, true},
		{"10:40:2, 60 :0:3", []mobiletel.FaultPartition{{Start: 10, Heal: 40, Parts: 2}, {Start: 60, Heal: 0, Parts: 3}}, true},
		{"10:40:2xyz", nil, false},
		{"10:40:2:9", nil, false},
		{"10:40", nil, false},
		{"10:40:2,", nil, false},
		{",", nil, false},
	} {
		got, err := mobiletel.ParsePartitions(tc.in)
		if (err == nil) != tc.ok || !slices.Equal(got, tc.want) {
			t.Errorf("ParsePartitions(%q) = %v, %v; want %v (ok %v)", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// FuzzParsePartitions checks that ParsePartitions never panics and that
// every input it accepts re-renders to a spec that parses to the same
// partitions.
func FuzzParsePartitions(f *testing.F) {
	for _, s := range []string{"", "10:40:2", "10:40:2,60:0:3", "10:40:2xyz", "10:40:2:9", "10:40", ",", " 1: 2 :3", "-1:+2:007"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		parts, err := mobiletel.ParsePartitions(s)
		if err != nil {
			return
		}
		specs := make([]string, len(parts))
		for i, p := range parts {
			specs[i] = fmt.Sprintf("%d:%d:%d", p.Start, p.Heal, p.Parts)
		}
		again, err := mobiletel.ParsePartitions(strings.Join(specs, ","))
		if err != nil || !slices.Equal(again, parts) {
			t.Fatalf("%q parsed to %v, whose rendering parsed to %v, %v", s, parts, again, err)
		}
	})
}
