package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mobiletel/internal/trace"
)

func TestTypeKindWireNames(t *testing.T) {
	for ty := TypeNone; ty <= TypeFault; ty++ {
		got, err := ParseType(ty.String())
		if err != nil || got != ty {
			t.Errorf("ParseType(%q) = %v, %v; want %v", ty.String(), got, err, ty)
		}
	}
	for k := KindNone; k <= KindConnLoss; k++ {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	if _, err := ParseType("bogus"); err == nil {
		t.Error("ParseType accepted bogus name")
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind accepted bogus name")
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	in := Event{Type: TypeTransition, Kind: KindLeader, Round: 17, Node: 3, Peer: NoNode, A: 42, B: 7}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := `"t":"transition"`; !strings.Contains(string(data), want) {
		t.Errorf("marshal = %s, want substring %s", data, want)
	}
	if want := `"kind":"leader"`; !strings.Contains(string(data), want) {
		t.Errorf("marshal = %s, want substring %s", data, want)
	}
	var out Event
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRing(3)
	r.Begin(Header{N: 8})
	for i := 0; i < 5; i++ {
		r.Event(Event{Type: TypeConnect, Round: i + 1})
	}
	r.End()
	if r.Total() != 5 {
		t.Errorf("Total = %d, want 5", r.Total())
	}
	got := r.Events()
	if len(got) != 3 {
		t.Fatalf("len(Events) = %d, want 3", len(got))
	}
	for i, e := range got {
		if want := i + 3; e.Round != want {
			t.Errorf("event %d round = %d, want %d (oldest-first order)", i, e.Round, want)
		}
	}
	if r.Header().N != 8 {
		t.Errorf("Header.N = %d, want 8", r.Header().N)
	}
}

func TestRingPartial(t *testing.T) {
	r := NewRing(10)
	r.Event(Event{Round: 1})
	r.Event(Event{Round: 2})
	got := r.Events()
	if len(got) != 2 || got[0].Round != 1 || got[1].Round != 2 {
		t.Errorf("partial ring events = %+v", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	h := Header{Seed: 9, Schedule: "static clique-4", N: 4, TagBits: 1}
	events := []Event{
		{Type: TypeRoundStart, Round: 1, Node: NoNode, Peer: NoNode, A: 4},
		{Type: TypePropose, Round: 1, Node: 0, Peer: 2, A: 1, B: 0},
		{Type: TypeAccept, Round: 1, Node: 2, Peer: 0},
		{Type: TypeRoundEnd, Round: 1, Node: 1, Peer: 0, A: 1, B: 1},
	}
	sink.Begin(h)
	for _, e := range events {
		sink.Event(e)
	}
	sink.End()
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}

	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := rd.Header(); got.Seed != 9 || got.N != 4 || got.Schema != Schema {
		t.Errorf("header = %+v", got)
	}
	got, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestReaderReportsCorruptLine(t *testing.T) {
	header := `{"schema":"` + Schema + `","n":2}`
	cases := []struct {
		name string
		body string
		want string // substring of the expected error
	}{
		{"truncated event", header + "\n" + `{"t":"propose","r":1,"node":0,` + "\n", "line 2"},
		{"garbage line", header + "\n" + `{"t":"connect","r":1}` + "\nnot json\n", "line 3"},
		{"empty line", header + "\n\n", "line 2"},
		{"bad type name", header + "\n" + `{"t":"warp","r":1}` + "\n", "warp"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rd, err := NewReader(strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("header rejected: %v", err)
			}
			_, err = rd.ReadAll()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
	// A truncated header is an error too, not a zero-value header.
	if _, err := NewReader(strings.NewReader(`{"schema":"mtmtr`)); err == nil {
		t.Error("truncated header accepted")
	}
	if _, err := NewReader(strings.NewReader("")); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestMetricsFaults(t *testing.T) {
	m := NewMetrics()
	m.Begin(Header{N: 4})
	synthRound(m, 1, 2, 2, 0)
	m.Event(Event{Type: TypeFault, Kind: KindCrash, Round: 2, Node: 1})
	m.Event(Event{Type: TypeFault, Kind: KindPropLoss, Round: 2, Node: 0, Peer: 3})
	m.Event(Event{Type: TypeFault, Kind: KindCorrupt, Round: 3, Node: 2, A: 9, B: 2})
	m.Event(Event{Type: TypeTransition, Kind: KindLeader, Round: 7, Node: 2, A: 9, B: 1})
	m.End()

	s := m.Summary()
	if s.Faults["crash"] != 1 || s.Faults["proploss"] != 1 || s.Faults["corrupt"] != 1 {
		t.Errorf("Faults = %v", s.Faults)
	}
	if s.FaultLost != 1 {
		t.Errorf("FaultLost = %d, want 1", s.FaultLost)
	}
	if s.LastFaultRound != 3 {
		t.Errorf("LastFaultRound = %d, want 3", s.LastFaultRound)
	}
	if s.RecoveryRounds != 4 {
		t.Errorf("RecoveryRounds = %d, want 4 (convergence 7 - last fault 3)", s.RecoveryRounds)
	}

	// Fault-free runs omit the fault fields entirely.
	clean := NewMetrics()
	clean.Begin(Header{N: 2})
	synthRound(clean, 1, 1, 1, 0)
	cs := clean.Summary()
	if cs.Faults != nil || cs.LastFaultRound != 0 || cs.RecoveryRounds != 0 {
		t.Errorf("fault-free summary has fault fields: %+v", cs)
	}
}

func TestReaderRejectsWrongSchema(t *testing.T) {
	in := strings.NewReader(`{"schema":"mtmtrace/v999","n":1}` + "\n")
	if _, err := NewReader(in); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("err = %v, want schema mismatch", err)
	}
}

func TestTee(t *testing.T) {
	a, b := NewRing(4), NewRing(4)
	tee := Tee(a, b)
	tee.Begin(Header{N: 2})
	tee.Event(Event{Type: TypeConnect, Round: 1})
	tee.End()
	if a.Total() != 1 || b.Total() != 1 {
		t.Errorf("tee totals = %d, %d; want 1, 1", a.Total(), b.Total())
	}
}

// synthRound feeds one synthetic round into m: p proposals, a accepts (each
// accept becomes a connect between nodes 0 and 1), rej contention rejects.
// The remaining p-a-rej proposals are emitted as busy (lost) rejects so the
// stream stays self-consistent, as the engine's is.
func synthRound(m *Metrics, round int, p, a, rej int) {
	m.Event(Event{Type: TypeRoundStart, Round: round, A: 4})
	for i := 0; i < p; i++ {
		m.Event(Event{Type: TypePropose, Round: round, Node: 0, Peer: 1})
	}
	for i := 0; i < a; i++ {
		m.Event(Event{Type: TypeAccept, Round: round, Node: 1, Peer: 0})
		m.Event(Event{Type: TypeConnect, Round: round, Node: 0, Peer: 1})
	}
	for i := 0; i < rej; i++ {
		m.Event(Event{Type: TypeReject, Round: round, Kind: KindContention, Node: 1, Peer: 2})
	}
	for i := 0; i < p-a-rej; i++ {
		m.Event(Event{Type: TypeReject, Round: round, Kind: KindBusy, Node: 1, Peer: 0})
	}
	m.Event(Event{Type: TypeRoundEnd, Round: round,
		Node: int32(a), Peer: int32(rej), A: uint64(p), B: uint64(a)})
}

func TestMetricsAggregation(t *testing.T) {
	m := NewMetrics()
	m.Begin(Header{Seed: 1, Schedule: "synthetic", N: 4})
	synthRound(m, 1, 3, 1, 1)
	m.Event(Event{Type: TypeTransition, Kind: KindLeader, Round: 1, Node: 1, A: 5, B: 3})
	synthRound(m, 2, 2, 2, 0)
	m.Event(Event{Type: TypeTransition, Kind: KindPhase, Round: 2, Node: 0, A: 0, B: 1})
	synthRound(m, 3, 0, 0, 0)
	m.End()

	s := m.Summary()
	if s.Schema != MetricsSchema {
		t.Errorf("schema = %q", s.Schema)
	}
	if s.Rounds != 3 || s.Proposals != 5 || s.Accepts != 3 || s.Rejects != 1 || s.Connections != 3 {
		t.Errorf("counters = %+v", s)
	}
	if s.Lost != 1 {
		t.Errorf("Lost = %d, want 1", s.Lost)
	}
	if want := 3.0 / 5.0; s.AcceptanceRate != want {
		t.Errorf("AcceptanceRate = %v, want %v", s.AcceptanceRate, want)
	}
	if s.ConvergenceRound != 1 {
		t.Errorf("ConvergenceRound = %d, want 1 (last leader transition)", s.ConvergenceRound)
	}
	if s.Transitions["leader"] != 1 || s.Transitions["phase"] != 1 {
		t.Errorf("Transitions = %v", s.Transitions)
	}
	if s.MaxMatching != 2 || s.MeanMatching != 1 {
		t.Errorf("matching: max=%d mean=%v", s.MaxMatching, s.MeanMatching)
	}
	// Nodes 0 and 1 have 3 connections each, 2 and 3 have none.
	if s.Load.Max != 3 || s.Load.Min != 0 || s.Load.Mean != 1.5 || s.Load.Imbalance != 2 {
		t.Errorf("Load = %+v", s.Load)
	}
	if len(s.ConnectionsCurve) != 3 || s.ConnectionsCurve[1] != 2 {
		t.Errorf("ConnectionsCurve = %v", s.ConnectionsCurve)
	}
	if len(s.AcceptanceCurve) != 3 || s.AcceptanceCurve[2] != 0 {
		t.Errorf("AcceptanceCurve = %v", s.AcceptanceCurve)
	}
}

func TestMetricsGammaBound(t *testing.T) {
	m := NewMetrics()
	m.Begin(Header{N: 4})
	synthRound(m, 1, 2, 2, 0)
	m.SetGammaBound(0.5)
	s := m.Summary()
	if s.GammaBound != 0.5 {
		t.Errorf("GammaBound = %v", s.GammaBound)
	}
	// Scale is γ·n/2 = 1; mean matching is 2.
	if s.MatchingVsBound != 2 {
		t.Errorf("MatchingVsBound = %v, want 2", s.MatchingVsBound)
	}
}

func TestDownsample(t *testing.T) {
	vals := make([]int, 1000)
	for i := range vals {
		vals[i] = i
	}
	got := trace.Downsample(vals, 10)
	if len(got) != 10 || got[9] != 999 {
		t.Errorf("Downsample tail = %v", got)
	}
	fs := []float64{1, 5, 2}
	if got := trace.Downsample(fs, 8); len(got) != 3 || got[1] != 5 {
		t.Errorf("Downsample short float series = %v", got)
	}
}
