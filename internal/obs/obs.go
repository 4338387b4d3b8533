// Package obs is the simulator's structured observability layer: typed,
// schema-versioned events emitted by the engine and the protocols, consumed
// by pluggable sinks (an in-memory ring, a JSONL stream, a metrics
// aggregator — see sinks.go and metrics.go).
//
// Design constraints, in priority order:
//
//  1. Zero overhead when disabled. The engine guards every emission site
//     with a nil check, and no Event is constructed unless a sink is
//     configured. TestSteadyStateZeroAllocs pins the disabled path at
//     exactly 0 allocs/round.
//  2. Deterministic event order. An execution is a pure function of (seed,
//     schedule, protocol, config); its event stream must be too, so two
//     same-seed traces can be compared event by event (mtmtrace diff).
//     The sink always observes events in ascending node order within each
//     phase, at any worker count: phase bodies emit into private
//     per-worker buffers (WorkerBuf) that the engine drains into the sink
//     in ascending worker order at each sequential barrier — worker chunks
//     ascend in node id and each worker iterates its chunk ascending, so
//     the concatenation reproduces exactly the sequential emission order,
//     and a Workers=8 trace is byte-identical to the Workers=1 trace of
//     the same seed, faulted runs included.
//  3. Flat events. Event is a fixed-size value type (no pointers, no
//     per-event heap allocation on the emit path); the per-type meaning of
//     its payload fields is documented on the Type constants and frozen by
//     the JSONL schema version.
package obs

import (
	"fmt"
	"strconv"
)

// Schema identifies the JSONL trace layout ("mtmtrace/v1"). Bump only on
// incompatible changes: readers refuse mismatched schemas rather than
// silently misinterpreting payload fields. Adding a new Type or Kind value
// is a compatible change; repurposing payload fields is not.
const Schema = "mtmtrace/v1"

// Type enumerates the event types the engine and protocols emit.
type Type uint8

const (
	// TypeNone is the zero Type; it is never emitted.
	TypeNone Type = iota

	// TypeRoundStart opens a round. A = number of active nodes.
	TypeRoundStart

	// TypeRoundEnd closes a round with its counters:
	// Node = accepted proposals, Peer = rejected proposals (delivered to a
	// receiver but not chosen), A = total proposals sent, B = connections
	// established. Proposals - accepts - rejects = proposals lost because
	// their target was itself sending.
	TypeRoundEnd

	// TypePropose is a connection proposal. Node = proposer, Peer = target,
	// A = proposer's advertisement tag, B = target's advertisement tag.
	TypePropose

	// TypeReject is a proposal that did not become a connection.
	// Node = target, Peer = proposer. Kind says why: KindBusy (the target
	// was itself sending, so the proposal was lost) or KindContention (the
	// target accepted a different proposal).
	TypeReject

	// TypeAccept is an accepted proposal. Node = receiver, Peer = proposer.
	TypeAccept

	// TypeConnect is an established connection, normalized with
	// Node < Peer. In the mobile telephone model every accept yields
	// exactly one connect; classical mode connects every proposal.
	TypeConnect

	// TypeDeliver is one message delivery over a connection.
	// Node = recipient, Peer = sender, A = the message's first UID (0 when
	// the message carries none), B = the auxiliary bits.
	TypeDeliver

	// TypeTransition is a protocol state transition. Node = the node,
	// Kind = which variable changed, A = old value, B = new value.
	TypeTransition

	// TypeFault is an injected fault (internal/fault). Kind says which:
	// KindCrash / KindRecover (Node = the node; for recover, A/B are the
	// old/new leader estimates, which differ only when the plan resets state
	// on recovery), KindCorrupt (Node = the node, A/B = old/new leader
	// estimates after the adversarial state reset), KindTagFlip (Node = the
	// node, A/B = old/new advertisement tags), KindPropLoss (a proposal
	// dropped in transit; Node = target, Peer = proposer), and KindConnLoss
	// (an accepted connection that failed before the exchange; Node =
	// receiver, Peer = accepted proposer).
	TypeFault
)

// typeNames is the frozen wire encoding of Type (part of the schema).
var typeNames = [...]string{
	TypeNone:       "none",
	TypeRoundStart: "round_start",
	TypeRoundEnd:   "round_end",
	TypePropose:    "propose",
	TypeReject:     "reject",
	TypeAccept:     "accept",
	TypeConnect:    "connect",
	TypeDeliver:    "deliver",
	TypeTransition: "transition",
	TypeFault:      "fault",
}

// String returns the wire name of the type.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// ParseType resolves a wire name back to a Type.
func ParseType(s string) (Type, error) {
	for t, name := range typeNames {
		if name == s {
			return Type(t), nil
		}
	}
	return TypeNone, fmt.Errorf("obs: unknown event type %q", s)
}

// MarshalJSON encodes the type as its wire name.
func (t Type) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(nil, t.String()), nil
}

// UnmarshalJSON decodes a wire name.
func (t *Type) UnmarshalJSON(data []byte) error {
	s, err := strconv.Unquote(string(data))
	if err != nil {
		return fmt.Errorf("obs: event type: %w", err)
	}
	v, err := ParseType(s)
	if err != nil {
		return err
	}
	*t = v
	return nil
}

// Kind qualifies TypeTransition (which protocol variable changed) and
// TypeReject (why the proposal failed).
type Kind uint8

const (
	// KindNone marks events whose type needs no qualifier.
	KindNone Kind = iota

	// KindLeader: the node's leader estimate changed (all election
	// protocols). A/B are the old/new leader UIDs.
	KindLeader

	// KindBit: the advertised tag bit the node publishes flipped
	// (BitConv PPUSH groups). A/B are the old/new bit values.
	KindBit

	// KindPhase: the node crossed a phase boundary and adopted its pending
	// minimum (BitConv). A/B are the old/new adopted-pair UIDs.
	KindPhase

	// KindPosition: the node drew a new tag bit position for its next local
	// group (AsyncBitConv). A/B are the old/new 1-based positions.
	KindPosition

	// KindInformed: the node learned the rumor (every rumor strategy).
	// A/B are 0/1.
	KindInformed

	// KindBusy: a proposal was lost because its target was itself sending
	// this round (a sender can never accept).
	KindBusy

	// KindContention: a proposal reached a receiver that accepted a
	// different proposal.
	KindContention

	// KindCrash: the node went down (TypeFault). While down it is invisible
	// to the network, exactly like a node outside its activation window.
	KindCrash

	// KindRecover: the node came back up (TypeFault).
	KindRecover

	// KindCorrupt: the adversary reset the node's protocol state (TypeFault).
	KindCorrupt

	// KindTagFlip: a bit of the node's advertisement was corrupted on the
	// air this round (TypeFault); neighbors see the flipped tag.
	KindTagFlip

	// KindPropLoss: a proposal was dropped in transit by the fault plan
	// (TypeFault), before reaching its target.
	KindPropLoss

	// KindConnLoss: an accepted connection failed before the message
	// exchange (TypeFault); no messages flowed.
	KindConnLoss
)

// kindNames is the frozen wire encoding of Kind (part of the schema).
var kindNames = [...]string{
	KindNone:       "",
	KindLeader:     "leader",
	KindBit:        "bit",
	KindPhase:      "phase",
	KindPosition:   "position",
	KindInformed:   "informed",
	KindBusy:       "busy",
	KindContention: "contention",
	KindCrash:      "crash",
	KindRecover:    "recover",
	KindCorrupt:    "corrupt",
	KindTagFlip:    "tagflip",
	KindPropLoss:   "proploss",
	KindConnLoss:   "connloss",
}

// String returns the wire name of the kind ("" for KindNone).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ParseKind resolves a wire name back to a Kind.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), nil
		}
	}
	return KindNone, fmt.Errorf("obs: unknown event kind %q", s)
}

// MarshalJSON encodes the kind as its wire name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(nil, k.String()), nil
}

// UnmarshalJSON decodes a wire name.
func (k *Kind) UnmarshalJSON(data []byte) error {
	s, err := strconv.Unquote(string(data))
	if err != nil {
		return fmt.Errorf("obs: event kind: %w", err)
	}
	v, err := ParseKind(s)
	if err != nil {
		return err
	}
	*k = v
	return nil
}

// Event is one observation. It is a flat value type: the emit path never
// allocates, and two events are comparable with ==, which is what makes
// trace diffing a one-pass streaming comparison. The meaning of Node, Peer,
// A, and B depends on Type (documented on the constants above); unused
// fields are zero (Node/Peer use -1 for "no node").
type Event struct {
	Type  Type   `json:"t"`
	Kind  Kind   `json:"kind"`
	Round int    `json:"r"`
	Node  int32  `json:"node"`
	Peer  int32  `json:"peer"`
	A     uint64 `json:"a"`
	B     uint64 `json:"b"`
}

// NoNode is the Node/Peer value for events not about a specific node.
const NoNode = int32(-1)

// String renders the event for terminal display (mtmtrace events).
func (e Event) String() string {
	switch e.Type {
	case TypeRoundStart:
		return fmt.Sprintf("r%-6d round_start  active=%d", e.Round, e.A)
	case TypeRoundEnd:
		return fmt.Sprintf("r%-6d round_end    proposals=%d accepts=%d rejects=%d connections=%d",
			e.Round, e.A, e.Node, e.Peer, e.B)
	case TypePropose:
		return fmt.Sprintf("r%-6d propose      %d -> %d (tags %d -> %d)", e.Round, e.Node, e.Peer, e.A, e.B)
	case TypeReject:
		return fmt.Sprintf("r%-6d reject       %d from %d (%s)", e.Round, e.Node, e.Peer, e.Kind)
	case TypeAccept:
		return fmt.Sprintf("r%-6d accept       %d from %d", e.Round, e.Node, e.Peer)
	case TypeConnect:
		return fmt.Sprintf("r%-6d connect      %d <-> %d", e.Round, e.Node, e.Peer)
	case TypeDeliver:
		return fmt.Sprintf("r%-6d deliver      %d <- %d uid=%#x aux=%#x", e.Round, e.Node, e.Peer, e.A, e.B)
	case TypeTransition:
		return fmt.Sprintf("r%-6d transition   node=%d %s %d -> %d", e.Round, e.Node, e.Kind, e.A, e.B)
	case TypeFault:
		switch e.Kind {
		case KindPropLoss, KindConnLoss:
			return fmt.Sprintf("r%-6d fault        %s %d from %d", e.Round, e.Kind, e.Node, e.Peer)
		default:
			return fmt.Sprintf("r%-6d fault        %s node=%d %d -> %d", e.Round, e.Kind, e.Node, e.A, e.B)
		}
	default:
		return fmt.Sprintf("r%-6d %s node=%d peer=%d kind=%s a=%d b=%d",
			e.Round, e.Type, e.Node, e.Peer, e.Kind, e.A, e.B)
	}
}

// Header identifies the run a trace belongs to. It is the first JSONL line
// of a trace file; two traces are comparable when their headers match.
type Header struct {
	Schema    string `json:"schema"`
	Seed      uint64 `json:"seed"`
	Schedule  string `json:"schedule"`
	N         int    `json:"n"`
	TagBits   int    `json:"tag_bits"`
	Classical bool   `json:"classical"`
}

// Sink receives the event stream of one execution. The engine calls Begin
// exactly once before the first event, Event zero or more times, and End
// exactly once after the last event (also on abnormal termination). Calls
// are never concurrent, at any worker count: parallel workers emit into
// private WorkerBuf buffers, and only the engine's sequential sections
// call the configured sink — implementations need no locking.
type Sink interface {
	Begin(h Header)
	Event(e Event)
	End()
}

// Tee fans one event stream out to several sinks in order.
func Tee(sinks ...Sink) Sink { return teeSink(sinks) }

type teeSink []Sink

func (t teeSink) Begin(h Header) {
	for _, s := range t {
		s.Begin(h)
	}
}

func (t teeSink) Event(e Event) {
	for _, s := range t {
		s.Event(e)
	}
}

func (t teeSink) End() {
	for _, s := range t {
		s.End()
	}
}
