package obs

import (
	"sort"
	"sync/atomic"
)

// ProfSchema identifies the phase-timing report JSON layout ("mtmprof/v1").
// Bump only on incompatible changes, exactly like the trace Schema: readers
// (mtmtrace prof) refuse mismatched schemas.
const ProfSchema = "mtmprof/v1"

// Phase enumerates the engine's round phases for timing attribution. The
// wire names below are part of the mtmprof/v1 schema.
type Phase uint8

const (
	// PhaseActiveScan computes the round's active set.
	PhaseActiveScan Phase = iota
	// PhaseAdvertise runs step 2 (tag advertisement).
	PhaseAdvertise
	// PhaseTagFlip is the fault layer's advertisement-corruption pass,
	// between advertise and decide (faulted runs with a tag-flip rate only).
	PhaseTagFlip
	// PhaseDecide runs step 3 (propose-or-receive decisions).
	PhaseDecide
	// PhaseCount is step 4's first pass: it counts the proposals and links
	// each delivered one into its receiver's list (per-worker list heads).
	PhaseCount
	// PhaseMerge named a sequential prefix merge between two counting-sort
	// passes; step 4 now links proposals in the count pass, so nothing
	// charges it. The name stays in the mtmprof/v1 schema.
	PhaseMerge
	// PhaseScatter named the counting sort's inbox scatter pass, retired
	// with the merge; nothing charges it. The name stays in the mtmprof/v1
	// schema.
	PhaseScatter
	// PhaseAccept runs step 4's accept decisions, each receiver reading
	// its inbox from the count pass's lists.
	PhaseAccept
	// PhasePartner named a separate partner-materialization sweep; the
	// engine now derives partners inside the exchange sweep, so nothing
	// charges it. The name stays in the mtmprof/v1 schema.
	PhasePartner
	// PhaseBucketSeq named a retired sequential step-4 core; nothing charges
	// it. The name stays in the mtmprof/v1 schema.
	PhaseBucketSeq
	// PhaseExchange runs step 5 (partner derivation and message exchange
	// over connections).
	PhaseExchange
	// PhaseEndRound named an end-of-round protocol sweep outside the
	// model's five steps; the engine no longer runs one, so nothing charges
	// it. The name stays in the mtmprof/v1 schema.
	PhaseEndRound
	// PhaseFlush drains per-worker event buffers into the sink (traced
	// runs only).
	PhaseFlush
	// PhaseScanAdvertise is the fused active-scan + advertise dispatch (one
	// barrier instead of two) every round runs. The dispatch's wall time
	// lands here; the fused body self-times each sweep, so busy time
	// still lands on PhaseActiveScan and PhaseAdvertise.
	PhaseScanAdvertise
	// PhasePartnerExchange is the dispatch of the sweep that derives
	// partners and exchanges. Wall time lands here; the sweep self-times
	// its busy time onto PhaseExchange.
	PhasePartnerExchange

	numPhases
)

// phaseNames is the frozen wire encoding of Phase (part of mtmprof/v1).
var phaseNames = [numPhases]string{
	PhaseActiveScan: "active_scan",
	PhaseAdvertise:  "advertise",
	PhaseTagFlip:    "tag_flip",
	PhaseDecide:     "decide",
	PhaseCount:      "count",
	PhaseMerge:      "merge",
	PhaseScatter:    "scatter",
	PhaseAccept:     "accept",
	PhasePartner:    "partner",
	PhaseBucketSeq:  "bucket_accept",
	PhaseExchange:   "exchange",
	PhaseEndRound:   "end_round",
	PhaseFlush:      "flush",

	PhaseScanAdvertise:   "scan_advertise",
	PhasePartnerExchange: "partner_exchange",
}

// String returns the wire name of the phase.
func (p Phase) String() string {
	if p < numPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// busyStride pads per-(phase, worker) busy slots to a cache line so
// concurrent AddBusy calls from different workers never false-share.
const busyStride = 8

// Profiler accumulates per-phase wall time and per-worker busy time for one
// engine. The monotonic clock is injected by the caller — internal/ never
// reads wall time (the norand contract), so the facade passes a
// time.Since-based closure and tests pass a deterministic counter.
//
// All counters are atomic: workers add busy time concurrently, and a
// progress reporter may snapshot (Report, TopPhases) while the engine runs.
// Profiled runs trade the zero-allocation steady state for timing; the
// unprofiled engine path is branch-guarded and unchanged.
type Profiler struct {
	clock    func() int64
	workers  int
	dispatch string // resolved dispatch mode ("inline" or "pool")
	gate     int    // node-count floor below which dispatches run inline
	rounds   int64
	runNS    int64
	wall     [numPhases]int64
	busy     []int64 // numPhases × workers slots, busyStride apart
}

// NewProfiler creates a profiler reading the given monotonic nanosecond
// clock. Workers read the clock concurrently for busy accounting, so it
// must be goroutine-safe (the real time.Since closure is; a test counter
// must be atomic). The engine sizes the per-worker accounting via Attach.
func NewProfiler(clock func() int64) *Profiler {
	if clock == nil {
		panic("obs: NewProfiler needs an injected clock")
	}
	return &Profiler{clock: clock}
}

// Attach sizes the per-worker busy accounting for an engine with the given
// resolved worker count. The engine calls it from New; calling again with a
// smaller count is a no-op so a profiler may outlive one engine.
func (p *Profiler) Attach(workers int) {
	if workers > p.workers {
		p.workers = workers
		p.busy = make([]int64, int(numPhases)*workers*busyStride)
	}
}

// SetDispatch records the engine's resolved dispatch mode and inline gate
// for the report: a run that silently fell back to inline dispatch (worker
// count 1, a node count under the gate, or a single-P host) is visible in
// its profile instead of just being mysteriously sequential. The engine
// calls it from New, before any rounds run.
func (p *Profiler) SetDispatch(mode string, gateNodes int) {
	p.dispatch = mode
	p.gate = gateNodes
}

// Clock reads the injected monotonic clock (nanoseconds).
func (p *Profiler) Clock() int64 { return p.clock() }

// AddWall adds ns to the phase's wall time. Called from the engine's
// sequential sections only.
func (p *Profiler) AddWall(ph Phase, ns int64) {
	atomic.AddInt64(&p.wall[ph], ns)
}

// AddBusy adds ns to worker w's busy time in the phase. Safe to call from
// parallel workers: each (phase, worker) slot is cache-line isolated.
func (p *Profiler) AddBusy(ph Phase, w int, ns int64) {
	atomic.AddInt64(&p.busy[(int(ph)*p.workers+w)*busyStride], ns)
}

// AddSeq records a sequential section: ns of wall time, all of it worker
// 0's busy time.
func (p *Profiler) AddSeq(ph Phase, ns int64) {
	p.AddWall(ph, ns)
	p.AddBusy(ph, 0, ns)
}

// RoundDone records one completed round taking ns of wall time.
func (p *Profiler) RoundDone(ns int64) {
	atomic.AddInt64(&p.rounds, 1)
	atomic.AddInt64(&p.runNS, ns)
}

// PhaseProfile is one phase's timing in a ProfReport.
type PhaseProfile struct {
	// Phase is the wire name (see Phase constants).
	Phase string `json:"phase"`
	// WallNS is the phase's accumulated wall time across all rounds.
	WallNS int64 `json:"wall_ns"`
	// BusyNS is per-worker busy time (index = worker). Sequential phases
	// charge worker 0.
	BusyNS []int64 `json:"busy_ns"`
	// Imbalance is max busy / mean busy over the workers that did any work
	// in this phase (1 = perfectly even chunks; omitted when idle).
	Imbalance float64 `json:"imbalance,omitempty"`
}

// ProfReport is the mtmprof/v1 phase-timing report.
type ProfReport struct {
	Schema  string `json:"schema"`
	Workers int    `json:"workers"`
	// Dispatch is the engine's resolved dispatch mode ("inline" or
	// "pool"); GateNodes is the node-count floor below which dispatches run
	// inline. Both are omitted by profilers that predate the worker pool —
	// adding omitempty fields is a compatible mtmprof/v1 extension.
	Dispatch  string `json:"dispatch,omitempty"`
	GateNodes int    `json:"gate_nodes,omitempty"`
	Rounds    int64  `json:"rounds"`
	// WallNS is total round wall time (sum over rounds; phase wall times
	// sum to at most this — unattributed sequential glue is the gap).
	WallNS       int64          `json:"wall_ns"`
	RoundsPerSec float64        `json:"rounds_per_sec"`
	Phases       []PhaseProfile `json:"phases"`
}

// Report snapshots the accumulated timings as an mtmprof/v1 report. Phases
// that never ran under this configuration are omitted. Safe to call while
// the engine is still running (the snapshot is internally consistent per
// counter, not across counters — fine for progress displays and final
// reports alike).
func (p *Profiler) Report() ProfReport {
	rep := ProfReport{
		Schema:    ProfSchema,
		Workers:   p.workers,
		Dispatch:  p.dispatch,
		GateNodes: p.gate,
		Rounds:    atomic.LoadInt64(&p.rounds),
		WallNS:    atomic.LoadInt64(&p.runNS),
	}
	if rep.WallNS > 0 {
		rep.RoundsPerSec = float64(rep.Rounds) / (float64(rep.WallNS) / 1e9)
	}
	for ph := Phase(0); ph < numPhases; ph++ {
		wall := atomic.LoadInt64(&p.wall[ph])
		busy := make([]int64, p.workers)
		var busyMax, busySum int64
		active := 0
		for w := 0; w < p.workers; w++ {
			b := atomic.LoadInt64(&p.busy[(int(ph)*p.workers+w)*busyStride])
			busy[w] = b
			if b > 0 {
				active++
				busySum += b
				if b > busyMax {
					busyMax = b
				}
			}
		}
		if wall == 0 && busySum == 0 {
			continue
		}
		prof := PhaseProfile{Phase: ph.String(), WallNS: wall, BusyNS: busy}
		if active > 0 {
			mean := float64(busySum) / float64(active)
			if mean > 0 {
				prof.Imbalance = float64(busyMax) / mean
			}
		}
		rep.Phases = append(rep.Phases, prof)
	}
	return rep
}

// TopPhases returns up to k "name share%" strings for the phases with the
// largest accumulated wall time — the one-line form mtmexp -progress shows.
// Ties break by phase order, so the output is deterministic for a given
// set of counter values. Safe to call concurrently with a running engine.
func (p *Profiler) TopPhases(k int) []string {
	type entry struct {
		ph   Phase
		wall int64
	}
	var entries []entry
	var total int64
	for ph := Phase(0); ph < numPhases; ph++ {
		w := atomic.LoadInt64(&p.wall[ph])
		if w > 0 {
			entries = append(entries, entry{ph, w})
			total += w
		}
	}
	if total == 0 {
		return nil
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].wall > entries[j].wall })
	if len(entries) > k {
		entries = entries[:k]
	}
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.ph.String() + " " + itoaPct(e.wall, total)
	}
	return out
}

// itoaPct formats 100*part/total as "NN%" without fmt (cheap enough to call
// from a throttled progress line).
func itoaPct(part, total int64) string {
	pct := part * 100 / total
	if pct > 99 {
		return "100%"
	}
	buf := [4]byte{}
	i := len(buf)
	i--
	buf[i] = '%'
	for {
		i--
		buf[i] = byte('0' + pct%10)
		pct /= 10
		if pct == 0 {
			break
		}
	}
	return string(buf[i:])
}
