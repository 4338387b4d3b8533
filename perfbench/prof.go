package main

import "mobiletel/internal/obs"

// phaseNames lists every round phase the mtmprof/v1 schema names, in
// schema order.
func phaseNames() []string {
	var out []string
	for ph := obs.Phase(0); ph.String() != "unknown"; ph++ {
		out = append(out, ph.String())
	}
	return out
}

// fusedParts maps each fused dispatch to the phases whose busy time its
// body self-times: the dispatch carries the wall time, the parts the busy
// time.
var fusedParts = map[string][]string{
	obs.PhaseScanAdvertise.String():   {obs.PhaseActiveScan.String(), obs.PhaseAdvertise.String()},
	obs.PhasePartnerExchange.String(): {obs.PhasePartner.String(), obs.PhaseExchange.String()},
}

// profSum adds up mtmprof/v1 reports (one per profiled engine or trial).
type profSum struct {
	workers      int
	rounds       int64
	runNS        int64
	wall         map[string]int64
	busy         map[string][]int64
	dispatchMode string
}

func newProfSum() *profSum {
	return &profSum{wall: map[string]int64{}, busy: map[string][]int64{}}
}

func (s *profSum) add(r obs.ProfReport) {
	if r.Workers > s.workers {
		s.workers = r.Workers
	}
	if s.dispatchMode == "" {
		s.dispatchMode = r.Dispatch
	} else if r.Dispatch != "" && r.Dispatch != s.dispatchMode {
		s.dispatchMode = "mixed"
	}
	s.rounds += r.Rounds
	s.runNS += r.WallNS
	for _, ph := range r.Phases {
		s.wall[ph.Phase] += ph.WallNS
		b := s.busy[ph.Phase]
		for len(b) < len(ph.BusyNS) {
			b = append(b, 0)
		}
		for w, ns := range ph.BusyNS {
			b[w] += ns
		}
		s.busy[ph.Phase] = b
	}
}

func maxOf(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// imbalance is max busy over mean busy across the workers that worked in
// the phase (1 = even chunks); 0 when no worker did.
func imbalance(busy []int64) float64 {
	var sum int64
	active := 0
	for _, b := range busy {
		if b > 0 {
			sum += b
			active++
		}
	}
	if active == 0 {
		return 0
	}
	return float64(maxOf(busy)) / (float64(sum) / float64(active))
}

// layerMetrics turns the summed reports into the sim phase metrics:
//
//   - sim.phase.<p>.share: the phase's wall time over the rounds' wall
//     time; a part of a fused dispatch has no wall time of its own, so its
//     share is its busiest worker's time and lies inside the dispatch's;
//   - sim.phase.<p>.imbalance: max over mean worker busy time;
//   - sim.dispatch_share: wall time of each dispatch not covered by its
//     busiest worker (a fused dispatch counts its parts' busy time);
//   - sim.worker_util: busy time over workers × round wall time;
//   - sim.unattributed_share: round wall time outside every dispatch.
//
// Phases the resolved core never ran read 0.
func (s *profSum) layerMetrics(set func(name string, v float64)) {
	run := float64(s.runNS)
	var topWall, uncovered, busyAll int64
	for _, name := range phaseNames() {
		wall, busy := s.wall[name], s.busy[name]
		share := wall
		if wall == 0 {
			share = maxOf(busy)
		}
		set("sim.phase."+name+".share", ratio(float64(share), run))
		set("sim.phase."+name+".imbalance", imbalance(busy))
		for _, b := range busy {
			busyAll += b
		}
		if wall == 0 {
			continue
		}
		topWall += wall
		perWorker := append([]int64(nil), busy...)
		for _, part := range fusedParts[name] {
			for w, b := range s.busy[part] {
				for len(perWorker) <= w {
					perWorker = append(perWorker, 0)
				}
				perWorker[w] += b
			}
		}
		if gap := wall - maxOf(perWorker); gap > 0 {
			uncovered += gap
		}
	}
	set("sim.dispatch_share", ratio(float64(uncovered), run))
	set("sim.worker_util", ratio(float64(busyAll), run*float64(s.workers)))
	unattributed := s.runNS - topWall
	if unattributed < 0 {
		unattributed = 0
	}
	set("sim.unattributed_share", ratio(float64(unattributed), run))
}
