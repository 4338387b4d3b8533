package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// peakRSSMB is the process's peak resident set size so far, in MiB: VmHWM
// from /proc/self/status. getrusage's ru_maxrss is not used because Linux
// carries it across execve, so it would report run.sh's shell.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// allocCounter reads the runtime's cumulative heap allocation counts
// without stopping the world.
type allocCounter struct{ s [2]metrics.Sample }

func newAllocCounter() *allocCounter {
	c := &allocCounter{}
	c.s[0].Name = "/gc/heap/allocs:objects"
	c.s[1].Name = "/gc/heap/allocs:bytes"
	return c
}

// read returns (objects, bytes) allocated since the process started.
func (c *allocCounter) read() (uint64, uint64) {
	metrics.Read(c.s[:])
	return c.s[0].Value.Uint64(), c.s[1].Value.Uint64()
}

// runtimeWindow measures the Go runtime over one stretch of a run: GC
// cycles and pause time, the peak live heap (sampled every 5 ms by a
// goroutine the window owns), and the scheduler-latency distribution.
type runtimeWindow struct {
	gc0, pause0 uint64
	sched0      *metrics.Float64Histogram
	stop        chan struct{}
	done        sync.WaitGroup
	heapPeak    atomic.Uint64
}

type runtimeStats struct {
	GCCycles, GCPauseMS, HeapPeakMB, SchedP99US float64
}

func startRuntimeWindow() *runtimeWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w := &runtimeWindow{gc0: uint64(ms.NumGC), pause0: ms.PauseTotalNs, stop: make(chan struct{})}
	w.sched0 = readHist("/sched/latencies:seconds")
	w.done.Add(1)
	go w.sampleHeap()
	return w
}

func (w *runtimeWindow) sampleHeap() {
	defer w.done.Done()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > w.heapPeak.Load() {
			w.heapPeak.Store(v)
		}
		select {
		case <-w.stop:
			return
		case <-tick.C:
		}
	}
}

// end stops the heap sampler, waits for it, and returns the window's
// statistics.
func (w *runtimeWindow) end() runtimeStats {
	close(w.stop)
	w.done.Wait()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeStats{
		GCCycles:   float64(uint64(ms.NumGC) - w.gc0),
		GCPauseMS:  float64(ms.PauseTotalNs-w.pause0) / 1e6,
		HeapPeakMB: float64(w.heapPeak.Load()) / (1 << 20),
		SchedP99US: histDeltaP99(w.sched0, readHist("/sched/latencies:seconds")) * 1e6,
	}
}

func readHist(name string) *metrics.Float64Histogram {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	h := s[0].Value.Float64Histogram()
	return &metrics.Float64Histogram{
		Counts:  append([]uint64(nil), h.Counts...),
		Buckets: append([]float64(nil), h.Buckets...),
	}
}

// histDeltaP99 is the p99 of the observations added between two snapshots
// of one histogram, as the upper edge of the bucket holding it (the lower
// edge when the top bucket is unbounded); 0 without observations.
func histDeltaP99(a, b *metrics.Float64Histogram) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := (total*99 + 99) / 100
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= want {
			if hi := b.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return b.Buckets[i]
		}
	}
	return 0
}
