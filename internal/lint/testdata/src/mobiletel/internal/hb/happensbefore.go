// Package hb is a happensbefore fixture. Each worker dispatched through
// the parallelFor stand-in either proves its chunk partitioning or carries
// a want comment for the exact failure; the functions exist to be
// analyzed, never executed.
package hb

// parallelFor mimics internal/sim's chunked dispatcher; the analyzer keys
// on the callee name alone.
func parallelFor(n int, fn func(w, lo, hi int)) {
	fn(0, 0, n)
}

// ChunkedSquares is the canonical safe worker: every write index is the
// induction variable, provably in [lo, hi).
func ChunkedSquares(out []int) {
	parallelFor(len(out), func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = i * i
		}
	})
}

// OffByOne widens the loop bound to hi+1: the last iteration writes into
// the next worker's chunk. The finding's -explain chain shows the loop
// definition that produced the [lo, hi] interval.
func OffByOne(out []int) {
	parallelFor(len(out), func(w, lo, hi int) {
		for i := lo; i < hi+1; i++ {
			out[i] = i // want `cannot prove write of out\[i\] stays in the worker's chunk: index interval \[lo, hi\]`
		}
	})
}

// DerivedGuarded writes a derived index under an explicit bound check:
// out[i+1] has interval [lo+1, hi-1] inside the guard, provably in chunk.
func DerivedGuarded(out []int) {
	parallelFor(len(out), func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			if i+1 < hi {
				out[i+1] = out[i]
			}
		}
	})
}

// DerivedContinueGuarded proves the same bound established by an early
// continue: the negated refinement survives the terminating branch.
func DerivedContinueGuarded(out []int) {
	parallelFor(len(out), func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			if i+1 >= hi {
				continue
			}
			out[i+1] = out[i]
		}
	})
}

// DerivedUnguarded writes the same derived index with no bound check:
// i+1 reaches hi, one past the chunk.
func DerivedUnguarded(out []int) {
	parallelFor(len(out), func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i+1] = 1 // want `cannot prove write of out\[i \+ 1\] stays in the worker's chunk: index interval \[lo\+1, hi\]`
		}
	})
}

// WScratch accumulates into per-worker scratch pinned to the worker id.
func WScratch(sums []int, vals []int) {
	parallelFor(len(vals), func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			sums[w] += vals[i]
		}
	})
}

type cell struct{ v int }

// PointerElem writes through a local pointer traced to its one defining
// &cells[w] site: the write inherits the proven w-pinned index.
func PointerElem(cells []cell) {
	parallelFor(len(cells), func(w, lo, hi int) {
		c := &cells[w]
		for i := lo; i < hi; i++ {
			c.v += i
		}
	})
}

// SharedMap writes a shared map from workers: unsafe on any key.
func SharedMap(m map[int]int, n int) {
	parallelFor(n, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			m[i] = i // want `parallelFor worker writes to shared map m`
		}
	})
}

// SharedScalar writes an unpartitioned captured scalar.
func SharedScalar(n int) int {
	total := 0
	parallelFor(n, func(w, lo, hi int) {
		total += hi - lo // want `parallelFor worker writes shared variable total without partitioning`
	})
	return total
}

// CrossChunkRead writes only its own chunk but reads its right neighbor,
// which the adjacent worker may be writing concurrently.
func CrossChunkRead(out []int) {
	parallelFor(len(out), func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = out[i+1] * 2 // want `read of out\[i \+ 1\] \(index interval \[lo\+1, hi\]\) may cross chunks`
		}
	})
}

// ReadOnlyTable reads a shared table at arbitrary indices: fine, because
// the region never writes it, so the barrier sequences all its writers.
func ReadOnlyTable(tbl []int, out []int) {
	parallelFor(len(out), func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = tbl[(i*7)%len(tbl)]
		}
	})
}

// mystery has no statically known body.
var mystery func(w, lo, hi int)

// Unresolvable dispatches a worker the analyzer cannot see into: the
// unverifiable dispatch is itself the finding.
func Unresolvable(n int) {
	parallelFor(n, mystery) // want `cannot statically resolve parallelFor worker mystery`
}

// engine mirrors internal/sim's dispatch: the worker is a method bound to
// a func-typed field once at construction, resolved through the package's
// field bindings, with receiver state proven chunk-partitioned.
type engine struct {
	rows []int
	ph   func(w, lo, hi int)
}

func newEngine(n int) *engine {
	e := &engine{rows: make([]int, n)}
	e.ph = e.phaseFill
	return e
}

// phaseFill writes receiver state at induction indices: proven.
func (e *engine) phaseFill(w, lo, hi int) {
	for u := lo; u < hi; u++ {
		e.rows[u] = u
	}
}

func (e *engine) run() {
	parallelFor(len(e.rows), e.ph)
}

// Suppressed documents a worker the analyzer cannot prove but the author
// has audited; the waiver needs a reason like any other directive.
func Suppressed(out []int) {
	j := 0
	parallelFor(len(out), func(w, lo, hi int) {
		//mtmlint:happensbefore-ok fixture: stand-in dispatcher runs workers sequentially
		out[j] = w
	})
}

// HistScatter is a two-pass counting sort: each worker counts into its
// private row of a shared histogram, a sequential prefix merge between the
// passes (the caller's job) turns cells into scatter cursors, and the
// scatter writes through them. The histogram pass is accepted:
// hist[w*n:(w+1)*n] is disjoint per worker for any stride. The scatter is
// not: its disjointness rests on the merge, outside the region, so a
// cursor loaded from the row proves nothing.
func HistScatter(hist, out []int, keys []int, n int) {
	parallelFor(len(keys), func(w, lo, hi int) {
		row := hist[w*n : (w+1)*n]
		clear(row)
		for i := lo; i < hi; i++ {
			row[keys[i]]++
		}
	})
	parallelFor(len(keys), func(w, lo, hi int) {
		row := hist[w*n : (w+1)*n]
		for i := lo; i < hi; i++ {
			out[row[keys[i]]] = i // want `cannot prove`
			row[keys[i]]++
		}
	})
}

// LinkLists is the step-4 count pass of internal/sim: each worker links the
// items of its chunk into per-key lists whose heads live in its private
// row of a shared array, and writes item i's link at i. Both writes are
// accepted.
func LinkLists(heads, next, keys []int, n int) {
	parallelFor(len(keys), func(w, lo, hi int) {
		row := heads[w*n : (w+1)*n]
		clear(row)
		for i := lo; i < hi; i++ {
			next[i] = row[keys[i]]
			row[keys[i]] = i + 1
		}
	})
}

// WorkerRowWrongStride slices with mismatched low and high strides: rows
// overlap between adjacent workers, so the alias is the shared container
// and the non-induction index is unprovable.
func WorkerRowWrongStride(hist []int, n, m int) {
	parallelFor(n, func(w, lo, hi int) {
		row := hist[w*n : (w+1)*m]
		for i := lo; i < hi; i++ {
			row[i-lo]++ // want `cannot prove`
		}
	})
}

// SliceAliasShared aliases an arbitrary window of shared storage: the
// alias is the container itself, and writes through it need the same
// chunk proof as direct writes.
func SliceAliasShared(out []int, idx []int) {
	parallelFor(len(out), func(w, lo, hi int) {
		row := out[2 : len(out)-1]
		for i := lo; i < hi; i++ {
			row[idx[i]] = i // want `cannot prove`
		}
	})
}

// wbuf mirrors internal/obs's per-worker event buffer: a growable slice
// mutated through a pointer-receiver method.
type wbuf struct {
	buf []int
	_   [5]uint64
}

func (b *wbuf) push(v int) { b.buf = append(b.buf, v) }

// bufEngine mirrors the traced parallel engine: phase workers are method
// values bound to func fields once at construction, and each worker emits
// into its own buffer element.
type bufEngine struct {
	bufs  []wbuf
	vals  []int
	phOK  func(w, lo, hi int)
	phBad func(w, lo, hi int)
}

func newBufEngine(n, workers int) *bufEngine {
	e := &bufEngine{bufs: make([]wbuf, workers), vals: make([]int, n)}
	e.phOK = e.phaseEmit
	e.phBad = e.phaseEmitNeighbor
	return e
}

// phaseEmit calls a pointer-receiver method on the worker's own buffer
// element: the implicit &e.bufs[w] is a write pinned to w, proven.
func (e *bufEngine) phaseEmit(w, lo, hi int) {
	for i := lo; i < hi; i++ {
		e.bufs[w].push(e.vals[i])
	}
}

// phaseEmitNeighbor emits into the next worker's buffer: the element index
// is not pinned to w, so the implicit write is the finding.
func (e *bufEngine) phaseEmitNeighbor(w, lo, hi int) {
	for i := lo; i < hi; i++ {
		e.bufs[w+1].push(e.vals[i]) // want `cannot prove`
	}
}

func (e *bufEngine) run() {
	parallelFor(len(e.vals), e.phOK)
	parallelFor(len(e.vals), e.phBad)
}

// maskEngine mirrors the faulted parallel round: BeginRound publishes the
// fault down-mask to a receiver field sequentially, before the dispatch,
// and the mask is frozen until the barrier. Workers read it through a
// captured local alias at the induction index and at arbitrary derived
// indices while writing only their own chunk.
type maskEngine struct {
	down    []bool
	targets []int
	out     []int
	phOK    func(w, lo, hi int)
	phBad   func(w, lo, hi int)
}

func newMaskEngine(n int) *maskEngine {
	e := &maskEngine{down: make([]bool, n), targets: make([]int, n), out: make([]int, n)}
	e.phOK = e.phaseMaskScan
	e.phBad = e.phaseMaskFlip
	return e
}

// phaseMaskScan reads the frozen mask at both the induction index and an
// arbitrary target index. Both reads are safe on any index for the same
// reason ReadOnlyTable's are: no worker in the region writes the mask, so
// the sequential publish before the dispatch is its only writer and the
// barrier sequences every read after it.
func (e *maskEngine) phaseMaskScan(w, lo, hi int) {
	down := e.down
	for u := lo; u < hi; u++ {
		v := 1
		if down != nil && down[u] {
			v = 0
		}
		if down[e.targets[u]] {
			v = 0
		}
		e.out[u] = v
	}
}

// phaseMaskFlip mutates the mask from inside the region at a non-induction
// index: the moment any worker writes it, the frozen-mask argument is gone
// and arbitrary-index reads race with that writer.
func (e *maskEngine) phaseMaskFlip(w, lo, hi int) {
	down := e.down
	for u := lo; u < hi; u++ {
		down[e.targets[u]] = true // want `cannot prove`
	}
}

func (e *maskEngine) run() {
	// The sequential publish: the only write to the mask outside a region.
	for i := range e.down {
		e.down[i] = false
	}
	parallelFor(len(e.out), e.phOK)
	parallelFor(len(e.out), e.phBad)
}

// fusedEngine mirrors internal/sim's fused phase bodies: the dispatched
// worker forwards its own (w, lo, hi) to two sweeps, and each forwarded
// sweep is analyzed as a worker of its own — sweepShift is never
// dispatched directly, yet its out-of-chunk write is still caught.
type fusedEngine struct {
	a, b    []int
	phFused func(w, lo, hi int)
}

func newFusedEngine(n int) *fusedEngine {
	e := &fusedEngine{a: make([]int, n), b: make([]int, n)}
	e.phFused = e.phaseFused
	return e
}

func (e *fusedEngine) phaseFused(w, lo, hi int) {
	e.sweepFill(w, lo, hi)
	e.sweepShift(w, lo, hi)
}

func (e *fusedEngine) sweepFill(w, lo, hi int) {
	for i := lo; i < hi; i++ {
		e.a[i] = i
	}
}

func (e *fusedEngine) sweepShift(w, lo, hi int) {
	for i := lo; i < hi; i++ {
		e.b[i+1] = e.a[i] // want `cannot prove write of e.b\[i \+ 1\]`
	}
}

func (e *fusedEngine) run() {
	parallelFor(len(e.a), e.phFused)
}
