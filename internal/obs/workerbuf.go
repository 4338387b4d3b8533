package obs

// WorkerBuf is one parallel worker's private event buffer: phase bodies
// running as worker w emit into buffer w instead of the configured sink,
// and the engine drains the buffers into the sink in ascending worker
// order at each sequential barrier. Worker chunks ascend in node id and
// each worker iterates its chunk in ascending order, so the chunk-order
// concatenation reproduces exactly the sequential engine's event order —
// the same argument that makes the engine's parallel step-4 inboxes
// bit-identical.
//
// The struct is padded to a cache line (like workerCounters in the engine)
// so adjacent workers' appends never false-share, and growth uses the
// amortized cap-guarded-make idiom so a warm buffer emits at 0 allocs per
// round (pinned by the Workers>1 variant of TestSteadyStateZeroAllocsTraced
// and certified statically by the hotalloc analyzer).
type WorkerBuf struct {
	buf []Event
	_   [5]uint64 // pad the 24-byte slice header to a full 64-byte cache line
}

// workerBufFloor is the minimum capacity a growing buffer jumps to, so the
// first few rounds do not reallocate per event.
const workerBufFloor = 64

// Begin is a no-op: the engine writes the header to the real sink from its
// sequential section, never through a worker buffer.
func (b *WorkerBuf) Begin(Header) {}

// Event appends one event to the worker's private buffer. Growth is
// amortized doubling behind a cap guard, so the append below it never
// reallocates — the shape the hotalloc cap-guarded-make recognizer
// certifies allocation-free in the steady state.
//
//mtmlint:hotpath
func (b *WorkerBuf) Event(e Event) {
	if len(b.buf) == cap(b.buf) {
		old := b.buf
		b.buf = make([]Event, len(b.buf), 2*cap(b.buf)+workerBufFloor)
		copy(b.buf, old)
	}
	b.buf = append(b.buf, e)
}

// End is a no-op: stream lifecycle belongs to the real sink.
func (b *WorkerBuf) End() {}

// Len returns the number of buffered events awaiting a flush.
func (b *WorkerBuf) Len() int { return len(b.buf) }

// FlushTo forwards the buffered events to s in emission order and resets
// the buffer, retaining its capacity. Only the engine's sequential barriers
// call this, so s observes no concurrent calls.
func (b *WorkerBuf) FlushTo(s Sink) {
	for i := range b.buf {
		s.Event(b.buf[i])
	}
	b.buf = b.buf[:0]
}
