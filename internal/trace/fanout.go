package trace

import "sync"

// BatchSink is an optional extension of Sink for consumers that can
// process whole batches of references at once. The engine's staging
// buffer and the fan-out dispatcher use it to amortize the
// per-reference interface call. The batch slice is only valid for the
// duration of the call and is read-only: implementations must not
// mutate it, and must copy anything they need after AddBatch returns
// (producers such as mem.Memory reuse the slice for the next batch).
type BatchSink interface {
	Sink
	AddBatch(refs []Ref)
}

const (
	// fanOutChunkRefs is the number of references per dispatch batch.
	// Larger chunks amortize channel operations; smaller ones reduce
	// consumer latency.
	fanOutChunkRefs = 8192
	// fanOutDepth is the per-consumer channel buffer in chunks: how far
	// a fast producer may run ahead of the slowest consumer.
	fanOutDepth = 4
)

// FanOut is the concurrent fan-out dispatcher: it accepts a single
// ordered reference stream (it implements Sink and BatchSink) and
// delivers it to every consumer sink on a dedicated goroutine, in
// chunks, over a buffered channel per consumer.
//
// Ordering: every consumer receives every reference exactly once, in
// exactly the emission order — chunks are sent to each consumer channel
// in order and each consumer processes its chunks sequentially, so a
// deterministic consumer (e.g. a cache simulator) produces results
// bit-identical to a sequential replay.
//
// The producer side (Add, AddBatch, Close) is single-goroutine, like
// any other Sink. Consumers never see concurrent calls either: each
// sink is driven by exactly one goroutine. The chunks handed to
// consumers may be shared between them, so consumers must treat them
// as read-only.
//
// Close flushes the partial chunk, closes the channels and waits for
// all consumers to drain. A FanOut must be Closed before the consumer
// sinks' results are read; reading earlier is a data race.
type FanOut struct {
	chans     []chan []Ref
	wg        sync.WaitGroup
	chunk     []Ref
	chunkRefs int
	closed    bool
}

// NewFanOut starts one consumer goroutine per sink and returns the
// dispatcher. A FanOut with no sinks is valid and discards everything.
func NewFanOut(sinks ...Sink) *FanOut { return newFanOut(fanOutChunkRefs, sinks...) }

// newFanOut is NewFanOut with an explicit chunk size, so tests can
// drive the chunk boundaries with small traces.
func newFanOut(chunkRefs int, sinks ...Sink) *FanOut {
	f := &FanOut{
		chans:     make([]chan []Ref, len(sinks)),
		chunkRefs: chunkRefs,
	}
	for i, s := range sinks {
		ch := make(chan []Ref, fanOutDepth)
		f.chans[i] = ch
		f.wg.Add(1)
		go consume(&f.wg, ch, s)
	}
	return f
}

// consume drains one consumer's chunk channel into its sink.
func consume(wg *sync.WaitGroup, ch <-chan []Ref, s Sink) {
	defer wg.Done()
	if bs, ok := s.(BatchSink); ok {
		for chunk := range ch {
			bs.AddBatch(chunk)
		}
		return
	}
	for chunk := range ch {
		for _, r := range chunk {
			s.Add(r)
		}
	}
}

// send dispatches one ready chunk to every consumer. The chunk is
// shared between consumers and must not be written after this point.
func (f *FanOut) send(chunk []Ref) {
	if len(chunk) == 0 {
		return
	}
	for _, ch := range f.chans {
		ch <- chunk
	}
}

// Add implements Sink: the reference is appended to the current chunk,
// which is dispatched when full. A FanOut is dead after Close; Add
// panics rather than silently dropping or deadlocking.
func (f *FanOut) Add(r Ref) {
	if f.closed {
		panic("trace: FanOut.Add after Close")
	}
	if f.chunk == nil {
		f.chunk = make([]Ref, 0, f.chunkRefs)
	}
	f.chunk = append(f.chunk, r)
	if len(f.chunk) == f.chunkRefs {
		f.send(f.chunk)
		f.chunk = nil
	}
}

// AddBatch implements BatchSink: the batch is copied into the
// dispatcher's own chunk buffers, so per the BatchSink contract the
// caller's slice is free for reuse the moment AddBatch returns. Like
// Add, AddBatch panics after Close.
func (f *FanOut) AddBatch(refs []Ref) {
	if f.closed {
		panic("trace: FanOut.AddBatch after Close")
	}
	for len(refs) > 0 {
		if f.chunk == nil {
			f.chunk = make([]Ref, 0, f.chunkRefs)
		}
		n := f.chunkRefs - len(f.chunk)
		if n > len(refs) {
			n = len(refs)
		}
		f.chunk = append(f.chunk, refs[:n]...)
		refs = refs[n:]
		if len(f.chunk) == f.chunkRefs {
			f.send(f.chunk)
			f.chunk = nil
		}
	}
}

// StableBatchSink is the capability interface for batch consumers
// that can ingest a batch without copying, provided the producer
// guarantees the slice is immutable and outlives the sink's processing
// (for a FanOut, until Close returns). Buffer.ReplayAll and
// ChunkReader.Replay qualify as producers (an in-memory buffer and
// freshly decoded chunks respectively) and prefer this path; a reused
// staging buffer does not qualify and must use AddBatch.
type StableBatchSink interface {
	BatchSink
	// AddBatchStable consumes the batch without copying; the caller
	// promises never to mutate the slice while the sink can still
	// read it.
	AddBatchStable(refs []Ref)
}

// AddBatchStable implements StableBatchSink: full chunks are
// dispatched to the consumers as sub-slices of refs without copying.
func (f *FanOut) AddBatchStable(refs []Ref) {
	if f.closed {
		panic("trace: FanOut.AddBatch after Close")
	}
	// Top up a partial chunk first so ordering is preserved.
	for len(refs) > 0 && len(f.chunk) > 0 {
		n := f.chunkRefs - len(f.chunk)
		if n > len(refs) {
			n = len(refs)
		}
		f.chunk = append(f.chunk, refs[:n]...)
		refs = refs[n:]
		if len(f.chunk) == f.chunkRefs {
			f.send(f.chunk)
			f.chunk = nil
		}
	}
	// Dispatch full chunks directly from the caller's slice.
	for len(refs) >= f.chunkRefs {
		f.send(refs[:f.chunkRefs:f.chunkRefs])
		refs = refs[f.chunkRefs:]
	}
	// Buffer the tail.
	if len(refs) > 0 {
		if f.chunk == nil {
			f.chunk = make([]Ref, 0, f.chunkRefs)
		}
		f.chunk = append(f.chunk, refs...)
	}
}

// Close flushes the partial chunk and blocks until every consumer has
// processed its entire stream. After Close returns the consumer sinks
// are quiescent and safe to read. Close is idempotent.
func (f *FanOut) Close() {
	if f.closed {
		return
	}
	f.closed = true
	f.send(f.chunk)
	f.chunk = nil
	for _, ch := range f.chans {
		close(ch)
	}
	f.wg.Wait()
}

// ReplayAll feeds the buffered trace to all sinks concurrently in a
// single pass, returning once every sink has consumed the full trace.
// The buffer is chunked by reference (no copying); sinks receive the
// references in buffer order, so deterministic sinks produce results
// identical to sequential Replay.
func (b *Buffer) ReplayAll(sinks ...Sink) {
	if len(sinks) == 1 {
		// A single consumer gains nothing from the goroutine hop;
		// Replay hands the whole buffer to a BatchSink in one call.
		b.Replay(sinks[0])
		return
	}
	f := NewFanOut(sinks...)
	f.AddBatchStable(b.Refs) // the buffer is immutable for the duration
	f.Close()
}
