package trace

import (
	"sync/atomic"
	"testing"
)

// synthRefs builds a deterministic pseudo-random reference stream.
func synthRefs(n int) []Ref {
	refs := make([]Ref, n)
	s := uint64(0x9e3779b97f4a7c15)
	for i := range refs {
		s = s*6364136223846793005 + 1442695040888963407
		refs[i] = Ref{
			Addr: uint32(s>>23) & 0xffffff,
			PE:   uint8(s>>17) & 7,
			Op:   Op(s >> 13 & 1),
			Obj:  ObjType(1 + (s>>5)%uint64(NumObjTypes-1)),
		}
	}
	return refs
}

// recordSink records the stream it receives (single-goroutine, per the
// Sink contract).
type recordSink struct {
	refs []Ref
}

func (r *recordSink) Add(ref Ref) { r.refs = append(r.refs, ref) }

// batchRecordSink is a recordSink that also implements BatchSink.
type batchRecordSink struct {
	recordSink
	batches int
}

func (r *batchRecordSink) AddBatch(refs []Ref) {
	r.refs = append(r.refs, refs...)
	r.batches++
}

func sameRefs(t *testing.T, label string, got, want []Ref) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d refs, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: ref %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

func TestFanOutDeliversEveryRefInOrder(t *testing.T) {
	want := synthRefs(10_000)
	for _, chunk := range []int{1, 3, 1000, fanOutChunkRefs} {
		plain := &recordSink{}
		batch := &batchRecordSink{}
		f := newFanOut(chunk, plain, batch)
		for _, r := range want {
			f.Add(r)
		}
		f.Close()
		sameRefs(t, "plain sink", plain.refs, want)
		sameRefs(t, "batch sink", batch.refs, want)
		if batch.batches == 0 {
			t.Error("BatchSink consumer was fed per-ref")
		}
	}
}

func TestFanOutAddBatchMixedWithAdd(t *testing.T) {
	want := synthRefs(5000)
	sink := &recordSink{}
	f := newFanOut(64, sink)
	// Interleave singles and batches of every size class: smaller than a
	// chunk, exact multiple, and larger with a partial chunk pending.
	i := 0
	for _, n := range []int{1, 10, 64, 200, 1, 1000, 63} {
		f.AddBatch(want[i : i+n])
		i += n
	}
	for ; i < len(want); i++ {
		f.Add(want[i])
	}
	f.Close()
	sameRefs(t, "mixed add", sink.refs, want)
}

func TestFanOutCloseIsIdempotentAndEmptyOK(t *testing.T) {
	sink := &recordSink{}
	f := NewFanOut(sink)
	f.Close()
	f.Close()
	if len(sink.refs) != 0 {
		t.Fatalf("empty fan-out delivered %d refs", len(sink.refs))
	}
	// No sinks at all is valid too.
	f2 := NewFanOut()
	f2.Add(Ref{})
	f2.Close()
	// A FanOut is dead after Close: Add must fail fast.
	defer func() {
		if recover() == nil {
			t.Error("Add after Close did not panic")
		}
	}()
	f2.Add(Ref{})
}

func TestBufferReplayAllMatchesReplay(t *testing.T) {
	buf := &Buffer{Refs: synthRefs(33_333)}
	var seq recordSink
	buf.Replay(&seq)

	sinks := []*recordSink{{}, {}, {}, {}, {}}
	fan := make([]Sink, len(sinks))
	for i := range sinks {
		fan[i] = sinks[i]
	}
	buf.ReplayAll(fan...)
	for _, s := range sinks {
		sameRefs(t, "fan-out consumer", s.refs, seq.refs)
	}
}

// countSink does enough per-ref work that consumers genuinely overlap;
// run under -race this exercises the dispatcher's synchronization.
type countSink struct {
	n   atomic.Int64
	sum uint64
}

func (c *countSink) Add(r Ref) {
	c.sum += uint64(r.Addr)
	c.n.Add(1)
}

func TestFanOutConcurrentConsumersRace(t *testing.T) {
	refs := synthRefs(100_000)
	var want uint64
	for _, r := range refs {
		want += uint64(r.Addr)
	}
	sinks := make([]Sink, 8)
	counts := make([]*countSink, 8)
	for i := range sinks {
		counts[i] = &countSink{}
		sinks[i] = counts[i]
	}
	buf := &Buffer{Refs: refs}
	buf.ReplayAll(sinks...)
	for i, c := range counts {
		if got := c.n.Load(); got != int64(len(refs)) {
			t.Errorf("consumer %d saw %d refs, want %d", i, got, len(refs))
		}
		if c.sum != want {
			t.Errorf("consumer %d checksum %d, want %d", i, c.sum, want)
		}
	}
}
