package mem

// Tests for the staged reference path, the O(1) classification table
// and the mapped address space — the memory-side half of the emulator
// hot-path rework. The invariants here are what the golden trace-parity
// suite (internal/bench) relies on: staging preserves emission order
// exactly, classification is bit-equal to the arithmetic definition,
// every new address space reads all-zero whatever ran before it, and
// Release gives the whole mapping back.

import (
	"testing"

	"repro/internal/trace"
)

// refLayout is a small layout exercised by the hot-path tests.
var refLayout = Layout{Workers: 3, Heap: 512, Local: 256, Control: 256, Trail: 128, PDL: 64, Goal: 64, Msg: 64}

// TestStagingPreservesOrder drives an interleaved read/write pattern
// across PEs and areas and checks the sink sees exactly the emission
// order, including across flush boundaries.
func TestStagingPreservesOrder(t *testing.T) {
	buf := trace.NewBuffer(0)
	m := NewMemory(refLayout, buf)
	defer m.Release()
	var want []trace.Ref
	rng := uint64(12345)
	n := stageRefs*2 + 1234 // cross several flush boundaries
	for i := 0; i < n; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		pe := int(rng>>33) % refLayout.Workers
		heap := m.Region(pe, trace.AreaHeap)
		addr := heap.Base + int(rng>>40)%heap.Size()
		if rng&1 == 0 {
			m.Write(pe, addr, MakeInt(int64(i)), trace.ObjHeap)
			want = append(want, trace.Ref{Addr: uint32(addr), PE: uint8(pe), Op: trace.OpWrite, Obj: trace.ObjHeap})
		} else {
			m.Read(pe, addr, trace.ObjEnvPVar)
			want = append(want, trace.Ref{Addr: uint32(addr), PE: uint8(pe), Op: trace.OpRead, Obj: trace.ObjEnvPVar})
		}
	}
	m.Flush()
	if buf.Len() != len(want) {
		t.Fatalf("sink saw %d refs, want %d", buf.Len(), len(want))
	}
	for i, r := range buf.Refs {
		if r != want[i] {
			t.Fatalf("ref %d = %v, want %v", i, r, want[i])
		}
	}
	if got := m.Counter().Total(); got != int64(len(want)) {
		t.Errorf("counter total = %d, want %d", got, len(want))
	}
}

// TestCounterMatchesPerRefTally cross-checks the flat flush tally
// against a reference trace.Counter fed one reference at a time.
func TestCounterMatchesPerRefTally(t *testing.T) {
	buf := trace.NewBuffer(0)
	m := NewMemory(refLayout, buf)
	defer m.Release()
	objs := []trace.ObjType{trace.ObjHeap, trace.ObjEnvPVar, trace.ObjTrail, trace.ObjGoalFrame, trace.ObjMessage}
	rng := uint64(99)
	for i := 0; i < 3*stageRefs/2; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		pe := int(rng>>33) % refLayout.Workers
		heap := m.Region(pe, trace.AreaHeap)
		addr := heap.Base + int(rng>>40)%heap.Size()
		obj := objs[int(rng>>20)%len(objs)]
		if rng&1 == 0 {
			m.Write(pe, addr, MakeInt(1), obj)
		} else {
			m.Read(pe, addr, obj)
		}
	}
	m.Flush()
	var want trace.Counter
	for _, r := range buf.Refs {
		want.Add(r)
	}
	got := m.Counter()
	if *got != want {
		t.Errorf("materialized counter differs from per-ref reference:\n got %+v\nwant %+v", *got, want)
	}
}

// TestClassifyMatchesArithmetic scans every address of a layout and
// compares the table-based Classify against the arithmetic definition
// (div/mod over the span plus a linear area scan).
func TestClassifyMatchesArithmetic(t *testing.T) {
	m := NewMemory(refLayout, nil)
	defer m.Release()
	span := m.Layout().SpanWords()
	sizes := []struct {
		area trace.Area
		size int
	}{
		{trace.AreaHeap, m.Layout().Heap},
		{trace.AreaLocal, m.Layout().Local},
		{trace.AreaControl, m.Layout().Control},
		{trace.AreaTrail, m.Layout().Trail},
		{trace.AreaPDL, m.Layout().PDL},
		{trace.AreaGoal, m.Layout().Goal},
		{trace.AreaMsg, m.Layout().Msg},
	}
	for addr := 0; addr < m.Size(); addr++ {
		wantPE := addr / span
		off := addr % span
		wantArea := trace.AreaNone
		for _, s := range sizes {
			if off < s.size {
				wantArea = s.area
				break
			}
			off -= s.size
		}
		gotPE, gotArea := m.Classify(addr)
		if gotPE != wantPE || gotArea != wantArea {
			t.Fatalf("Classify(%d) = (%d,%v), want (%d,%v)", addr, gotPE, gotArea, wantPE, wantArea)
		}
	}
	if pe, a := m.Classify(-1); pe != -1 || a != trace.AreaNone {
		t.Errorf("Classify(-1) = (%d,%v)", pe, a)
	}
	if pe, a := m.Classify(m.Size()); pe != -1 || a != trace.AreaNone {
		t.Errorf("Classify(size) = (%d,%v)", pe, a)
	}
}

// TestNewMemoryIsZeroAfterRelease dirties memory through every write
// path (traced writes, Pokes, cross-PE writes) and releases it; the next
// NewMemory of the same layout must read all-zero words, and every
// mapped byte must be given back at each Release.
func TestNewMemoryIsZeroAfterRelease(t *testing.T) {
	before := MappedBytes()
	m := NewMemory(refLayout, nil)
	if got, want := MappedBytes()-before, int64((stageWords+m.Size())*wordBytes); got != want {
		t.Fatalf("NewMemory mapped %d bytes, want %d", got, want)
	}
	rng := uint64(7)
	for i := 0; i < 4*stageRefs+99; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		pe := int(rng>>33) % refLayout.Workers
		area := []trace.Area{trace.AreaHeap, trace.AreaLocal, trace.AreaTrail, trace.AreaMsg}[int(rng>>40)%4]
		reg := m.Region(pe, area)
		addr := reg.Base + int(rng>>45)%reg.Size()
		m.Write((pe+1)%refLayout.Workers, addr, MakeInt(-1), trace.ObjHeap) // cross-PE attribution
	}
	m.Poke(0, MakeInt(42))
	m.Poke(m.Size()-1, MakeInt(42))
	m.Release()
	if got := MappedBytes(); got != before {
		t.Fatalf("MappedBytes after Release = %d, want %d", got, before)
	}

	m2 := NewMemory(refLayout, nil)
	for addr := 0; addr < m2.Size(); addr++ {
		if w := m2.Peek(addr); w != 0 {
			t.Fatalf("new address space not zero at %d: %v", addr, w)
		}
	}
	m2.Release()
	if got := MappedBytes(); got != before {
		t.Fatalf("MappedBytes after second Release = %d, want %d", got, before)
	}
}

// TestReleaseIsTerminal checks a released Memory cannot silently keep
// operating on its unmapped space: the access is a Go panic, which
// recover sees, not a fault that kills the process.
func TestReleaseIsTerminal(t *testing.T) {
	m := NewMemory(refLayout, nil)
	m.Release()
	m.Release() // idempotent
	for name, access := range map[string]func(){
		"Write": func() { m.Write(0, 0, MakeInt(1), trace.ObjHeap) },
		"Read":  func() { m.Read(0, 0, trace.ObjHeap) },
		"Peek":  func() { m.Peek(0) },
		"Poke":  func() { m.Poke(0, MakeInt(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Release did not panic", name)
				}
			}()
			access()
		}()
	}
}

// TestNewMemoryRejectsTooManyWorkers pins the trace.MaxPEs bound.
func TestNewMemoryRejectsTooManyWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMemory with 65 workers did not panic")
		}
	}()
	NewMemory(Layout{Workers: trace.MaxPEs + 1, Heap: 64, Local: 64, Control: 64, Trail: 64, PDL: 64, Goal: 64, Msg: 64}, nil)
}

// BenchmarkMemoryRefPath measures the steady-state traced reference
// path — staging append, counter fold, batch hand-off to a BatchSink —
// and pins it at zero allocations per operation.
func BenchmarkMemoryRefPath(b *testing.B) {
	m := NewMemory(refLayout, trace.Discard)
	defer m.Release()
	heap := m.Region(0, trace.AreaHeap)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := heap.Base + i%heap.Size()
		m.Write(0, addr, MakeInt(int64(i)), trace.ObjHeap)
		m.Read(0, addr, trace.ObjHeap)
	}
	b.StopTimer()
	m.Flush()
	b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "refs/s")
}
