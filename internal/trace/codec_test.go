package trace

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// synthTrace builds a deterministic pseudo-trace with the statistical
// shape of a real RAP-WAM trace: runs of same-PE references with mostly
// small address deltas, occasional far jumps, all object types.
func synthTrace(n, pes int) []Ref {
	refs := make([]Ref, 0, n)
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 24
	}
	addrs := make([]uint32, pes)
	for i := range addrs {
		addrs[i] = uint32(0x10000 * (i + 1))
	}
	pe := 0
	for len(refs) < n {
		if next()%13 == 0 {
			pe = int(next() % uint64(pes))
		}
		a := addrs[pe]
		switch next() % 8 {
		case 0:
			a -= uint32(next() % 7)
		case 1:
			a = uint32(next()) // far jump
		default:
			a += uint32(next() % 9)
		}
		addrs[pe] = a
		op := OpRead
		if next()%3 == 0 {
			op = OpWrite
		}
		refs = append(refs, Ref{
			Addr: a,
			PE:   uint8(pe),
			Op:   op,
			Obj:  ObjType(1 + next()%uint64(NumObjTypes-1)),
		})
	}
	return refs
}

func encodeCompact(t *testing.T, refs []Ref, meta Meta) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw, err := NewChunkWriter(&buf, meta)
	if err != nil {
		t.Fatalf("NewChunkWriter: %v", err)
	}
	cw.AddBatch(refs)
	if err := cw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// encodeDelivered encodes refs with one ChunkWriter, delivering them
// one at a time (batch <= 0) or in AddBatch slices of batch refs.
func encodeDelivered(refs []Ref, meta Meta, batch int) ([]byte, error) {
	var buf bytes.Buffer
	cw, err := NewChunkWriter(&buf, meta)
	if err != nil {
		return nil, err
	}
	if batch <= 0 {
		for _, r := range refs {
			cw.Add(r)
		}
	} else {
		for len(refs) > 0 {
			n := min(batch, len(refs))
			cw.AddBatch(refs[:n])
			refs = refs[n:]
		}
	}
	if err := cw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// TestParallelChunkWriterByteParity checks the encoder's bytes depend on
// the reference stream alone: for stream lengths around the chunk
// boundary, `workers` ChunkWriters encoding the same stream at once
// (as the grid's cell pool does) with any delivery granularity each
// produce exactly the bytes of a single AddBatch encode.
func TestParallelChunkWriterByteParity(t *testing.T) {
	meta := Meta{Benchmark: "synth", PEs: 8, EmulatorVersion: "test"}
	sizes := []int{0, 1, 100, codecChunkRefs - 1, codecChunkRefs, codecChunkRefs + 1, 3*codecChunkRefs + 17}
	for _, n := range sizes {
		refs := synthTrace(n, meta.PEs)
		want := encodeCompact(t, refs, meta)
		for _, workers := range []int{1, 2, 4} {
			for _, batch := range []int{0, 1000, codecChunkRefs, 65536} {
				t.Run(fmt.Sprintf("n=%d/workers=%d/batch=%d", n, workers, batch), func(t *testing.T) {
					got := make([][]byte, workers)
					errs := make([]error, workers)
					var wg sync.WaitGroup
					for w := 0; w < workers; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							got[w], errs[w] = encodeDelivered(refs, meta, batch)
						}(w)
					}
					wg.Wait()
					for w := range got {
						if errs[w] != nil {
							t.Fatalf("writer %d: %v", w, errs[w])
						}
						if !bytes.Equal(got[w], want) {
							t.Fatalf("writer %d: bytes differ from a single AddBatch encode: got %d bytes, want %d", w, len(got[w]), len(want))
						}
					}
				})
			}
		}
	}
}

func TestCompactRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, codecChunkRefs, codecChunkRefs + 1, 3*codecChunkRefs + 1234} {
		refs := synthTrace(n, 8)
		meta := Meta{Benchmark: "synth", PEs: 8, Sequential: false, EmulatorVersion: "test1"}
		enc := encodeCompact(t, refs, meta)

		cr, err := NewChunkReader(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("n=%d: NewChunkReader: %v", n, err)
		}
		got := &Buffer{}
		total, err := cr.Replay(got)
		if err != nil {
			t.Fatalf("n=%d: Replay: %v", n, err)
		}
		if total != int64(n) {
			t.Fatalf("n=%d: replayed %d refs", n, total)
		}
		if len(got.Refs) != n {
			t.Fatalf("n=%d: decoded %d refs", n, len(got.Refs))
		}
		for i := range refs {
			if got.Refs[i] != refs[i] {
				t.Fatalf("n=%d: ref %d: got %v want %v", n, i, got.Refs[i], refs[i])
			}
		}
		m := cr.Meta()
		if m.Benchmark != "synth" || m.PEs != 8 || m.Sequential || m.EmulatorVersion != "test1" {
			t.Fatalf("n=%d: meta mismatch: %+v", n, m)
		}
		if m.Refs != int64(n) {
			t.Fatalf("n=%d: meta.Refs = %d", n, m.Refs)
		}
		var perPE [8]int64
		for _, r := range refs {
			perPE[r.PE]++
		}
		for pe, want := range perPE {
			if m.PerPE[pe] != want {
				t.Fatalf("n=%d: PerPE[%d] = %d, want %d", n, pe, m.PerPE[pe], want)
			}
		}
	}
}

// TestCompactRoundTripSingleRefs checks the non-batch encode path and a
// non-batch decode sink.
func TestCompactRoundTripSingleRefs(t *testing.T) {
	refs := synthTrace(10000, 3)
	var buf bytes.Buffer
	cw, err := NewChunkWriter(&buf, Meta{Benchmark: "one", PEs: 3, EmulatorVersion: "t"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		cw.Add(r)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	cr, err := NewChunkReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var got []Ref
	n, err := cr.Replay(addFunc(func(r Ref) { got = append(got, r) }))
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(refs)) || len(got) != len(refs) {
		t.Fatalf("decoded %d/%d refs", n, len(got))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Fatalf("ref %d: got %v want %v", i, got[i], refs[i])
		}
	}
}

// addFunc adapts a function to Sink without implementing BatchSink.
type addFunc func(Ref)

func (f addFunc) Add(r Ref) { f(r) }

func TestCompactSniffing(t *testing.T) {
	refs := synthTrace(5000, 4)
	enc := encodeCompact(t, refs, Meta{Benchmark: "sniff", PEs: 4, EmulatorVersion: "t"})

	// Buffer.ReadFrom sniffs the compact magic.
	var b Buffer
	if _, err := b.ReadFrom(bytes.NewReader(enc)); err != nil {
		t.Fatalf("ReadFrom(compact): %v", err)
	}
	if len(b.Refs) != len(refs) {
		t.Fatalf("ReadFrom decoded %d refs, want %d", len(b.Refs), len(refs))
	}

	// ReadStream sniffs too.
	var c Counter
	n, err := ReadStream(bytes.NewReader(enc), &c)
	if err != nil {
		t.Fatalf("ReadStream(compact): %v", err)
	}
	if n != int64(len(refs)) || c.Total() != int64(len(refs)) {
		t.Fatalf("ReadStream delivered %d refs, counter %d", n, c.Total())
	}

	// The legacy format still round-trips through the same entry points.
	var legacy bytes.Buffer
	if _, err := (&Buffer{Refs: refs}).WriteTo(&legacy); err != nil {
		t.Fatal(err)
	}
	var lb Buffer
	if _, err := lb.ReadFrom(bytes.NewReader(legacy.Bytes())); err != nil {
		t.Fatalf("ReadFrom(legacy): %v", err)
	}
	if len(lb.Refs) != len(refs) {
		t.Fatalf("legacy decoded %d refs", len(lb.Refs))
	}
}

func TestCompactSize(t *testing.T) {
	refs := synthTrace(100000, 8)
	enc := encodeCompact(t, refs, Meta{Benchmark: "size", PEs: 8, EmulatorVersion: "t"})
	legacyBytes := 12 + 8*len(refs)
	if len(enc) >= legacyBytes {
		t.Fatalf("compact encoding %d bytes is not smaller than legacy %d", len(enc), legacyBytes)
	}
	t.Logf("compact: %.2f bytes/ref (legacy: 8)", float64(len(enc))/float64(len(refs)))
}

// TestCompactCorruption flips every byte of a small encoded trace in
// turn and requires the decoder to reject (or decode identically — CRCs
// do not cover framing varints' redundant encodings, but any accepted
// decode must be correct).
func TestCompactCorruption(t *testing.T) {
	refs := synthTrace(2000, 4)
	enc := encodeCompact(t, refs, Meta{Benchmark: "corrupt", PEs: 4, EmulatorVersion: "t"})
	for i := 0; i < len(enc); i++ {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x5a
		cr, err := NewChunkReader(bytes.NewReader(mut))
		if err != nil {
			continue // rejected at header parse: good
		}
		got := &Buffer{}
		if _, err := cr.Replay(got); err != nil {
			continue // rejected during decode: good
		}
		// Accepted: must be byte-for-byte the original stream.
		if len(got.Refs) != len(refs) {
			t.Fatalf("flip at byte %d accepted with %d refs (want %d)", i, len(got.Refs), len(refs))
		}
		for j := range refs {
			if got.Refs[j] != refs[j] {
				t.Fatalf("flip at byte %d accepted with wrong ref %d", i, j)
			}
		}
	}
}

func TestCompactTruncation(t *testing.T) {
	refs := synthTrace(20000, 4)
	enc := encodeCompact(t, refs, Meta{Benchmark: "trunc", PEs: 4, EmulatorVersion: "t"})
	for _, cut := range []int{1, 3, 10, 100, len(enc) / 2, len(enc) - 1} {
		cr, err := NewChunkReader(bytes.NewReader(enc[:cut]))
		if err != nil {
			continue // truncated inside the header: good
		}
		if _, err := cr.Replay(&Buffer{}); err == nil {
			t.Fatalf("truncation at %d of %d bytes not detected", cut, len(enc))
		}
	}
}

func TestCompactRejectsWrongVersion(t *testing.T) {
	enc := encodeCompact(t, synthTrace(10, 2), Meta{PEs: 2, EmulatorVersion: "t"})
	enc[4] = CodecVersion + 1 // version byte follows the 4-byte magic
	if _, err := NewChunkReader(bytes.NewReader(enc)); err == nil {
		t.Fatal("future codec version accepted")
	} else if !strings.Contains(err.Error(), "version") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestChunkWriterRejectsOutOfRange(t *testing.T) {
	var buf bytes.Buffer
	cw, err := NewChunkWriter(&buf, Meta{PEs: 2, EmulatorVersion: "t"})
	if err != nil {
		t.Fatal(err)
	}
	cw.Add(Ref{Addr: 1, PE: 5}) // PE outside the declared 2
	if err := cw.Close(); err == nil {
		t.Fatal("out-of-range PE not rejected")
	}
}

func TestReplayTwiceRejected(t *testing.T) {
	enc := encodeCompact(t, synthTrace(10, 2), Meta{PEs: 2, EmulatorVersion: "t"})
	cr, err := NewChunkReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cr.Replay(Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := cr.Replay(Discard); err == nil {
		t.Fatal("second Replay accepted")
	}
}
