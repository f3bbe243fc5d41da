package trace

import (
	"encoding/binary"
	"os"
	"testing"
)

// The codec contract: encode→decode is byte-identical for every
// canonical event stream (fields a kind does not use are zero, which
// is how the Buffer/Recorder constructors — the only emitters — build
// events), across chunk boundaries, both fill paths, and the overflow
// fallback.

// collectEvents decodes a recording back into a flat slice via the
// fused-decode drain path.
func collectEvents(r *Recording) []Event {
	var got []Event
	r.Drain(Unbatched2{&appendSink{out: &got}})
	return got
}

// TestCodecRoundTripChunkBoundaries round-trips streams whose lengths
// straddle the staging-chunk boundary: one short, one exactly one
// chunk, one just over, one spanning several chunks plus a tail.
func TestCodecRoundTripChunkBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, 37, RecordChunkEvents - 1, RecordChunkEvents,
		RecordChunkEvents + 1, 2*RecordChunkEvents + 777} {
		events := synthEvents(n)
		var r Recording
		r.append(events)
		if r.Len() != n {
			t.Fatalf("n=%d: Len %d", n, r.Len())
		}
		got := collectEvents(&r)
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d events", n, len(got))
		}
		for i := range got {
			if got[i] != events[i] {
				t.Fatalf("n=%d: event %d altered: got %+v want %+v", n, i, got[i], events[i])
			}
		}
		r.Release()
	}
}

// TestCodecCompressesRedundantStreams pins the size win on an
// engine-shaped stream: strided loads, repeated branch sites, fixed
// fetch kernels. The real-workload ratio is measured and recorded by
// BenchmarkCompressedReplay; this is the floor that keeps the codec
// honest in unit tests.
func TestCodecCompressesRedundantStreams(t *testing.T) {
	var events []Event
	for i := 0; i < 4*RecordChunkEvents; i++ {
		base := uint64(0x4000_0000 + i*100)
		events = append(events,
			Event{Kind: EvFetchBlock, Addr: 0x0800_0040, Size: 28, A: 7, B: 11},
			Event{Kind: EvLoad, Addr: base, Size: 8},
			Event{Kind: EvLoad, Addr: base + 8, Size: 8},
			Event{Kind: EvBranch, Addr: 0x0800_0060, Aux: 0x0800_0040, Taken: i%3 != 0},
			Event{Kind: EvRecordProcessed},
		)
	}
	var r Recording
	r.append(events)
	defer r.Release()
	ratio := float64(r.RawBytes()) / float64(r.Bytes())
	if ratio < 4 {
		t.Errorf("engine-shaped stream compressed only %.1fx (raw %dB, compressed %dB); want >= 4x",
			ratio, r.RawBytes(), r.Bytes())
	}
}

// TestCodecOverflowReleasesImmediately pins the overflow fallback: the
// moment a capture exceeds its cap, the already-encoded chunks and the
// staging tail go back to the free lists — not at cache-eviction time.
func TestCodecOverflowReleasesImmediately(t *testing.T) {
	events := synthEvents(3 * RecordChunkEvents)
	var tally Counting
	rec := NewRecorder(&tally, 2*RecordChunkEvents+10)
	rec.ProcessBatch(events)
	if !rec.Overflowed() {
		t.Fatal("stream past the cap must overflow")
	}
	if rec.Recording() != nil {
		t.Fatal("overflowed recorder must not hand out a recording")
	}
	if got := rec.rec.Bytes(); got != 0 {
		t.Errorf("overflowed capture still retains %d arena bytes; must release immediately", got)
	}
	if rec.rec.tail != nil || len(rec.rec.enc) != 0 {
		t.Error("overflowed capture still holds staging or encoded chunks")
	}
}

// TestCodecBytesAccounting pins Bytes/RawBytes against the input
// stream: RawBytes is every event at EventBytes, Bytes the encoded
// chunks plus the staging tail at full width — and both fill paths
// (bulk append, per-event appendOne) account identically.
func TestCodecBytesAccounting(t *testing.T) {
	const tail = 100
	events := synthEvents(RecordChunkEvents + tail)
	var bulk, single Recording
	bulk.append(events)
	for _, ev := range events {
		single.appendOne(ev)
	}
	defer bulk.Release()
	defer single.Release()
	raw := len(events) * EventBytes
	for name, r := range map[string]*Recording{"append": &bulk, "appendOne": &single} {
		if r.RawBytes() != raw {
			t.Errorf("%s: RawBytes %d, want %d", name, r.RawBytes(), raw)
		}
		enc := 0
		for _, c := range r.enc {
			enc += len(c)
		}
		if len(r.enc) != 1 || len(r.tail) != tail || r.Bytes() != enc+tail*EventBytes {
			t.Errorf("%s: Bytes %d over %d encoded chunks and a %d-event tail, want %d encoded + %d tail",
				name, r.Bytes(), len(r.enc), len(r.tail), enc, tail*EventBytes)
		}
		if r.Bytes() >= raw {
			t.Errorf("%s: compressed bytes %d do not undercut the raw stream's %d", name, r.Bytes(), raw)
		}
	}
	if bulk.Bytes() != single.Bytes() {
		t.Errorf("fill paths account differently: append %d, appendOne %d", bulk.Bytes(), single.Bytes())
	}
}

// fuzzEventBytes is the wire shape fuzz inputs and the committed seed
// corpus use: 32 little-endian bytes per event — kind, taken, Size,
// Addr, Aux, A, B — canonicalized so fields the kind does not carry
// are zero. examples/tracesize -corpus writes the same format from a
// real recorded TPC-C stream.
const fuzzEventBytes = 32

// eventsFromBytes decodes the fuzz wire format into canonical events.
func eventsFromBytes(data []byte) []Event {
	n := len(data) / fuzzEventBytes
	evs := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		rec := data[i*fuzzEventBytes:]
		kind := EventKind(rec[0] % 7)
		size := binary.LittleEndian.Uint32(rec[2:6])
		addr := binary.LittleEndian.Uint64(rec[6:14])
		aux := binary.LittleEndian.Uint64(rec[14:22])
		a := binary.LittleEndian.Uint32(rec[22:26])
		b := binary.LittleEndian.Uint32(rec[26:30])
		ev := Event{Kind: kind}
		switch kind {
		case EvFetchBlock, EvDataBurst:
			ev.Addr, ev.Size, ev.A, ev.B = addr, size, a, b
		case EvLoad, EvStore:
			ev.Addr, ev.Size = addr, size
		case EvBranch:
			ev.Addr, ev.Aux, ev.Taken = addr, aux, rec[1]&1 == 1
		case EvResourceStall:
			ev.Addr, ev.Aux, ev.A, ev.B = addr, aux, a, b
		case EvRecordProcessed:
		}
		evs = append(evs, ev)
	}
	return evs
}

// marshalEvents is the inverse of eventsFromBytes, for seeding.
func marshalEvents(events []Event) []byte {
	out := make([]byte, 0, len(events)*fuzzEventBytes)
	for _, ev := range events {
		var rec [fuzzEventBytes]byte
		rec[0] = byte(ev.Kind)
		if ev.Taken {
			rec[1] = 1
		}
		binary.LittleEndian.PutUint32(rec[2:6], ev.Size)
		binary.LittleEndian.PutUint64(rec[6:14], ev.Addr)
		binary.LittleEndian.PutUint64(rec[14:22], ev.Aux)
		binary.LittleEndian.PutUint32(rec[22:26], ev.A)
		binary.LittleEndian.PutUint32(rec[26:30], ev.B)
		out = append(out, rec[:]...)
	}
	return out
}

// FuzzCodecRoundTrip feeds arbitrary canonical event streams through
// the columnar codec and requires the decoded stream byte-identical
// to the input — including chunk-boundary crossings (the repeat knob
// multiplies short inputs past RecordChunkEvents) and the
// overflow-fallback path (a capped recorder over the same stream must
// release everything it buffered). Seeded from a recorded TPC-C
// stream (testdata/tpcc-stream-seed.bin, regenerated by
// examples/tracesize -corpus).
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint8(1), marshalEvents(synthEvents(300)))
	// 1200 events at 8 reps crosses the RecordChunkEvents boundary.
	f.Add(uint8(7), marshalEvents(synthEvents(1200)))
	if seed, err := os.ReadFile("testdata/tpcc-stream-seed.bin"); err == nil {
		f.Add(uint8(1), seed)
		f.Add(uint8(3), seed)
	}
	f.Fuzz(func(t *testing.T, repeat uint8, data []byte) {
		base := eventsFromBytes(data)
		if len(base) == 0 {
			return
		}
		reps := int(repeat%8) + 1
		events := make([]Event, 0, len(base)*reps)
		for i := 0; i < reps; i++ {
			events = append(events, base...)
		}

		// Fill through both paths: bulk batches of varying size on one
		// recording, per-event appends on another.
		var bulk, single Recording
		stride := len(base)/3 + 1
		for off := 0; off < len(events); off += stride {
			end := off + stride
			if end > len(events) {
				end = len(events)
			}
			bulk.append(events[off:end])
		}
		for _, ev := range events {
			single.appendOne(ev)
		}
		defer bulk.Release()
		defer single.Release()

		got := collectEvents(&bulk)
		if len(got) != len(events) {
			t.Fatalf("decoded %d events, want %d", len(got), len(events))
		}
		for i := range got {
			if got[i] != events[i] {
				t.Fatalf("event %d altered by codec: got %+v want %+v", i, got[i], events[i])
			}
		}
		if !bulk.Equal(&single) {
			t.Fatal("bulk and per-event fills of one stream compare unequal")
		}

		// Overflow fallback: a cap below the stream must abandon the
		// capture, release its arena, and leave the forwarded stream
		// untouched.
		var direct, during Counting
		Replay(&direct, events)
		rec := NewRecorder(&during, len(events)/2)
		rec.ProcessBatch(events)
		if len(events) >= 2 {
			if !rec.Overflowed() || rec.Recording() != nil {
				t.Fatal("stream past the cap must overflow and withhold the recording")
			}
			if rec.rec.Bytes() != 0 {
				t.Fatal("overflowed capture must release its arena immediately")
			}
		}
		if during != direct {
			t.Fatalf("recorder perturbed the forwarded stream:\n got %+v\nwant %+v", during, direct)
		}
	})
}
