package trace

import (
	"testing"
)

// synthEvents builds a deterministic mixed-kind event stream.
func synthEvents(n int) []Event {
	evs := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		switch i % 5 {
		case 0:
			evs = append(evs, Event{Kind: EvFetchBlock, Addr: uint64(i) * 64, Size: 48, A: 12, B: 20})
		case 1:
			evs = append(evs, Event{Kind: EvLoad, Addr: uint64(i) * 8, Size: 8})
		case 2:
			evs = append(evs, Event{Kind: EvStore, Addr: uint64(i) * 8, Size: 4})
		case 3:
			evs = append(evs, Event{Kind: EvBranch, Addr: uint64(i), Aux: uint64(i + 100), Taken: i%2 == 0})
		default:
			evs = append(evs, Event{Kind: EvRecordProcessed})
		}
	}
	return evs
}

// TestRecorderCapturesAndDrainReplays records a stream through the
// batch path and checks the replayed stream produces the identical
// Counting tally, in both the Drain (batched) and Replay (reference)
// directions.
func TestRecorderCapturesAndDrainReplays(t *testing.T) {
	events := synthEvents(3 * RecordChunkEvents / 2)

	var direct Counting
	Replay(&direct, events)

	var during Counting
	rec := NewRecorder(&during, 0)
	buf := NewBuffer(rec, 100) // force several flushes through the recorder
	Replay(buf, events)
	buf.Flush()

	if during != direct {
		t.Fatalf("forwarding through the recorder changed the stream:\n got %+v\nwant %+v", during, direct)
	}
	r := rec.Recording()
	if r == nil {
		t.Fatal("recording missing without overflow")
	}
	if r.Len() != len(events) {
		t.Fatalf("recorded %d events, want %d", r.Len(), len(events))
	}

	var unbatched Counting
	r.Replay(&unbatched)
	if unbatched != direct {
		t.Errorf("Replay tally differs:\n got %+v\nwant %+v", unbatched, direct)
	}

	// Drain must deliver the identical sequence (order included):
	// capture it event by event and compare.
	var got []Event
	sink := &appendSink{out: &got}
	r.Drain(Unbatched2{sink})
	if len(got) != len(events) {
		t.Fatalf("drained %d events, want %d", len(got), len(events))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("event %d reordered or altered: got %+v want %+v", i, got[i], events[i])
		}
	}
}

// appendSink records every Processor call back into event form.
type appendSink struct{ out *[]Event }

func (a *appendSink) FetchBlock(addr uint64, size, instrs, uops uint32) {
	*a.out = append(*a.out, Event{Kind: EvFetchBlock, Addr: addr, Size: size, A: instrs, B: uops})
}
func (a *appendSink) Load(addr uint64, size uint32) {
	*a.out = append(*a.out, Event{Kind: EvLoad, Addr: addr, Size: size})
}
func (a *appendSink) Store(addr uint64, size uint32) {
	*a.out = append(*a.out, Event{Kind: EvStore, Addr: addr, Size: size})
}
func (a *appendSink) Branch(pc, target uint64, taken bool) {
	*a.out = append(*a.out, Event{Kind: EvBranch, Addr: pc, Aux: target, Taken: taken})
}
func (a *appendSink) DataBurst(base uint64, bytes, loads, stores uint32) {
	*a.out = append(*a.out, Event{Kind: EvDataBurst, Addr: base, Size: bytes, A: loads, B: stores})
}
func (a *appendSink) ResourceStall(dep, fu, ild float64) {
	*a.out = append(*a.out, ResourceStallEvent(dep, fu, ild))
}
func (a *appendSink) RecordProcessed() {
	*a.out = append(*a.out, Event{Kind: EvRecordProcessed})
}

// Unbatched2 adapts a Processor into a BatchProcessor via Replay, so
// Drain can feed a non-batching sink in tests.
type Unbatched2 struct{ Processor }

func (u Unbatched2) ProcessBatch(events []Event) { Replay(u.Processor, events) }

// TestRecorderPerEventPath drives the recorder through the plain
// Processor methods (a sink that does not batch) and checks the same
// capture falls out.
func TestRecorderPerEventPath(t *testing.T) {
	events := synthEvents(500)
	var tally Counting
	rec := NewRecorder(&tally, 0)
	Replay(rec, events) // one Processor call per event, no buffer
	r := rec.Recording()
	if r.Len() != len(events) {
		t.Fatalf("recorded %d events, want %d", r.Len(), len(events))
	}
	var replayed Counting
	r.Replay(&replayed)
	if replayed != tally {
		t.Errorf("per-event capture replays differently:\n got %+v\nwant %+v", replayed, tally)
	}
}

// TestRecorderOverflowFallsBack checks the memory cap: a stream beyond
// maxEvents abandons the capture (releasing its chunks) but keeps
// forwarding unchanged.
func TestRecorderOverflowFallsBack(t *testing.T) {
	events := synthEvents(1000)
	var direct Counting
	Replay(&direct, events)

	var during Counting
	rec := NewRecorder(&during, 600)
	buf := NewBuffer(rec, 128)
	Replay(buf, events)
	buf.Flush()

	if !rec.Overflowed() {
		t.Fatal("1000 events past a 600-event cap should overflow")
	}
	if rec.Recording() != nil {
		t.Error("overflowed recorder must not hand out a partial recording")
	}
	if during != direct {
		t.Errorf("overflow perturbed the forwarded stream:\n got %+v\nwant %+v", during, direct)
	}
}

// TestRecordingEqual pins Equal across different fill paths (bulk
// append vs per-event) and across chunk layouts: a wire-loaded copy
// holds its final partial chunk encoded where a capture stages it raw.
func TestRecordingEqual(t *testing.T) {
	events := synthEvents(RecordChunkEvents + 100)
	var a, b Recording
	a.append(events)
	for _, ev := range events {
		b.appendOne(ev)
	}
	if !a.Equal(&b) || !b.Equal(&a) {
		t.Error("equal streams with different fill paths must compare equal")
	}
	loaded, err := UnmarshalWire(a.MarshalWire(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.tail) != 0 || len(loaded.enc) != 2 {
		t.Fatalf("wire-loaded copy holds %d encoded chunks and a %d-event tail, want 2 and none",
			len(loaded.enc), len(loaded.tail))
	}
	if !a.Equal(loaded) || !loaded.Equal(&a) {
		t.Error("staged-tail and encoded-tail layouts of one stream must compare equal")
	}
	b.appendOne(Event{Kind: EvRecordProcessed})
	if a.Equal(&b) || b.Equal(&a) {
		t.Error("length difference must compare unequal")
	}
	mutated := append([]Event(nil), events...)
	mutated[0].Addr ^= 1
	var c Recording
	c.append(mutated)
	if a.Equal(&c) {
		t.Error("content difference must compare unequal")
	}
	a.Release()
	b.Release()
	c.Release()
	loaded.Release()
	if a.Len() != 0 {
		t.Error("Release must empty the recording")
	}
}

// TestRecordingReleaseReuse checks the free lists actually recycle
// staging-chunk and encoded-buffer capacity across captures.
func TestRecordingReleaseReuse(t *testing.T) {
	events := synthEvents(2 * RecordChunkEvents)
	var r Recording
	r.append(events)
	if len(r.enc) != 2 {
		t.Fatalf("2 encoded chunks expected, got %d", len(r.enc))
	}
	if r.Bytes() >= r.RawBytes() {
		t.Errorf("encoded chunks (%dB) should undercut the raw arena (%dB)", r.Bytes(), r.RawBytes())
	}
	r.Release()

	allocs := testing.AllocsPerRun(10, func() {
		var r2 Recording
		r2.append(events)
		r2.Release()
	})
	// The staging chunk and encoded buffers must come from the free
	// lists; only the small slice-header bookkeeping may allocate.
	if allocs > 8 {
		t.Errorf("recycled capture allocated %.0f objects per run; free lists not reused", allocs)
	}
}
