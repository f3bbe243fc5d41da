package trace

import (
	"sync"
	"sync/atomic"
)

// This file is the capture half of the batch API. The stream of a
// measurement is a pure function of the experiment cell, so a capture
// of one pass, persisted (see package tracestore), lets the same
// workload be costed on another platform without executing the
// engine. A Recorder captures the stream as it flows past (by
// interposing on the BatchProcessor flush path the emitters already
// drain through), and a Recording replays it by feeding the captured
// chunks back into ProcessBatch.
//
// Recordings store events in columnar compressed chunks (see
// codec.go): a single raw staging chunk fills to RecordChunkEvents
// events and is then encoded into a struct-of-arrays byte buffer —
// delta/varint addresses, bit-packed kinds and outcomes — typically
// 4-8x smaller than the raw 32-byte events. Raw staging chunks and
// encoded buffers are both drawn from shared free lists, so a worker
// capturing cells one after another recycles the same arena instead
// of growing and abandoning multi-hundred-megabyte slices per cell.

// RecordChunkEvents is the event capacity of one recording chunk:
// 8192 events x 32 bytes = 256 KiB of staging, big enough to amortise
// the encode pass and the drain call, small enough to stay L2-hot
// while the columns are built.
const RecordChunkEvents = 8192

// chunkFree is the shared free list of retired chunks. It is a plain
// list rather than a sync.Pool on purpose: a sync.Pool is drained at
// every GC cycle, and with multi-gigabyte recordings cycling through
// a grid run that means re-faulting the whole arena in from the
// kernel over and over — measurably slower than the event copy
// itself. The explicit list keeps the arena's pages resident, so the
// steady-state footprint is the high-water recording (bounded by the
// recording cap) and a cell's capture re-uses warm memory.
var chunkFree struct {
	mu     sync.Mutex
	chunks [][]Event
}

// liveChunks / liveEncBufs / liveBlocks count buffers currently
// checked out of the free lists (borrowed minus returned). They exist
// for leak auditing: every capture path — including the overflow
// fallbacks that abandon a capture mid-stream — must return each
// borrowed buffer, or a grid run slowly strands its arena. The
// counters move once per chunk (8192 events), so they cost nothing on
// the per-event hot path. LiveBuffers exposes them to tests.
var liveChunks, liveEncBufs, liveBlocks atomic.Int64

// LiveBuffers reports how many pooled buffers are currently checked
// out of the shared free lists: raw staging chunks, encoded chunk
// buffers, and fused-decode blocks. A level that fails to return to
// its pre-capture value once every Recording is released indicates a
// leaked buffer; the harness overflow regression pins exactly that.
func LiveBuffers() (chunks, encBufs, blocks int64) {
	return liveChunks.Load(), liveEncBufs.Load(), liveBlocks.Load()
}

func getChunk() []Event {
	liveChunks.Add(1)
	chunkFree.mu.Lock()
	n := len(chunkFree.chunks)
	if n == 0 {
		chunkFree.mu.Unlock()
		return make([]Event, 0, RecordChunkEvents)
	}
	c := chunkFree.chunks[n-1]
	chunkFree.chunks = chunkFree.chunks[:n-1]
	chunkFree.mu.Unlock()
	return c[:0]
}

func putChunk(c []Event) {
	if cap(c) < RecordChunkEvents {
		return // never recycle undersized foreign slices
	}
	liveChunks.Add(-1)
	chunkFree.mu.Lock()
	chunkFree.chunks = append(chunkFree.chunks, c[:0])
	chunkFree.mu.Unlock()
}

// Recording is a captured event stream: an ordered sequence of events
// held as columnar compressed chunks plus one raw staging tail. It is
// filled by a Recorder; once capture is complete it is immutable and
// may be drained any number of times, including concurrently
// read-only sharing within the goroutine that owns it (drains mutate
// only the processor and a borrowed decode block, never the
// recording).
type Recording struct {
	enc  [][]byte // encoded full chunks, RecordChunkEvents events each
	tail []Event  // staging chunk: the in-progress (or final partial) chunk
	n    int
}

// Len returns how many events the recording holds.
func (r *Recording) Len() int { return r.n }

// Bytes returns the recording's retained arena footprint: the encoded
// chunk bytes plus the raw staging tail — compressed bytes, not event
// count.
func (r *Recording) Bytes() int {
	b := len(r.tail) * EventBytes
	for _, c := range r.enc {
		b += len(c)
	}
	return b
}

// RawBytes returns what the stream would occupy as raw 32-byte
// events; Bytes/RawBytes is the compression ratio's inverse.
func (r *Recording) RawBytes() int { return r.n * EventBytes }

// encodeTail compresses the full staging chunk into a columnar buffer
// and resets the staging chunk for reuse — the same 256 KiB of raw
// staging serves the whole capture.
func (r *Recording) encodeTail() {
	r.enc = append(r.enc, encodeChunk(getEncBuf(), r.tail))
	r.tail = r.tail[:0]
}

// append copies events into the arena, encoding each staging chunk as
// it fills. Only the Recorder calls it; after capture the recording
// never changes.
func (r *Recording) append(events []Event) {
	for len(events) > 0 {
		if r.tail == nil {
			r.tail = getChunk()
		}
		n := copy(r.tail[len(r.tail):cap(r.tail)], events)
		r.tail = r.tail[:len(r.tail)+n]
		events = events[n:]
		r.n += n
		if len(r.tail) == cap(r.tail) {
			r.encodeTail()
		}
	}
}

// appendOne records a single event (the per-event Processor path of a
// Recorder whose sink does not batch).
func (r *Recording) appendOne(ev Event) {
	if r.tail == nil {
		r.tail = getChunk()
	}
	r.tail = append(r.tail, ev)
	r.n++
	if len(r.tail) == cap(r.tail) {
		r.encodeTail()
	}
}

// Drain feeds the recorded stream into p in the exact order it was
// captured: the replay path of a warm-up or measured run. Compressed
// chunks decode one host-L1-resident block at a time straight into
// ProcessBatch — the decode fuses into the single-pass drain, and the
// raw event array is never materialized. The raw staging tail goes
// straight in with zero copying.
func (r *Recording) Drain(p BatchProcessor) {
	if len(r.enc) > 0 {
		block := getBlock()
		var d chunkDecoder
		for _, c := range r.enc {
			d.init(c)
			for {
				k := d.next(block)
				if k == 0 {
					break
				}
				p.ProcessBatch(block[:k])
			}
		}
		putBlock(block)
	}
	if len(r.tail) > 0 {
		p.ProcessBatch(r.tail)
	}
}

// Replay feeds the recorded stream into p one Processor call at a
// time — the reference path, for sinks that do not batch. Compressed
// chunks decode through the same fused block path as Drain.
func (r *Recording) Replay(p Processor) {
	if len(r.enc) > 0 {
		block := getBlock()
		var d chunkDecoder
		for _, c := range r.enc {
			d.init(c)
			for {
				k := d.next(block)
				if k == 0 {
					break
				}
				Replay(p, block[:k])
			}
		}
		putBlock(block)
	}
	if len(r.tail) > 0 {
		Replay(p, r.tail)
	}
}

// Equal reports whether two recordings hold the same event sequence,
// independent of how the events landed in chunks.
func (r *Recording) Equal(o *Recording) bool {
	if r.n != o.n {
		return false
	}
	rc, oc := newRecCursor(r), newRecCursor(o)
	defer rc.close()
	defer oc.close()
	for {
		a, okA := rc.next()
		b, okB := oc.next()
		if okA != okB {
			return false
		}
		if !okA {
			return true
		}
		if a != b {
			return false
		}
	}
}

// Release returns every staging chunk and encoded buffer to the
// shared free lists and empties the recording. The recording must not
// be drained afterwards (it holds no events), but it may be refilled
// by a new capture. The Recorder calls it the moment a capture
// overflows its cap, so an abandoned capture's chunks recycle
// immediately.
func (r *Recording) Release() {
	for _, b := range r.enc {
		putEncBuf(b)
	}
	r.enc = r.enc[:0]
	if r.tail != nil {
		putChunk(r.tail)
		r.tail = nil
	}
	r.n = 0
}

// Recorder captures an event stream in flight: it interposes on the
// path between an emitter's Buffer and the processor, forwarding
// every event unchanged (whole batches through ProcessBatch when the
// sink batches) while appending a copy to its Recording. A cap bounds
// the recording's memory: once the stream exceeds maxEvents the
// recorder releases what it captured and keeps forwarding, and the
// caller falls back to re-execution.
//
// A Recorder belongs to one goroutine, like the Buffer that feeds it.
type Recorder struct {
	rec      Recording
	sink     Processor
	batch    BatchProcessor // non-nil when sink batches
	limit    int            // max events to record; <= 0 means unlimited
	overflow bool
}

var _ BatchProcessor = (*Recorder)(nil)

// NewRecorder returns a recorder forwarding into sink, capturing at
// most maxEvents events (unlimited when maxEvents <= 0) into a
// columnar compressed recording.
func NewRecorder(sink Processor, maxEvents int) *Recorder {
	r := &Recorder{sink: sink, limit: maxEvents}
	r.batch, _ = sink.(BatchProcessor)
	return r
}

// Recording returns the captured stream, or nil if the cap was
// exceeded and the capture abandoned. The recording is only complete
// once the emitter has flushed its final batch.
func (r *Recorder) Recording() *Recording {
	if r.overflow {
		return nil
	}
	return &r.rec
}

// Overflowed reports whether the stream exceeded the recording cap.
func (r *Recorder) Overflowed() bool { return r.overflow }

// record appends a captured batch, abandoning the capture when it
// would exceed the cap.
func (r *Recorder) record(events []Event) {
	if r.overflow {
		return
	}
	if r.limit > 0 && r.rec.n+len(events) > r.limit {
		r.overflow = true
		r.rec.Release()
		return
	}
	r.rec.append(events)
}

// ProcessBatch implements BatchProcessor: the batch goes to the sink
// first (exactly as it would without the recorder in the path), then
// into the recording.
func (r *Recorder) ProcessBatch(events []Event) {
	if r.batch != nil {
		r.batch.ProcessBatch(events)
	} else if r.sink != nil {
		Replay(r.sink, events)
	}
	r.record(events)
}

// recordOne appends one captured event, honouring the cap.
func (r *Recorder) recordOne(ev Event) {
	if r.overflow {
		return
	}
	if r.limit > 0 && r.rec.n+1 > r.limit {
		r.overflow = true
		r.rec.Release()
		return
	}
	r.rec.appendOne(ev)
}

// FetchBlock implements Processor.
func (r *Recorder) FetchBlock(addr uint64, size, instrs, uops uint32) {
	r.sink.FetchBlock(addr, size, instrs, uops)
	r.recordOne(Event{Kind: EvFetchBlock, Addr: addr, Size: size, A: instrs, B: uops})
}

// Load implements Processor.
func (r *Recorder) Load(addr uint64, size uint32) {
	r.sink.Load(addr, size)
	r.recordOne(Event{Kind: EvLoad, Addr: addr, Size: size})
}

// Store implements Processor.
func (r *Recorder) Store(addr uint64, size uint32) {
	r.sink.Store(addr, size)
	r.recordOne(Event{Kind: EvStore, Addr: addr, Size: size})
}

// Branch implements Processor.
func (r *Recorder) Branch(pc, target uint64, taken bool) {
	r.sink.Branch(pc, target, taken)
	r.recordOne(Event{Kind: EvBranch, Addr: pc, Aux: target, Taken: taken})
}

// DataBurst implements Processor.
func (r *Recorder) DataBurst(base uint64, bytes, loads, stores uint32) {
	r.sink.DataBurst(base, bytes, loads, stores)
	r.recordOne(Event{Kind: EvDataBurst, Addr: base, Size: bytes, A: loads, B: stores})
}

// ResourceStall implements Processor.
func (r *Recorder) ResourceStall(dep, fu, ild float64) {
	r.sink.ResourceStall(dep, fu, ild)
	r.recordOne(ResourceStallEvent(dep, fu, ild))
}

// RecordProcessed implements Processor.
func (r *Recorder) RecordProcessed() {
	r.sink.RecordProcessed()
	r.recordOne(Event{Kind: EvRecordProcessed})
}
