package trace

import (
	"math"
	"reflect"
)

// This file is the batched half of the event vocabulary. The Processor
// interface narrates one hardware event per dynamic call; on the full
// experiment grid that dispatch — one dynamic interface call per field
// touch — dominates wall-clock. The batch API keeps the exact same
// event stream but moves it through an event buffer: emitters append
// Events to a Buffer with direct (devirtualised, inlinable) method
// calls, and the simulator drains thousands of them in one
// ProcessBatch call, in program order, with no per-event dispatch.
//
// Equivalence contract: for any event sequence, draining it through
// ProcessBatch must leave a BatchProcessor in exactly the state the
// corresponding one-call-per-event Processor methods would — same
// counts, same stall cycles, same replacement state. Replay is the
// reference implementation of that contract (it literally makes the
// per-event calls), and the golden-file suite in internal/harness
// pins the equivalence end to end: every experiment table rendered
// via the batched pipeline is byte-identical to the unbatched one.

// EventKind discriminates the Processor call an Event stands for.
type EventKind uint8

// The event kinds, one per Processor method.
const (
	// EvFetchBlock is a FetchBlock(Addr, Size, A=instrs, B=uops) call.
	EvFetchBlock EventKind = iota
	// EvLoad is a Load(Addr, Size) call.
	EvLoad
	// EvStore is a Store(Addr, Size) call.
	EvStore
	// EvBranch is a Branch(Addr=pc, Aux=target, Taken) call.
	EvBranch
	// EvDataBurst is a DataBurst(Addr=base, Size=bytes, A=loads,
	// B=stores) call.
	EvDataBurst
	// EvResourceStall is a ResourceStall(Dep, FU, ILD) call.
	EvResourceStall
	// EvRecordProcessed is a RecordProcessed() call.
	EvRecordProcessed
)

// Event is one Processor call in value form. Field meaning depends on
// Kind (documented on the kind constants); unrelated fields are zero.
// The struct is packed to 32 bytes — half a host cache line — because
// the experiment grid moves hundreds of millions of events through
// buffers: resource-stall cycles travel as float bits in Addr/Aux/A/B
// (see the ResourceStall constructor and accessors) rather than as
// three more float64 fields.
type Event struct {
	Kind  EventKind
	Taken bool
	// Size is the byte count of a fetch/load/store/burst.
	Size uint32
	// Addr is the event address: fetch/load/store/burst address, or
	// the branch PC. For EvResourceStall it carries Dep's float bits.
	Addr uint64
	// Aux is the branch target. For EvResourceStall it carries FU's
	// float bits.
	Aux uint64
	// A and B carry the kind's secondary counts: instrs/uops for
	// fetches, loads/stores for bursts. For EvResourceStall they carry
	// the high and low halves of ILD's float bits.
	A, B uint32
}

// ResourceStallEvent packs a ResourceStall call into an Event.
func ResourceStallEvent(dep, fu, ild float64) Event {
	bits := math.Float64bits(ild)
	return Event{
		Kind: EvResourceStall,
		Addr: math.Float64bits(dep),
		Aux:  math.Float64bits(fu),
		A:    uint32(bits >> 32),
		B:    uint32(bits),
	}
}

// Stalls unpacks an EvResourceStall event's cycle triple.
func (ev *Event) Stalls() (dep, fu, ild float64) {
	return math.Float64frombits(ev.Addr),
		math.Float64frombits(ev.Aux),
		math.Float64frombits(uint64(ev.A)<<32 | uint64(ev.B))
}

// BatchProcessor is a Processor that can drain an ordered event buffer
// in one call. ProcessBatch(events) must be observationally identical
// to invoking the corresponding Processor methods one event at a time,
// in order.
type BatchProcessor interface {
	Processor
	ProcessBatch(events []Event)
}

// Replay applies events to p one Processor call at a time, in order —
// the reference semantics every ProcessBatch implementation must
// match, and the drain path for sinks that do not batch.
func Replay(p Processor, events []Event) {
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case EvFetchBlock:
			p.FetchBlock(ev.Addr, ev.Size, ev.A, ev.B)
		case EvLoad:
			p.Load(ev.Addr, ev.Size)
		case EvStore:
			p.Store(ev.Addr, ev.Size)
		case EvBranch:
			p.Branch(ev.Addr, ev.Aux, ev.Taken)
		case EvDataBurst:
			p.DataBurst(ev.Addr, ev.Size, ev.A, ev.B)
		case EvResourceStall:
			p.ResourceStall(ev.Stalls())
		case EvRecordProcessed:
			p.RecordProcessed()
		}
	}
}

// DefaultBatchCap is the event capacity a Buffer flushes at. 4096
// events keep the buffer L2-resident on the host while amortising the
// drain call over thousands of events.
const DefaultBatchCap = 4096

// Buffer is a Processor that accumulates events and drains them to a
// sink when full (and on Flush). Emitters that hold a concrete *Buffer
// append with direct method calls — no interface dispatch on the hot
// path — and the sink consumes the batch in one ProcessBatch call when
// it supports batching, or via Replay when it does not.
//
// The backing array is kept at full length with a separate fill
// cursor, so the inlined push is one bounds-checked store and an
// increment rather than an append's slice-header rewrite — push is
// the single hottest engine-side instruction sequence on the grid.
//
// A Buffer belongs to one goroutine, like the Processor it feeds.
// Events are delivered strictly in append order; only the grouping
// changes, never the sequence.
type Buffer struct {
	events []Event // len == cap, filled up to n
	n      int
	sink   Processor
	batch  BatchProcessor // non-nil when sink implements BatchProcessor
	// sinkComparable records whether sink's dynamic type supports ==,
	// so BoundTo never trips the runtime panic on comparing
	// non-comparable values (e.g. two Tee slices).
	sinkComparable bool
}

var _ Processor = (*Buffer)(nil)

// NewBuffer returns a buffer draining into sink, flushing every
// capacity events (DefaultBatchCap when capacity <= 0).
func NewBuffer(sink Processor, capacity int) *Buffer {
	if capacity <= 0 {
		capacity = DefaultBatchCap
	}
	b := &Buffer{events: make([]Event, capacity)}
	b.Bind(sink)
	return b
}

// Bind points the buffer at a new sink, draining any pending events
// into the previous sink first so no event is ever re-ordered or lost.
func (b *Buffer) Bind(sink Processor) {
	if b.n > 0 {
		b.Flush()
	}
	b.sink = sink
	b.batch, _ = sink.(BatchProcessor)
	b.sinkComparable = sink != nil && reflect.TypeOf(sink).Comparable()
}

// BoundTo reports whether the buffer currently drains into sink.
// Sinks of non-comparable dynamic types (slices like Tee) are never
// considered bound, so callers rebind conservatively rather than
// risking a comparison panic.
func (b *Buffer) BoundTo(sink Processor) bool {
	if !b.sinkComparable || sink == nil || !reflect.TypeOf(sink).Comparable() {
		return false
	}
	return b.sink == sink
}

// Pending returns how many events are buffered but not yet drained.
func (b *Buffer) Pending() int { return b.n }

// Flush drains all pending events into the sink.
func (b *Buffer) Flush() {
	if b.n == 0 {
		return
	}
	pending := b.events[:b.n]
	if b.batch != nil {
		b.batch.ProcessBatch(pending)
	} else if b.sink != nil {
		Replay(b.sink, pending)
	}
	b.n = 0
}

// push appends one event, draining when the buffer reaches capacity.
func (b *Buffer) push(ev Event) {
	b.events[b.n] = ev
	b.n++
	if b.n == len(b.events) {
		b.Flush()
	}
}

// FetchBlock implements Processor.
func (b *Buffer) FetchBlock(addr uint64, size, instrs, uops uint32) {
	b.push(Event{Kind: EvFetchBlock, Addr: addr, Size: size, A: instrs, B: uops})
}

// Load implements Processor.
func (b *Buffer) Load(addr uint64, size uint32) {
	b.push(Event{Kind: EvLoad, Addr: addr, Size: size})
}

// Store implements Processor.
func (b *Buffer) Store(addr uint64, size uint32) {
	b.push(Event{Kind: EvStore, Addr: addr, Size: size})
}

// Branch implements Processor.
func (b *Buffer) Branch(pc, target uint64, taken bool) {
	b.push(Event{Kind: EvBranch, Addr: pc, Aux: target, Taken: taken})
}

// DataBurst implements Processor.
func (b *Buffer) DataBurst(base uint64, bytes, loads, stores uint32) {
	b.push(Event{Kind: EvDataBurst, Addr: base, Size: bytes, A: loads, B: stores})
}

// ResourceStall implements Processor.
func (b *Buffer) ResourceStall(dep, fu, ild float64) {
	b.push(ResourceStallEvent(dep, fu, ild))
}

// RecordProcessed implements Processor.
func (b *Buffer) RecordProcessed() {
	b.push(Event{Kind: EvRecordProcessed})
}

// Unbatched hides a processor's batch capability: its method set is
// exactly Processor's, so emitters that probe for BatchProcessor fall
// back to the one-call-per-event reference path. The regression suite
// uses it to measure the same cells through both paths and diff the
// rendered tables byte for byte.
type Unbatched struct {
	Processor
}
