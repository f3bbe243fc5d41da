package trace

import (
	"bytes"
	"testing"
)

// TestWireRoundTrip pins the serialization contract: marshal →
// unmarshal reproduces the exact event sequence for stream lengths
// straddling every chunk boundary, re-marshal is byte-identical
// (content addressing depends on it), and releasing the loaded
// recording returns every borrowed buffer.
func TestWireRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 37, RecordChunkEvents - 1, RecordChunkEvents,
		RecordChunkEvents + 1, 2*RecordChunkEvents + 777} {
		c0, e0, b0 := LiveBuffers()
		events := synthEvents(n)
		var r Recording
		r.append(events)
		wire := r.MarshalWire(nil)

		got, err := UnmarshalWire(wire)
		if err != nil {
			t.Fatalf("n=%d: UnmarshalWire: %v", n, err)
		}
		if got.Len() != n {
			t.Fatalf("n=%d: loaded Len %d", n, got.Len())
		}
		if !got.Equal(&r) {
			t.Fatalf("n=%d: loaded recording differs from original", n)
		}
		if again := got.MarshalWire(nil); !bytes.Equal(again, wire) {
			t.Fatalf("n=%d: re-marshal differs from original wire bytes", n)
		}
		got.Release()
		r.Release()
		if c1, e1, b1 := LiveBuffers(); c1 != c0 || e1 != e0 || b1 != b0 {
			t.Fatalf("n=%d: buffers leaked: chunks %d->%d encBufs %d->%d blocks %d->%d",
				n, c0, c1, e0, e1, b0, b1)
		}
	}
}

// TestWireCanonicalAcrossFillPaths: the wire form is canonical — a
// stream captured in bulk (append) and event by event (appendOne)
// marshals to the same bytes, and those bytes load back to exactly the
// input events.
func TestWireCanonicalAcrossFillPaths(t *testing.T) {
	events := synthEvents(RecordChunkEvents + 513)
	var bulk, single Recording
	bulk.append(events)
	for _, ev := range events {
		single.appendOne(ev)
	}
	defer bulk.Release()
	defer single.Release()
	wire := bulk.MarshalWire(nil)
	if !bytes.Equal(single.MarshalWire(nil), wire) {
		t.Fatal("per-event capture's wire bytes differ from the bulk capture's")
	}
	loaded, err := UnmarshalWire(wire)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Release()
	got := collectEvents(loaded)
	if len(got) != len(events) {
		t.Fatalf("wire bytes load back %d events, want %d", len(got), len(events))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("event %d altered: got %+v want %+v", i, got[i], events[i])
		}
	}
}

// TestWireUnmarshalCorrupt feeds truncations and bit flips of a valid
// wire payload through UnmarshalWire: each must error or round-trip
// the identical stream, never panic, and never leak a buffer.
func TestWireUnmarshalCorrupt(t *testing.T) {
	var r Recording
	r.append(synthEvents(RecordChunkEvents + 100))
	wire := r.MarshalWire(nil)
	r.Release()

	c0, e0, b0 := LiveBuffers()
	check := func(label string, data []byte) {
		t.Helper()
		rec, err := UnmarshalWire(data)
		if err == nil {
			// A flip that survives validation must still be a canonical
			// stream (e.g. it landed in an address delta); drain it to
			// prove it is usable, then release.
			if rec.Len() == 0 {
				t.Errorf("%s: accepted an empty corrupt payload", label)
			}
			rec.Release()
		}
		if c1, e1, b1 := LiveBuffers(); c1 != c0 || e1 != e0 || b1 != b0 {
			t.Fatalf("%s: buffers leaked: chunks %d->%d encBufs %d->%d blocks %d->%d",
				label, c0, c1, e0, e1, b0, b1)
		}
	}

	for _, cut := range []int{0, 1, 2, 5, len(wire) / 2, len(wire) - 1} {
		check("truncate", wire[:cut])
	}
	for off := 0; off < len(wire); off += 101 {
		bad := append([]byte(nil), wire...)
		bad[off] ^= 0x55
		check("flip", bad)
	}
	check("trailing", append(append([]byte(nil), wire...), 0xFF))
}
