package xeon

import (
	"fmt"
	"testing"

	"wheretime/internal/trace"
)

// multiTestConfigs are the platforms the gang equivalence suite runs:
// the default, a 2MB L2, a big BTB with long history, halved L1s, and
// a narrow-TLB variant.
func multiTestConfigs() []Config {
	base := DefaultConfig()
	bigL2 := base
	bigL2.L2SizeKB = 2048
	bigBTB := base
	bigBTB.BTBEntries = 8192
	bigBTB.HistoryBits = 6
	smallL1 := base
	smallL1.L1ISizeKB = 8
	smallL1.L1DSizeKB = 8
	tightTLB := base
	tightTLB.ITLBEntries = 8
	tightTLB.DTLBEntries = 16
	return []Config{base, bigL2, bigBTB, smallL1, tightTLB}
}

// record captures an event slice into a Recording (no forwarding).
func record(events []trace.Event) *trace.Recording {
	rec := trace.NewRecorder(nil, 0)
	rec.ProcessBatch(events)
	return rec.Recording()
}

// assertPipesEqual compares a gang member against its solo reference
// on every counter, stall component and hardware rate.
func assertPipesEqual(t *testing.T, label string, got, want *Pipeline) {
	t.Helper()
	gb, wb := got.Breakdown(), want.Breakdown()
	if gb.Counts != wb.Counts {
		t.Errorf("%s: counts differ:\n got %+v\nwant %+v", label, gb.Counts, wb.Counts)
	}
	if gb.Cycles != wb.Cycles {
		t.Errorf("%s: stall cycles differ:\n got %v\nwant %v", label, gb.Cycles, wb.Cycles)
	}
	if got.Rates() != want.Rates() {
		t.Errorf("%s: hardware rates differ", label)
	}
	if got.Interrupts() != want.Interrupts() {
		t.Errorf("%s: interrupt counts differ: %d vs %d", label, got.Interrupts(), want.Interrupts())
	}
}

// TestMultiPipelineMatchesSoloDrains drains one recording through a
// MultiPipeline and through K independent Pipelines under the full
// warm-up protocol (drain, reset, drain) and asserts every counter of
// every configuration is identical.
func TestMultiPipelineMatchesSoloDrains(t *testing.T) {
	cfgs := multiTestConfigs()
	rec := record(synthBatch(1 << 18))

	multi := NewMulti(cfgs)
	rec.Drain(multi)
	multi.ResetStats()
	rec.Drain(multi)

	for i, cfg := range cfgs {
		solo := New(cfg)
		rec.Drain(solo)
		solo.ResetStats()
		rec.Drain(solo)
		assertPipesEqual(t, fmt.Sprintf("config %d", i), multi.Pipe(i), solo)
	}
}

// decodeFuzzEvents turns fuzz bytes into a deterministic event stream
// shaped like the engine's: fetches, single- and multi-line loads and
// stores, bursts, stalls, record marks, and branches — including
// same-site branch runs, the shape the drain's run detection fuses.
func decodeFuzzEvents(data []byte) []trace.Event {
	var evs []trace.Event
	pc := trace.CodeBase
	for i := 0; i+4 <= len(data) && len(evs) < 1<<15; i += 4 {
		op, a, b, c := data[i], data[i+1], data[i+2], data[i+3]
		addr := trace.HeapBase + uint64(a)<<10 + uint64(b)*8
		code := trace.CodeBase + uint64(a)<<8 + uint64(b)*16
		switch op % 8 {
		case 0:
			evs = append(evs, trace.Event{Kind: trace.EvFetchBlock, Addr: code,
				Size: uint32(b) + 1, A: uint32(c)/4 + 1, B: uint32(c) + 1})
		case 1:
			evs = append(evs, trace.Event{Kind: trace.EvLoad, Addr: addr, Size: uint32(c%64) + 1})
		case 2:
			evs = append(evs, trace.Event{Kind: trace.EvStore, Addr: addr, Size: uint32(c%64) + 1})
		case 3:
			// A run of branches at one site: taken pattern from c's bits.
			pc = code
			for j := 0; j < int(b%6)+1; j++ {
				evs = append(evs, trace.Event{Kind: trace.EvBranch, Addr: pc,
					Aux: pc + uint64(int64(int8(a))), Taken: c>>(j%8)&1 == 1})
			}
		case 4:
			evs = append(evs, trace.Event{Kind: trace.EvBranch, Addr: code,
				Aux: code + 64, Taken: c&1 == 1})
		case 5:
			evs = append(evs, trace.Event{Kind: trace.EvDataBurst, Addr: trace.PrivateBase + uint64(a)*64,
				Size: uint32(b)*4 + 1, A: uint32(c % 16), B: uint32(c % 5)})
		case 6:
			evs = append(evs, trace.ResourceStallEvent(float64(a)/4, float64(b)/8, float64(c)/16))
		case 7:
			evs = append(evs, trace.Event{Kind: trace.EvRecordProcessed})
		}
	}
	return evs
}

// FuzzMultiDrain feeds random event streams through the gang drain at
// a random K in 1..8 and cross-checks every configuration against the
// single-pipeline reference path: trace.Replay, one Processor call
// per event. This pins the batched drain's fusions (branch runs,
// single-line fast paths) and the gang's block interleaving against
// the reference semantics in one property.
func FuzzMultiDrain(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte("gang-drain-seed-with-branch-runs-and-bursts"))
	seed := make([]byte, 256)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	all := multiTestConfigs()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		k := int(data[0])%8 + 1
		cfgs := make([]Config, k)
		for i := 0; i < k; i++ {
			cfgs[i] = all[(int(data[1])+i)%len(all)]
		}
		events := decodeFuzzEvents(data[2:])
		if len(events) == 0 {
			return
		}
		rec := record(events)

		multi := NewMulti(cfgs)
		rec.Drain(multi)
		multi.ResetStats()
		rec.Drain(multi)

		for i, cfg := range cfgs {
			ref := New(cfg)
			// Reference: the one-call-per-event path, twice, with the
			// same counter reset between passes.
			rec.Replay(trace.Unbatched{Processor: ref})
			ref.ResetStats()
			rec.Replay(trace.Unbatched{Processor: ref})
			gb, wb := multi.Pipe(i).Breakdown(), ref.Breakdown()
			if gb.Counts != wb.Counts {
				t.Fatalf("config %d (k=%d): counts diverged from reference:\n got %+v\nwant %+v",
					i, k, gb.Counts, wb.Counts)
			}
			if gb.Cycles != wb.Cycles {
				t.Fatalf("config %d (k=%d): cycles diverged from reference:\n got %v\nwant %v",
					i, k, gb.Cycles, wb.Cycles)
			}
		}
	})
}
