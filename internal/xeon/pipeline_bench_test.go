package xeon

import (
	"testing"

	"wheretime/internal/trace"
)

// synthBatch builds an event mix shaped like the grid's hot stream:
// mostly single-line loads and fetches, a quarter branches with
// engine-like (ir)regularity, occasional bursts, stores and stalls.
func synthBatch(n int) []trace.Event {
	evs := make([]trace.Event, 0, n)
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; len(evs) < n; i++ {
		code := trace.CodeBase + (next() % (1 << 18))
		data := trace.HeapBase + (next() % (1 << 22))
		evs = append(evs,
			trace.Event{Kind: trace.EvFetchBlock, Addr: code &^ 31, Size: 28, A: 7, B: 11},
			trace.Event{Kind: trace.EvLoad, Addr: data, Size: 8},
			trace.Event{Kind: trace.EvLoad, Addr: data + 8, Size: 4},
			trace.Event{Kind: trace.EvBranch, Addr: code, Aux: code + 64, Taken: next()&1 == 0},
		)
		switch i % 8 {
		case 0:
			evs = append(evs, trace.Event{Kind: trace.EvStore, Addr: data + 16, Size: 8})
		case 1:
			evs = append(evs, trace.Event{Kind: trace.EvDataBurst,
				Addr: trace.PrivateBase + (next() % (1 << 14)), Size: 256, A: 6, B: 2})
		case 2:
			evs = append(evs, trace.ResourceStallEvent(1.5, 0.5, 0.25))
		case 3:
			evs = append(evs, trace.Event{Kind: trace.EvRecordProcessed})
		}
	}
	return evs[:n]
}

// BenchmarkProcessBatch measures the batched drain — the simulator's
// only hot loop once replay feeds it whole recorded chunks — over a
// realistic event mix. Allocations per op must stay zero.
func BenchmarkProcessBatch(b *testing.B) {
	events := synthBatch(1 << 20)
	p := New(DefaultConfig())
	p.ProcessBatch(events) // warm the simulated hierarchy
	b.SetBytes(int64(len(events)) * 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ProcessBatch(events)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
}

// BenchmarkMultiPipelineK1 is BenchmarkProcessBatch through a
// single-config MultiPipeline — the sink every harness measurement
// drains into, a lone cell being a gang of one. The two must cost the
// same: K=1 hands each batch straight to the solo drain.
func BenchmarkMultiPipelineK1(b *testing.B) {
	events := synthBatch(1 << 20)
	m := NewMulti([]Config{DefaultConfig()})
	m.ProcessBatch(events) // warm the simulated hierarchy
	b.SetBytes(int64(len(events)) * 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ProcessBatch(events)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
}

// BenchmarkCompressedDrain measures the fused decode+simulate path
// against the zero-decode reference: the same stream drained from a
// plain []Event slice in RecordChunkEvents-sized batches. The columnar
// codec's per-block decode rides in front of the same ProcessBatch hot
// loop, so the delta is pure decode overhead. The arena_mb metric
// records the footprint being traded: the encoded arena, or the slice.
func BenchmarkCompressedDrain(b *testing.B) {
	events := synthBatch(1 << 20)
	for _, mode := range []struct {
		name string
		raw  bool
	}{{"compressed", false}, {"raw", true}} {
		b.Run(mode.name, func(b *testing.B) {
			rec := trace.NewRecorder(trace.Discard{}, 0)
			rec.ProcessBatch(events)
			r := rec.Recording()
			defer r.Release()
			arena, drain := r.Bytes(), r.Drain
			if mode.raw {
				arena, drain = len(events)*trace.EventBytes, func(p trace.BatchProcessor) {
					for evs := events; len(evs) > 0; {
						n := min(len(evs), trace.RecordChunkEvents)
						p.ProcessBatch(evs[:n])
						evs = evs[n:]
					}
				}
			}
			p := New(DefaultConfig())
			drain(p) // warm the simulated hierarchy
			b.SetBytes(int64(len(events)) * 32)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drain(p)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
			b.ReportMetric(float64(arena)/(1<<20), "arena_mb")
		})
	}
}
