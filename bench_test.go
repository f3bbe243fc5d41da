// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 5), plus ablations of the design choices
// DESIGN.md calls out. Each benchmark reports the figure's headline
// series as custom metrics so `go test -bench` output doubles as the
// reproduction record.
package repro_test

import (
	"fmt"
	"runtime"
	"testing"

	"wheretime/internal/core"
	"wheretime/internal/engine"
	"wheretime/internal/harness"
	"wheretime/internal/storage"
	"wheretime/internal/trace"
	"wheretime/internal/workload"
	"wheretime/internal/xeon"
)

// benchOptions returns the experiment configuration used by the
// benchmark run: a scale where all shapes have converged but a full
// figure regenerates in seconds.
func benchOptions() harness.Options {
	opts := harness.DefaultOptions()
	opts.Scale = 0.01
	return opts
}

// benchEnv is shared across benchmarks (the dataset build dominates
// otherwise).
var benchEnv *harness.Env

func getBenchEnv(b *testing.B) *harness.Env {
	b.Helper()
	if benchEnv == nil {
		env, err := harness.NewEnv(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		benchEnv = env
	}
	return benchEnv
}

// runFigure drives one experiment b.N times, reporting the given
// metrics from the last run.
func runFigure(b *testing.B, run func(*harness.Env) ([]harness.Table, error)) []harness.Table {
	env := getBenchEnv(b)
	var tables []harness.Table
	var err error
	for i := 0; i < b.N; i++ {
		tables, err = run(env)
		if err != nil {
			b.Fatal(err)
		}
	}
	return tables
}

// BenchmarkFig51 regenerates Figure 5.1 (execution time breakdown) and
// reports each system's stall share on the sequential selection.
func BenchmarkFig51(b *testing.B) {
	runFigure(b, harness.Fig51)
	env := getBenchEnv(b)
	for _, s := range engine.Systems() {
		cell, err := env.Run(s, harness.SRS)
		if err != nil {
			b.Fatal(err)
		}
		stall := 100 - cell.Breakdown.GroupPercent(core.GroupComputation)
		b.ReportMetric(stall, fmt.Sprintf("stall%%_%s_SRS", s))
	}
}

// BenchmarkFig52 regenerates Figure 5.2 (memory stall breakdown) and
// reports the L1I+L2D share of TM, the paper's 90% claim.
func BenchmarkFig52(b *testing.B) {
	runFigure(b, harness.Fig52)
	env := getBenchEnv(b)
	for _, s := range engine.Systems() {
		cell, err := env.Run(s, harness.SRS)
		if err != nil {
			b.Fatal(err)
		}
		share := cell.Breakdown.MemoryPercent(core.TL1I) + cell.Breakdown.MemoryPercent(core.TL2D)
		b.ReportMetric(share, fmt.Sprintf("L1I+L2D%%ofTM_%s", s))
	}
}

// BenchmarkFig53 regenerates Figure 5.3 (instructions per record).
func BenchmarkFig53(b *testing.B) {
	runFigure(b, harness.Fig53)
	env := getBenchEnv(b)
	for _, s := range engine.Systems() {
		cell, err := env.Run(s, harness.SRS)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell.Breakdown.InstructionsPerRecord(), fmt.Sprintf("inst/rec_%s_SRS", s))
	}
}

// BenchmarkFig54 regenerates both graphs of Figure 5.4.
func BenchmarkFig54(b *testing.B) {
	runFigure(b, harness.Fig54a)
	runFigure(b, harness.Fig54b)
	env := getBenchEnv(b)
	for _, s := range engine.Systems() {
		cell, err := env.Run(s, harness.SRS)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*cell.Breakdown.BranchMispredictionRate(), fmt.Sprintf("mispred%%_%s_SRS", s))
	}
}

// BenchmarkFig55 regenerates Figure 5.5 (TDEP/TFU contributions).
func BenchmarkFig55(b *testing.B) {
	runFigure(b, harness.Fig55)
	env := getBenchEnv(b)
	cell, err := env.Run(engine.SystemA, harness.SRS)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(cell.Breakdown.ComponentPercent(core.TDEP), "TDEP%_A_SRS")
	b.ReportMetric(cell.Breakdown.ComponentPercent(core.TFU), "TFU%_A_SRS")
}

// BenchmarkFig56 regenerates Figure 5.6 (CPI, SRS vs TPC-D).
func BenchmarkFig56(b *testing.B) {
	runFigure(b, harness.Fig56)
	env := getBenchEnv(b)
	for _, s := range []engine.System{engine.SystemA, engine.SystemB, engine.SystemD} {
		srs, err := env.Run(s, harness.SRS)
		if err != nil {
			b.Fatal(err)
		}
		tpcd, err := env.RunTPCD(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(srs.Breakdown.CPI(), fmt.Sprintf("CPI_%s_SRS", s))
		b.ReportMetric(tpcd.Breakdown.CPI(), fmt.Sprintf("CPI_%s_TPCD", s))
	}
}

// BenchmarkFig57 regenerates Figure 5.7 (cache stalls, SRS vs TPC-D).
func BenchmarkFig57(b *testing.B) {
	runFigure(b, harness.Fig57)
	env := getBenchEnv(b)
	cell, err := env.RunTPCD(engine.SystemD)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(cell.Breakdown.MemoryPercent(core.TL1I), "L1I%ofTM_D_TPCD")
}

// BenchmarkRecordSize regenerates the Section 5.2.1-5.2.2 record-size
// sweep and reports the 20B->200B growth factor.
func BenchmarkRecordSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := getBenchEnv(b)
		tables, err := harness.RecordSize(env)
		if err != nil {
			b.Fatal(err)
		}
		last := tables[0].Rows[len(tables[0].Rows)-1]
		b.ReportMetric(parseX(last[len(last)-1]), "growth_20B_to_200B_x")
	}
}

func parseX(s string) float64 {
	var v float64
	fmt.Sscanf(s, "%fx", &v)
	return v
}

// BenchmarkTPCC regenerates the Section 5.5 TPC-C observations.
func BenchmarkTPCC(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		cell, _, err := env.RunTPCC(engine.SystemC, 300)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell.Breakdown.CPI(), "CPI_C_TPCC")
		b.ReportMetric(cell.Breakdown.GroupPercent(core.GroupMemory), "mem%_C_TPCC")
	}
}

// --- Grid scheduling -------------------------------------------------

// benchGrid regenerates every registered experiment through the grid
// scheduler at the given worker count. Serial vs parallel wall-clock
// is the speedup the concurrent harness buys; the outputs themselves
// are byte-identical (TestParallelMatchesSerial).
func benchGrid(b *testing.B, parallel int) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunExperiments(opts, harness.Experiments(), parallel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridSerial runs the full experiment grid on one worker —
// the pre-concurrency baseline.
func BenchmarkGridSerial(b *testing.B) { benchGrid(b, 1) }

// BenchmarkGridParallel fans the same grid out across worker pools of
// 1, 2 and DefaultParallelism workers, each worker on an isolated
// simulator stack. Every variant reports the worker count it actually
// ran with and the GOMAXPROCS it ran under, so the committed bench
// record says what the parallel datapoint really measured.
func BenchmarkGridParallel(b *testing.B) {
	counts := []int{1, 2, harness.DefaultParallelism()}
	seen := map[int]bool{}
	for _, workers := range counts {
		if seen[workers] {
			continue // DefaultParallelism may be 1 or 2 on small hosts
		}
		seen[workers] = true
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportMetric(float64(workers), "workers")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
			benchGrid(b, workers)
		})
	}
}

// BenchmarkTPCDPass measures one live TPC-D suite pass on System D —
// emission plus drain of ~165M events, the dominant shape of the
// serial grid and the gang drain's per-config inner loop.
func BenchmarkTPCDPass(b *testing.B) {
	env := getBenchEnv(b)
	e := env.Engine(engine.SystemD)
	queries := env.Dims.TPCDQueries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe := xeon.New(env.Opts.Config)
		e.ResetState()
		for _, q := range queries {
			if _, err := e.Query(q, pipe); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// gangSweepGrid is the platform sweep the gang benchmark measures:
// the full microbenchmark grid and the TPC-D suites on three
// platforms (the paper's, a 2MB L2, a 16K-entry BTB).
func gangSweepGrid(opts harness.Options) []harness.CellSpec {
	big := opts.Config
	big.L2SizeKB = 2048
	btb := opts.Config
	btb.BTBEntries = 16384
	var specs []harness.CellSpec
	for _, cfg := range []xeon.Config{opts.Config, big, btb} {
		o := opts
		o.Config = cfg
		for _, e := range harness.Experiments()[:2] { // fig5.1/5.2 share the micro grid
			specs = append(specs, e.Cells(o)...)
		}
		specs = append(specs, harness.CellSpec{Kind: harness.CellTPCD, System: engine.SystemD, Config: cfg})
	}
	return specs
}

// BenchmarkGangSweep measures a three-platform sweep through the gang
// drain (each cell's workload runs once, all platforms drain the one
// stream) against the sequential path (each spec its own unit on one
// environment, so every platform re-runs the stream). The ratio is
// what the multi-config gang buys.
func BenchmarkGangSweep(b *testing.B) {
	opts := benchOptions()
	specs := gangSweepGrid(opts)
	b.Run("gang", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := harness.Measure(opts, specs, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env, err := harness.NewEnv(opts)
			if err != nil {
				b.Fatal(err)
			}
			for _, spec := range specs {
				if _, err := env.RunSpec(spec); err != nil {
					b.Fatal(err)
				}
			}
			env.Close()
		}
	})
}

// BenchmarkGridSerialUnbatched runs the full grid through the
// one-call-per-event reference path: the pre-batching hot-path shape.
// Serial vs this is the speedup the batched trace pipeline buys; the
// outputs themselves are byte-identical (TestUnbatchedMatchesGoldens).
func BenchmarkGridSerialUnbatched(b *testing.B) {
	opts := benchOptions()
	opts.Unbatched = true
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunExperiments(opts, harness.Experiments(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridWarmStart is the persistent warm-start record: the
// cold arm runs the full serial grid against a fresh store directory
// every iteration (measuring the populate cost on top of the
// simulation), the warm arm against a directory a priming run filled
// (stored tallies short-circuit every cell's simulation). warm vs
// cold is what the on-disk store buys a process restart; the outputs
// are byte-identical either way (TestStoreColdWarmMatchesGoldens).
func BenchmarkGridWarmStart(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opts := benchOptions()
			opts.StoreDir = b.TempDir()
			if _, err := harness.RunExperiments(opts, harness.Experiments(), 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		opts := benchOptions()
		opts.StoreDir = b.TempDir()
		if _, err := harness.RunExperiments(opts, harness.Experiments(), 1); err != nil {
			b.Fatal(err) // prime the store
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := harness.RunExperiments(opts, harness.Experiments(), 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompressedReplay is the compression-ratio record: it
// captures the full TPC-C measured mix once and replays it into the
// simulator two ways — from the columnar-compressed recording, and
// from a plain []Event slice of the same stream fed through
// ProcessBatch in RecordChunkEvents-sized batches, the zero-decode
// reference. The arena_mb/raw_mb/ratio metrics are the measured size
// trade on a real engine stream (the acceptance bar is >= 4x), and
// compressed-vs-raw ns/op is what the fused block decode costs on top
// of the same ProcessBatch hot loop: the price a stored-trace hit pays
// per event, which docs/PERF.md compares against re-execution.
func BenchmarkCompressedReplay(b *testing.B) {
	const txns = 300
	for _, mode := range []struct {
		name string
		raw  bool
	}{{"compressed", false}, {"raw", true}} {
		b.Run(mode.name, func(b *testing.B) {
			db, err := workload.BuildTPCC(workload.DefaultTPCCDims())
			if err != nil {
				b.Fatal(err)
			}
			e := engine.New(engine.SystemC, db.Catalog)
			pipe := xeon.New(xeon.DefaultConfig())
			rec := trace.NewRecorder(pipe, 0)
			buf := trace.NewBuffer(rec, 0)
			if _, err := workload.RunTPCC(db, e, buf, txns); err != nil {
				b.Fatal(err)
			}
			buf.Flush()
			r := rec.Recording()
			if r == nil {
				b.Fatal("uncapped recorder overflowed")
			}
			defer r.Release()
			n, arena, drain := r.Len(), r.Bytes(), r.Drain
			if mode.raw {
				s := &eventSlice{events: make([]trace.Event, 0, n)}
				r.Drain(s)
				arena, drain = len(s.events)*trace.EventBytes, s.drain
			}
			b.SetBytes(int64(n) * trace.EventBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drain(pipe)
			}
			b.StopTimer()
			b.ReportMetric(float64(arena)/(1<<20), "arena_mb")
			b.ReportMetric(float64(n*trace.EventBytes)/(1<<20), "raw_mb")
			b.ReportMetric(float64(n*trace.EventBytes)/float64(arena), "ratio")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/event")
		})
	}
}

// eventSlice is a plain in-memory event stream: filled as a
// BatchProcessor (a recording's drain calls only ProcessBatch),
// drained in RecordChunkEvents-sized batches, the batch shape a
// recording's drain delivers.
type eventSlice struct {
	trace.Discard
	events []trace.Event
}

func (s *eventSlice) ProcessBatch(events []trace.Event) { s.events = append(s.events, events...) }

func (s *eventSlice) drain(p trace.BatchProcessor) {
	for evs := s.events; len(evs) > 0; {
		n := min(len(evs), trace.RecordChunkEvents)
		p.ProcessBatch(evs[:n])
		evs = evs[n:]
	}
}

// --- Ablations (DESIGN.md section 5) --------------------------------

// ablationCell runs System D SRS under a modified platform config.
func ablationCell(b *testing.B, mutate func(*xeon.Config)) harness.Cell {
	b.Helper()
	opts := benchOptions()
	mutate(&opts.Config)
	env, err := harness.NewEnv(opts)
	if err != nil {
		b.Fatal(err)
	}
	cell, err := env.Run(engine.SystemD, harness.SRS)
	if err != nil {
		b.Fatal(err)
	}
	return cell
}

// BenchmarkAblationBTB compares the 512-entry BTB against the 16K-entry
// design Section 5.3 cites [7] for OLTP workloads.
func BenchmarkAblationBTB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		small := ablationCell(b, func(c *xeon.Config) {})
		big := ablationCell(b, func(c *xeon.Config) { c.BTBEntries = 16384 })
		b.ReportMetric(100*small.Breakdown.BTBMissRate(), "BTBmiss%_512")
		b.ReportMetric(100*big.Breakdown.BTBMissRate(), "BTBmiss%_16K")
		b.ReportMetric(small.Breakdown.GroupPercent(core.GroupBranch), "TB%_512")
		b.ReportMetric(big.Breakdown.GroupPercent(core.GroupBranch), "TB%_16K")
	}
}

// BenchmarkAblationL2Size compares the 512KB L2 against the 2MB option
// the Xeon supported (Section 5.2.1).
func BenchmarkAblationL2Size(b *testing.B) {
	for i := 0; i < b.N; i++ {
		small := ablationCell(b, func(c *xeon.Config) {})
		big := ablationCell(b, func(c *xeon.Config) { c.L2SizeKB = 2048 })
		b.ReportMetric(small.Breakdown.ComponentPercent(core.TL2D), "TL2D%_512KB")
		b.ReportMetric(big.Breakdown.ComponentPercent(core.TL2D), "TL2D%_2MB")
	}
}

// BenchmarkAblationLayout compares NSM and PAX data placement on the
// same engine profile: the paper's data-placement recommendation.
func BenchmarkAblationLayout(b *testing.B) {
	dims := workload.PaperDims().Scaled(0.01)
	for i := 0; i < b.N; i++ {
		for _, layout := range []storage.Layout{storage.NSM, storage.PAX} {
			db, err := workload.Build(dims, layout)
			if err != nil {
				b.Fatal(err)
			}
			prof := engine.DefaultProfile(engine.SystemC)
			prof.DataLayout = layout
			eng := engine.NewWithProfile(prof, db.Catalog)
			pipe := xeon.New(xeon.DefaultConfig())
			plan, err := eng.Prepare(dims.QuerySRS(0.10))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Run(plan, pipe); err != nil {
				b.Fatal(err)
			}
			pipe.ResetStats()
			if _, err := eng.Run(plan, pipe); err != nil {
				b.Fatal(err)
			}
			bd := pipe.Breakdown()
			recs := float64(bd.Counts.Records)
			b.ReportMetric(bd.Cycles[core.TL2D]/recs, fmt.Sprintf("TL2Dcyc/rec_%s", layout))
		}
	}
}

// BenchmarkAblationOSInterrupts isolates the NT timer-interrupt
// hypothesis of Section 5.2.2: L1I pollution with and without the
// periodic kernel intrusion. The interval is tightened from the 10ms
// timer tick to the effective rate of a loaded NT system (timer plus
// device and IPC interrupts) so the effect is visible at bench scale.
func BenchmarkAblationOSInterrupts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := ablationCell(b, func(c *xeon.Config) { c.InterruptCycles = 250_000 })
		without := ablationCell(b, func(c *xeon.Config) { c.InterruptCycles = 0 })
		recsW := float64(with.Breakdown.Counts.Records)
		recsWo := float64(without.Breakdown.Counts.Records)
		b.ReportMetric(float64(with.Breakdown.Counts.L1IMisses)/recsW, "L1Imiss/rec_interrupts")
		b.ReportMetric(float64(without.Breakdown.Counts.L1IMisses)/recsWo, "L1Imiss/rec_quiet")
	}
}
