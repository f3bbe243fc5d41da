package harness

import (
	"os"
	"testing"

	"wheretime/internal/engine"
	"wheretime/internal/trace"
	"wheretime/internal/xeon"
)

// The record-once/replay-many contract, pinned from three sides:
// executing a cell twice emits byte-identical event streams (the
// stream is a pure function of the cell spec), a replayed measurement
// equals a re-executed one on every counter, and the full golden
// suite renders identically with recording force-disabled.

// replayTestOptions is a reduced-scale setup whose streams fit the
// recording cap with room to spare.
func replayTestOptions() Options {
	opts := DefaultOptions()
	opts.Scale = 0.002
	return opts
}

// captureRun executes one (system, query) run from reset engine state
// into a recorder backed by a scratch pipeline, returning the capture.
func captureRun(t *testing.T, env *Env, s engine.System, q QueryKind) *trace.Recording {
	t.Helper()
	query, ok := env.queryFor(s, q)
	if !ok {
		t.Fatalf("%s does not run %s", s, q)
	}
	e := env.Engine(s)
	plan, err := env.planFor(s, q, query)
	if err != nil {
		t.Fatal(err)
	}
	pipe := xeon.New(env.Opts.Config)
	rec := trace.NewRecorder(pipe, 0)
	e.ResetState()
	if _, err := e.Run(plan, rec); err != nil {
		t.Fatal(err)
	}
	if rec.Overflowed() {
		t.Fatal("uncapped recorder overflowed")
	}
	return rec.Recording()
}

// TestRecordedStreamsDeterministic executes every valid microbenchmark
// cell twice and asserts the two recorded event streams are
// byte-identical — the invariant that makes replaying the first
// execution for later runs exact rather than approximate.
func TestRecordedStreamsDeterministic(t *testing.T) {
	env, err := NewEnv(replayTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []QueryKind{SRS, IRS, SJ} {
		for _, s := range engine.Systems() {
			if !ValidMicro(s, q) {
				continue
			}
			first := captureRun(t, env, s, q)
			second := captureRun(t, env, s, q)
			if first.Len() == 0 {
				t.Fatalf("%s/%s: empty stream", s, q)
			}
			if !first.Equal(second) {
				t.Errorf("%s/%s: two executions emitted different streams (%d vs %d events)",
					s, q, first.Len(), second.Len())
			}
			first.Release()
			second.Release()
		}
	}
}

// TestReplayMatchesReexecution measures every QueryKind and an OLTP
// mix slice twice — once with replay enabled, once with recording
// disabled (every run re-executes the engine) — and asserts the
// measured breakdowns match on every counter, stall component and
// hardware rate.
func TestReplayMatchesReexecution(t *testing.T) {
	replayOpts := replayTestOptions()
	reexecOpts := replayTestOptions()
	reexecOpts.MaxRecordedEvents = -1

	replayEnv, err := NewEnv(replayOpts)
	if err != nil {
		t.Fatal(err)
	}
	if replayEnv.traces == nil {
		t.Fatal("replay env built without a trace cache")
	}
	reexecEnv, err := NewEnv(reexecOpts)
	if err != nil {
		t.Fatal(err)
	}
	if reexecEnv.traces != nil {
		t.Fatal("recording-disabled env still built a trace cache")
	}

	diffCells := func(name string, a, b Cell) {
		t.Helper()
		if a.Breakdown.Counts != b.Breakdown.Counts {
			t.Errorf("%s: replayed counts differ from re-executed:\n got %+v\nwant %+v",
				name, a.Breakdown.Counts, b.Breakdown.Counts)
		}
		if a.Breakdown.Cycles != b.Breakdown.Cycles {
			t.Errorf("%s: replayed stall cycles differ from re-executed:\n got %v\nwant %v",
				name, a.Breakdown.Cycles, b.Breakdown.Cycles)
		}
		if a.Rates != b.Rates {
			t.Errorf("%s: replayed hardware rates differ from re-executed", name)
		}
		if a.Result != b.Result {
			t.Errorf("%s: replayed result %+v != re-executed %+v", name, a.Result, b.Result)
		}
	}

	for _, q := range []QueryKind{SRS, IRS, SJ} {
		a, err := replayEnv.Run(engine.SystemD, q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := reexecEnv.Run(engine.SystemD, q)
		if err != nil {
			t.Fatal(err)
		}
		diffCells("D/"+q.String(), a, b)
	}

	const txns = 60
	a, aStats, err := replayEnv.RunTPCC(engine.SystemC, txns)
	if err != nil {
		t.Fatal(err)
	}
	b, bStats, err := reexecEnv.RunTPCC(engine.SystemC, txns)
	if err != nil {
		t.Fatal(err)
	}
	diffCells("C/TPC-C", a, b)
	if aStats != bStats {
		t.Errorf("TPC-C stats differ: %+v vs %+v", aStats, bStats)
	}
}

// TestTraceCacheReplaysRevisits pins the cross-cell cache: revisiting
// a cell replays the capture (no engine execution) and must reproduce
// the first measurement exactly. TPC-C is not memoised, so a second
// RunTPCC exercises the cache-hit path directly; for the micro path
// the memo is cleared to force the cell back through measure.
func TestTraceCacheReplaysRevisits(t *testing.T) {
	env, err := NewEnv(replayTestOptions())
	if err != nil {
		t.Fatal(err)
	}

	const txns = 60
	first, firstStats, err := env.RunTPCC(engine.SystemC, txns)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := env.traces.lookup(CellSpec{Kind: CellTPCC, System: engine.SystemC, Txns: txns}); !ok {
		t.Fatal("TPC-C capture was not cached")
	}
	second, secondStats, err := env.RunTPCC(engine.SystemC, txns)
	if err != nil {
		t.Fatal(err)
	}
	if first.Breakdown.Counts != second.Breakdown.Counts ||
		first.Breakdown.Cycles != second.Breakdown.Cycles {
		t.Error("cached TPC-C replay diverged from the executed measurement")
	}
	if firstStats != secondStats {
		t.Errorf("cached TPC-C stats differ: %+v vs %+v", firstStats, secondStats)
	}

	cell, err := env.Run(engine.SystemB, IRS)
	if err != nil {
		t.Fatal(err)
	}
	spec := microCell(env.Opts, engine.SystemB, IRS)
	if _, ok := env.traces.lookup(spec); !ok {
		t.Fatal("micro capture was not cached")
	}
	env.memo = map[CellSpec]Cell{} // force the next Run back through measure
	again, err := env.Run(engine.SystemB, IRS)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Breakdown.Counts != again.Breakdown.Counts ||
		cell.Breakdown.Cycles != again.Breakdown.Cycles ||
		cell.Result != again.Result {
		t.Error("cached micro replay diverged from the executed measurement")
	}
}

// TestRecordingCapFallsBack forces a tiny cap and checks the harness
// falls back to re-execution with identical output (the MaxRecordedEvents
// safety valve for streams too big to hold).
func TestRecordingCapFallsBack(t *testing.T) {
	tiny := replayTestOptions()
	tiny.MaxRecordedEvents = 1000 // far below any cell's stream
	tinyEnv, err := NewEnv(tiny)
	if err != nil {
		t.Fatal(err)
	}
	ref := replayTestOptions()
	ref.MaxRecordedEvents = -1
	refEnv, err := NewEnv(ref)
	if err != nil {
		t.Fatal(err)
	}
	a, err := tinyEnv.Run(engine.SystemD, SRS)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tinyEnv.traces.lookup(microCell(tiny, engine.SystemD, SRS)); ok {
		t.Error("overflowed capture must not be cached")
	}
	b, err := refEnv.Run(engine.SystemD, SRS)
	if err != nil {
		t.Fatal(err)
	}
	if a.Breakdown.Counts != b.Breakdown.Counts || a.Breakdown.Cycles != b.Breakdown.Cycles {
		t.Error("capped fallback measurement differs from recording-disabled measurement")
	}
}

// TestTraceCacheBudgetEvicts pins the cache's memory bound: retained
// arena bytes never exceed the budget, and eviction releases the
// oldest capture. Short streams stage raw in the recording's tail
// (EventBytes per event), which makes the byte accounting exact here.
func TestTraceCacheBudgetEvicts(t *testing.T) {
	const eb = trace.EventBytes
	tc := newTraceCache(100 * eb)
	mk := func(n int) *cellTrace {
		ct := &cellTrace{stream: &trace.Recording{}}
		evs := make([]trace.Event, n)
		rec := trace.NewRecorder(trace.Discard{}, 0)
		rec.ProcessBatch(evs)
		ct.stream = rec.Recording()
		return ct
	}
	k1 := CellSpec{Kind: CellMicro, System: engine.SystemA, Query: SRS}
	k2 := CellSpec{Kind: CellMicro, System: engine.SystemB, Query: SRS}
	k3 := CellSpec{Kind: CellMicro, System: engine.SystemC, Query: SRS}
	tc.store(k1, mk(60))
	tc.store(k2, mk(30))
	if tc.total != 90*eb {
		t.Fatalf("total %d, want %d", tc.total, 90*eb)
	}
	tc.store(k3, mk(50)) // must evict k1 (oldest)
	if _, ok := tc.lookup(k1); ok {
		t.Error("oldest entry should have been evicted")
	}
	if _, ok := tc.lookup(k2); !ok {
		t.Error("newer entry evicted too eagerly")
	}
	if tc.total != 80*eb {
		t.Errorf("total %d after eviction, want %d", tc.total, 80*eb)
	}
	tc.store(k1, mk(200)) // bigger than the whole budget: dropped
	if _, ok := tc.lookup(k1); ok {
		t.Error("over-budget capture must not be cached")
	}

	// A chunk-crossing capture is accounted at its compressed size: a
	// budget far below its raw footprint still admits it.
	big := mk(3 * trace.RecordChunkEvents)
	wantBytes := big.bytes()
	if wantBytes*4 > 3*trace.RecordChunkEvents*eb {
		t.Fatalf("chunk-crossing capture barely compressed: %d bytes", wantBytes)
	}
	tc2 := newTraceCache(wantBytes)
	tc2.store(k1, big)
	if _, ok := tc2.lookup(k1); !ok {
		t.Fatal("compressed capture should fit a compressed-byte budget")
	}
	if tc2.total != wantBytes {
		t.Errorf("total %d, want the stored capture's %d bytes", tc2.total, wantBytes)
	}

	// Nil cache (recording disabled) is inert.
	var nilCache *traceCache
	if _, ok := nilCache.lookup(k2); ok {
		t.Error("nil cache hit")
	}
	nilCache.store(k2, mk(10)) // must not panic
}

// TestReplayDisabledMatchesGoldens renders the full experiment grid
// with recording force-disabled and diffs it against the same goldens
// the replay-enabled default produced: the replay-smoke equivalence,
// end to end on every figure.
func TestReplayDisabledMatchesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment grid in -short mode")
	}
	opts := goldenOptions()
	opts.MaxRecordedEvents = -1
	got := renderGolden(t, opts)
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			want, err := os.ReadFile(goldenPath(e.Name))
			if err != nil {
				t.Fatalf("missing golden (run TestGoldenFiles with -update first): %v", err)
			}
			if got[e.Name] != string(want) {
				t.Errorf("replay-disabled output differs from replay-enabled golden for %s", e.Name)
			}
		})
	}
}

// TestCompressionDisabledMatchesGoldens renders the full experiment
// grid with captures kept in the raw []Event arena layout and diffs
// it against the goldens the compressed default produced: the
// compress-smoke equivalence — the columnar codec must be invisible
// to every figure.
func TestCompressionDisabledMatchesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment grid in -short mode")
	}
	opts := goldenOptions()
	opts.UncompressedArena = true
	got := renderGolden(t, opts)
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			want, err := os.ReadFile(goldenPath(e.Name))
			if err != nil {
				t.Fatalf("missing golden (run TestGoldenFiles with -update first): %v", err)
			}
			if got[e.Name] != string(want) {
				t.Errorf("raw-arena output differs from compressed-arena golden for %s", e.Name)
			}
		})
	}
}
