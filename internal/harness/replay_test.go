package harness

import (
	"testing"

	"wheretime/internal/engine"
	"wheretime/internal/trace"
	"wheretime/internal/tracestore"
	"wheretime/internal/xeon"
)

// The stored-trace contract, pinned from two sides: executing a cell
// twice emits byte-identical event streams (the stream is a pure
// function of the cell spec), and a unit answered by replaying its
// stored trace on another platform equals a storeless measurement
// there on every counter.

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

// TestReplayMatchesReexecution is the stored-trace differential: the
// eight micro queries on D, TPC-C(60) on C and (outside -short) the
// TPC-D suite on B, whose 9.1M-event pass fits the recording cap, are
// measured into a store on one platform, then measured on a second
// platform from that store. Every unit must be a trace hit, and every
// cell must equal a storeless run on the second platform on every
// counter, stall component, hardware rate, result bit and transaction
// statistic.
func TestReplayMatchesReexecution(t *testing.T) {
	opts := replayTestOptions()
	var specs []CellSpec
	for _, q := range []QueryKind{SRS, IRS, SJ, GHJ, SAG, BRS, JSA, IXJ} {
		specs = append(specs, microCell(opts, engine.SystemD, q))
	}
	specs = append(specs, CellSpec{Kind: CellTPCC, System: engine.SystemC, Txns: 60, Config: opts.Config})
	if !testing.Short() {
		specs = append(specs, CellSpec{Kind: CellTPCD, System: engine.SystemB, Config: opts.Config})
	}
	store, err := tracestore.Open(t.TempDir())
	must(t, err)
	stored := opts
	stored.Store = store
	_, err = Measure(stored, specs, 1)
	must(t, err)

	second := opts
	second.Config.L2SizeKB = 2 * opts.Config.L2SizeKB
	second.Store = store
	hitEnv, err := NewEnv(second)
	must(t, err)
	second.Store = nil
	refEnv, err := NewEnv(second)
	must(t, err)
	for _, spec := range specs {
		spec.Config = second.Config
		hits := store.Stats().TraceHits
		got, gotStats, err := hitEnv.measure([]CellSpec{spec})
		must(t, err)
		if store.Stats().TraceHits == hits {
			t.Errorf("%s: not answered from the stored trace", spec)
		}
		want, wantStats, err := refEnv.measure([]CellSpec{spec})
		must(t, err)
		diffCellsExact(t, spec.String(), got[0], want[0])
		if gotStats != wantStats {
			t.Errorf("%s: transaction statistics differ: %+v vs %+v", spec, gotStats, wantStats)
		}
	}
}

// TestRecordingCapFallsBack forces a tiny cap on an env with a store
// and checks the overflowed capture is abandoned rather than stored,
// with the measurement identical to a storeless run's (the recording
// cap is the safety valve for streams too big to hold).
func TestRecordingCapFallsBack(t *testing.T) {
	store, err := tracestore.Open(t.TempDir())
	must(t, err)
	tiny := replayTestOptions()
	tiny.Store = store
	tinyEnv, err := NewEnv(tiny)
	must(t, err)
	tinyEnv.recordCap = 1000 // far below any cell's stream
	refEnv, err := NewEnv(replayTestOptions())
	must(t, err)
	a, err := tinyEnv.Run(engine.SystemD, SRS)
	must(t, err)
	if st := store.Stats(); st.TracesWritten != 0 {
		t.Errorf("overflowed capture must not be stored: %d traces written", st.TracesWritten)
	}
	b, err := refEnv.Run(engine.SystemD, SRS)
	must(t, err)
	if a.Breakdown.Counts != b.Breakdown.Counts || a.Breakdown.Cycles != b.Breakdown.Cycles {
		t.Error("capped fallback measurement differs from storeless measurement")
	}
}
