package harness

import (
	"testing"

	"wheretime/internal/engine"
	"wheretime/internal/trace"
	"wheretime/internal/tracestore"
	"wheretime/internal/workload"
	"wheretime/internal/xeon"
)

// must fails the test on a setup error.
func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// referenceMeasure is the Section 4.3 protocol written straight out: one
// plain pipeline (no recorder, store or MultiPipeline), every pass
// executed, the counters reset before the measured one. The env only
// lends its data and engines.
func referenceMeasure(t *testing.T, opts Options, spec CellSpec) Cell {
	env, err := NewEnv(opts)
	must(t, err)
	pipe, e := xeon.New(env.configFor(spec)), env.Engine(spec.System)
	var res engine.Result
	switch spec.Kind {
	case CellMicro:
		query, _ := env.queryFor(spec.System, spec.Query)
		plan, err := env.planFor(spec.System, spec.Query, query)
		must(t, err)
		for i := 0; i <= opts.Warmup; i++ {
			if i == opts.Warmup {
				pipe.ResetStats()
			}
			e.ResetState()
			res, err = e.Run(plan, pipe)
			must(t, err)
		}
	case CellTPCD:
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				pipe.ResetStats()
			}
			e.ResetState()
			for _, q := range env.Dims.TPCDQueries() {
				_, err := e.Query(q, pipe)
				must(t, err)
			}
		}
	case CellTPCC:
		db, err := workload.BuildTPCC(workload.DefaultTPCCDims())
		must(t, err)
		e := engine.New(spec.System, db.Catalog)
		buf := trace.NewBuffer(pipe, 0)
		_, err = workload.RunTPCC(db, e, buf, spec.Txns/4+1)
		must(t, err)
		buf.Flush()
		pipe.ResetStats()
		_, err = workload.RunTPCC(db, e, buf, spec.Txns)
		must(t, err)
		buf.Flush()
	}
	return Cell{Breakdown: pipe.Breakdown(), Rates: pipe.Rates(), Result: res}
}

// TestProtocolMatchesReference checks measure against the reference,
// counter for counter, as a gang of one (RunSpec, live, into a fresh
// store) and as a member of a gang of three (RunGang on a fresh env
// over that store). Warmup 3 gives both paths several warm-up passes:
// the live one re-executes them, the gang one drains the stored trace
// for them. D/SRS, B/SJ and TPC-C(60) must be answered from the stored
// trace; the TPC-D pass on D (19.2M events) overflows the recording
// cap, so nothing is stored and its gang re-executes.
func TestProtocolMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("reference TPC-D and TPC-C runs in -short mode; make gang-smoke runs it")
	}
	opts := DefaultOptions()
	opts.Scale = 0.002
	opts.Warmup = 3
	for _, spec := range []CellSpec{
		microCell(opts, engine.SystemD, SRS),
		microCell(opts, engine.SystemB, SJ),
		{Kind: CellTPCD, System: engine.SystemD, Config: opts.Config},
		{Kind: CellTPCC, System: engine.SystemC, Txns: 60, Config: opts.Config},
	} {
		want := referenceMeasure(t, opts, spec)
		store, err := tracestore.Open(t.TempDir())
		must(t, err)
		stored := opts
		stored.Store = store
		env, err := NewEnv(stored)
		must(t, err)
		solo, err := env.RunSpec(spec)
		must(t, err)
		compareCells(t, spec, solo, want)

		env, err = NewEnv(stored)
		must(t, err)
		big, btb := spec, spec
		big.Config, btb.Config = gangSweepConfigs()[1], gangSweepConfigs()[2]
		gang, err := env.RunGang([]CellSpec{big, spec, btb})
		must(t, err)
		compareCells(t, spec, gang[1], want)
		st := store.Stats()
		if spec.Kind == CellTPCD {
			if st.TracesWritten != 0 || st.TraceHits != 0 {
				t.Errorf("%s: the pass overflows the cap, yet the store saw trace traffic %+v", spec, st)
			}
		} else if st.TraceHits == 0 {
			t.Errorf("%s: the gang was not answered from the stored trace: %+v", spec, st)
		}
	}
}
