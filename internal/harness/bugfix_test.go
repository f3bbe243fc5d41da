package harness

import (
	"math"
	"strings"
	"testing"

	"wheretime/internal/engine"
	"wheretime/internal/trace"
	"wheretime/internal/tracestore"
)

// Regression coverage for the options/CLI bugfix sweep:
// Options.Validate and the overflow path's buffer accounting.

// TestOptionsValidate pins the parameter checks the CLIs rely on
// (before these, out-of-range -scale/-selectivity panicked deep in
// workload.Dims instead of returning a usage error).
func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}
	bad := []struct {
		mod  func(*Options)
		frag string
	}{
		{func(o *Options) { o.Scale = 0 }, "scale"},
		{func(o *Options) { o.Scale = 1.5 }, "scale"},
		{func(o *Options) { o.Scale = -0.1 }, "scale"},
		{func(o *Options) { o.Scale = math.NaN() }, "scale"},
		{func(o *Options) { o.Selectivity = -0.01 }, "selectivity"},
		{func(o *Options) { o.Selectivity = 1.01 }, "selectivity"},
		{func(o *Options) { o.Selectivity = math.NaN() }, "selectivity"},
		{func(o *Options) { o.RecordSize = 4 }, "record size"},
		{func(o *Options) { o.Warmup = -1 }, "warmup"},
	}
	for _, tc := range bad {
		o := DefaultOptions()
		tc.mod(&o)
		err := o.Validate()
		if err == nil {
			t.Errorf("options %+v validated", o)
		} else if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("error %q does not name %q", err, tc.frag)
		}
	}
}

// TestOverflowReleasesAllBuffers pins the overflow path: with a store
// and a cap small enough that every capture is abandoned mid-stream,
// no trace is written, every cell equals a storeless run's, and each
// borrowed staging chunk, encoded buffer and decode block returns to
// its free list. A stranded buffer here is the slow arena leak the
// LiveBuffers counters exist to catch.
func TestOverflowReleasesAllBuffers(t *testing.T) {
	store, err := tracestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := replayTestOptions()
	opts.Store = store
	env, err := NewEnv(opts)
	if err != nil {
		t.Fatal(err)
	}
	env.recordCap = 1000 // far below any cell's stream: every capture overflows
	ref, err := NewEnv(replayTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	c0, e0, b0 := trace.LiveBuffers()
	cells := 0
	for _, q := range []QueryKind{SRS, IRS, SJ, GHJ, SAG, BRS, JSA, IXJ} {
		for _, s := range engine.Systems() {
			if !ValidMicro(s, q) {
				continue
			}
			got, err := env.Run(s, q)
			if err != nil {
				t.Fatalf("%s/%s: %v", s, q, err)
			}
			want, err := ref.Run(s, q)
			if err != nil {
				t.Fatal(err)
			}
			diffCellsExact(t, s.String()+"/"+q.String(), got, want)
			cells++
		}
	}
	got, err := env.RunTPCD(engine.SystemD)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.RunTPCD(engine.SystemD)
	if err != nil {
		t.Fatal(err)
	}
	diffCellsExact(t, "D/TPC-D", got, want)
	got, gotStats, err := env.RunTPCC(engine.SystemD, 60)
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats, err := ref.RunTPCC(engine.SystemD, 60)
	if err != nil {
		t.Fatal(err)
	}
	diffCellsExact(t, "D/TPC-C", got, want)
	if gotStats != wantStats {
		t.Errorf("TPC-C stats differ: %+v vs %+v", gotStats, wantStats)
	}
	cells += 2
	// Every capture overflowed: nothing but the cells' tallies was stored.
	if st := store.Stats(); st.TracesWritten != 0 || st.EntriesAdded != cells {
		t.Errorf("store traffic %+v, want no trace written and %d tallies added", st, cells)
	}
	c1, e1, b1 := trace.LiveBuffers()
	if c1 != c0 || e1 != e0 || b1 != b0 {
		t.Errorf("buffers leaked across overflowed captures: chunks %d->%d, encBufs %d->%d, blocks %d->%d",
			c0, c1, e0, e1, b0, b1)
	}
}
