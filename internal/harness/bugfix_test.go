package harness

import (
	"math"
	"strings"
	"testing"

	"wheretime/internal/engine"
	"wheretime/internal/trace"
)

// Regression coverage for the options/CLI bugfix sweep: the negative
// trace-cache budget fall-through, Options.Validate, and the overflow
// paths' buffer accounting.

// TestTraceCacheBytesResolution pins the budget resolution table,
// including the previously-broken negative case (a negative value
// used to fall through to itself and underflow the cache arithmetic;
// it now means "retain nothing", mirroring MaxRecordedEvents < 0).
func TestTraceCacheBytesResolution(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-1, 0}, {-1 << 30, 0}, {0, DefaultTraceCacheBytes}, {1 << 20, 1 << 20},
	} {
		o := DefaultOptions()
		o.TraceCacheBytes = tc.in
		if got := o.traceCacheBytes(); got != tc.want {
			t.Errorf("traceCacheBytes(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestTraceCacheDisabledRetainsNothing runs cells with a negative
// budget: recording (and within-cell replay) still work, results
// match a default environment, but nothing is retained across cells.
func TestTraceCacheDisabledRetainsNothing(t *testing.T) {
	opts := replayTestOptions()
	opts.TraceCacheBytes = -1
	env, err := NewEnv(opts)
	if err != nil {
		t.Fatal(err)
	}
	if env.traces == nil {
		t.Fatal("negative budget must disable retention, not recording itself")
	}
	ref, err := NewEnv(replayTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []QueryKind{SRS, SJ, SAG} {
		got, err := env.Run(engine.SystemD, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := ref.Run(engine.SystemD, q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Breakdown.Counts != want.Breakdown.Counts {
			t.Errorf("%s: counts under disabled cache differ from default env", q)
		}
		if len(env.traces.cells) != 0 {
			t.Errorf("%s: cache retained %d captures under a negative budget", q, len(env.traces.cells))
		}
	}
	if len(ref.traces.cells) == 0 {
		t.Error("reference env retained nothing — the comparison proves nothing")
	}
}

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

// TestOverflowReleasesAllBuffers pins the leak audit for the overflow
// fallback paths: with a cap small enough that every capture is
// abandoned mid-stream, each borrowed staging chunk, encoded buffer
// and decode block must return to its free list by the time the runs
// finish. A stranded buffer here is the slow arena leak the
// LiveBuffers counters exist to catch.
func TestOverflowReleasesAllBuffers(t *testing.T) {
	opts := replayTestOptions()
	opts.MaxRecordedEvents = 1000 // far below any cell's stream: every capture overflows
	env, err := NewEnv(opts)
	if err != nil {
		t.Fatal(err)
	}
	c0, e0, b0 := trace.LiveBuffers()
	for _, q := range []QueryKind{SRS, IRS, SJ, GHJ, SAG, BRS, JSA, IXJ} {
		for _, s := range engine.Systems() {
			if !ValidMicro(s, q) {
				continue
			}
			if _, err := env.Run(s, q); err != nil {
				t.Fatalf("%s/%s: %v", s, q, err)
			}
		}
	}
	if _, err := env.RunTPCD(engine.SystemD); err != nil {
		t.Fatal(err)
	}
	if _, _, err := env.RunTPCC(engine.SystemD, 60); err != nil {
		t.Fatal(err)
	}
	if len(env.traces.cells) != 0 {
		t.Errorf("overflowed captures were retained: %d cache entries", len(env.traces.cells))
	}
	c1, e1, b1 := trace.LiveBuffers()
	if c1 != c0 || e1 != e0 || b1 != b0 {
		t.Errorf("buffers leaked across overflowed captures: chunks %d->%d, encBufs %d->%d, blocks %d->%d",
			c0, c1, e0, e1, b0, b1)
	}
}
