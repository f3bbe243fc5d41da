package harness

import (
	"context"
	"errors"
	"sync"
	"testing"

	"wheretime/internal/engine"
	"wheretime/internal/trace"
)

// ctxSpecs is a small mixed grid for the cancellation tests.
func ctxSpecs(opts Options) []CellSpec {
	return []CellSpec{
		microCell(opts, engine.SystemB, SRS),
		microCell(opts, engine.SystemD, SRS),
		microCell(opts, engine.SystemB, SJ),
		{Kind: CellTPCC, System: engine.SystemC, Txns: 40, Config: opts.Config},
	}
}

// TestMeasureContextUncancelledMatchesMeasure pins the contract the
// golden matrix rests on: a context that never fires changes nothing —
// cell for cell, MeasureContext(Background) equals Measure.
func TestMeasureContextUncancelledMatchesMeasure(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.002
	specs := ctxSpecs(opts)

	plain, err := Measure(opts, specs, 1)
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	ctxed, err := MeasureContext(context.Background(), opts, specs, 2)
	if err != nil {
		t.Fatalf("MeasureContext: %v", err)
	}
	for _, spec := range specs {
		a, err := plain.Get(spec)
		if err != nil {
			t.Fatalf("plain Get(%s): %v", spec, err)
		}
		b, err := ctxed.Get(spec)
		if err != nil {
			t.Fatalf("ctxed Get(%s): %v", spec, err)
		}
		if *a.Breakdown != *b.Breakdown || a.Result != b.Result || a.Rates != b.Rates {
			t.Errorf("cell %s differs under an idle context", spec)
		}
	}
}

// TestMeasureContextPreCancelled: a context cancelled before the call
// measures nothing and reports a PartialError with zero progress.
func TestMeasureContextPreCancelled(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.002
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, parallel := range []int{1, 2} {
		res, err := MeasureContext(ctx, opts, ctxSpecs(opts), parallel)
		var pe *PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("parallel=%d: err = %v, want *PartialError", parallel, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("parallel=%d: err %v does not wrap context.Canceled", parallel, err)
		}
		if pe.Done != 0 {
			t.Errorf("parallel=%d: Done = %d, want 0", parallel, pe.Done)
		}
		if res == nil {
			t.Errorf("parallel=%d: partial results are nil", parallel)
		}
	}
}

// countdownCtx is a context whose Err flips to Canceled after a fixed
// number of checks — a deterministic way to land a cancellation at a
// specific between-units barrier on the serial path (which polls Err
// rather than selecting on Done).
type countdownCtx struct {
	context.Context
	mu    sync.Mutex
	left  int
	fired bool
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fired {
		return context.Canceled
	}
	c.left--
	if c.left <= 0 {
		c.fired = true
		return context.Canceled
	}
	return nil
}

// Done returns nil: the serial grid never selects on it, and a nil
// channel keeps the dispatch path identical to Background.
func (c *countdownCtx) Done() <-chan struct{} { return nil }

// TestMeasureContextMidRunCancel cancels partway through a serial
// grid: the result is a PartialError whose progress is strictly
// between zero and the total, the cells measured before the barrier
// are present in the partial results, and no trace buffers leak on
// the cancelled path.
func TestMeasureContextMidRunCancel(t *testing.T) {
	c0, e0, b0 := trace.LiveBuffers()
	opts := DefaultOptions()
	opts.Scale = 0.002
	specs := ctxSpecs(opts)
	ctx := &countdownCtx{Context: context.Background(), left: 8}

	res, err := MeasureContext(ctx, opts, specs, 1)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	if pe.Done <= 0 || pe.Done >= pe.Total {
		t.Errorf("Done = %d of %d, want strictly partial progress", pe.Done, pe.Total)
	}
	got := 0
	for _, spec := range specs {
		if _, ok := res.cells[spec]; ok {
			got++
		}
	}
	if got == 0 {
		t.Error("no finished cells in the partial results")
	}
	if c, e, b := trace.LiveBuffers(); c != c0 || e != e0 || b != b0 {
		t.Errorf("cancelled run leaked buffers: chunks %d->%d encBufs %d->%d blocks %d->%d",
			c0, c, e0, e, b0, b)
	}
}

// TestTPCDReexecutionChecksContext: the TPC-D suite's measured pass
// re-executes all its queries, so the context is checked before it as
// before every micro pass. The
// countdown lets the unit's entry check pass and fires at the
// between-passes one: the cell must stop after one suite pass, holding
// no trace buffers.
func TestTPCDReexecutionChecksContext(t *testing.T) {
	c0, e0, b0 := trace.LiveBuffers()
	opts := DefaultOptions()
	opts.Scale = 0.002
	opts.Context = &countdownCtx{Context: context.Background(), left: 2}
	env, err := NewEnv(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.RunTPCD(engine.SystemD); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled from the between-passes barrier", err)
	}
	if got, want := env.Engine(engine.SystemD).Executions(), uint64(len(env.Dims.TPCDQueries())); got != want {
		t.Errorf("engine executed %d queries, want one suite pass of %d", got, want)
	}
	if c, e, b := trace.LiveBuffers(); c != c0 || e != e0 || b != b0 {
		t.Errorf("cancelled cell leaked buffers: chunks %d->%d encBufs %d->%d blocks %d->%d",
			c0, c, e0, e, b0, b)
	}
}

// TestMeasureContextDeadline: an expired deadline surfaces as a typed
// timeout — errors.Is(err, context.DeadlineExceeded) — through the
// PartialError wrapper.
func TestMeasureContextDeadline(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.002
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	<-ctx.Done()

	_, err := MeasureContext(ctx, opts, ctxSpecs(opts), 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
}
