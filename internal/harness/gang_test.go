package harness

import (
	"testing"

	"wheretime/internal/engine"
	"wheretime/internal/xeon"
)

// The gang-drain equivalence suite. The multi-config gang drain may
// change how cells are scheduled and how many times a stream is
// emitted or read — never a single counter of a single cell. These
// tests pin that: the same specs measured as gangs of K and each as
// its own unit (a gang of one), and through the grid at different
// worker counts, must agree on every counter, stall component and
// hardware rate.

// gangSweepConfigs returns platforms that stress different simulator
// structures: the paper's platform, a 2MB L2, a big BTB, and halved
// L1 caches.
func gangSweepConfigs() []xeon.Config {
	base := xeon.DefaultConfig()
	bigL2 := base
	bigL2.L2SizeKB = 2048
	bigBTB := base
	bigBTB.BTBEntries = 4096
	smallL1 := base
	smallL1.L1ISizeKB = 8
	smallL1.L1DSizeKB = 8
	return []xeon.Config{base, bigL2, bigBTB, smallL1}
}

// gangSweepSpecs builds a small grid over every cell kind at each
// platform: micro cells, a TPC-D suite and a TPC-C mix.
func gangSweepSpecs(opts Options) []CellSpec {
	var specs []CellSpec
	for _, cfg := range gangSweepConfigs() {
		o := opts
		o.Config = cfg
		specs = append(specs,
			microCell(o, engine.SystemD, SRS),
			microCell(o, engine.SystemB, SJ),
			CellSpec{Kind: CellTPCD, System: engine.SystemA, Config: cfg},
			CellSpec{Kind: CellTPCC, System: engine.SystemC, Txns: 40, Config: cfg},
		)
	}
	return specs
}

func compareCells(t *testing.T, spec CellSpec, got, want Cell) {
	t.Helper()
	if got.Breakdown.Counts != want.Breakdown.Counts {
		t.Errorf("%s: gang counts differ:\n got %+v\nwant %+v", spec, got.Breakdown.Counts, want.Breakdown.Counts)
	}
	if got.Breakdown.Cycles != want.Breakdown.Cycles {
		t.Errorf("%s: gang stall cycles differ:\n got %v\nwant %v", spec, got.Breakdown.Cycles, want.Breakdown.Cycles)
	}
	if got.Rates != want.Rates {
		t.Errorf("%s: gang hardware rates differ", spec)
	}
	if got.Result != want.Result {
		t.Errorf("%s: gang results differ: %+v vs %+v", spec, got.Result, want.Result)
	}
}

// measureEach measures every spec as its own unit — a gang of one —
// on a single Env, in order: the sequential reference the gangs are
// compared against.
func measureEach(t *testing.T, opts Options, specs []CellSpec) map[CellSpec]Cell {
	t.Helper()
	env, err := NewEnv(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	cells := make(map[CellSpec]Cell, len(specs))
	for _, spec := range specs {
		if cells[spec], err = env.RunSpec(spec); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
	}
	return cells
}

// TestGangMatchesSequential measures a multi-platform grid twice —
// ganged (one pass per emission key feeding all platforms) and
// sequential (each cell its own unit) — and asserts every counter of
// every platform's cell is identical.
func TestGangMatchesSequential(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.002
	specs := gangSweepSpecs(opts)

	// The sweep must actually form multi-config gangs.
	units := gangUnits(opts, dedupeSpecs(specs))
	if len(units) >= len(specs) {
		t.Fatalf("sweep formed no gangs: %d units for %d specs", len(units), len(specs))
	}

	gang, err := Measure(opts, specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	solo := measureEach(t, opts, specs)
	for _, spec := range specs {
		g, err := gang.Get(spec)
		if err != nil {
			t.Fatal(err)
		}
		compareCells(t, spec, g, solo[spec])
	}
}

// TestGangParallelMatchesSerial pins scheduling-independence of the
// ganged grid: gang work units fanned across workers produce the same
// cells as the serial pass.
func TestGangParallelMatchesSerial(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.002
	specs := gangSweepSpecs(opts)
	serial, err := Measure(opts, specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Measure(opts, specs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		s, err := serial.Get(spec)
		if err != nil {
			t.Fatal(err)
		}
		p, err := parallel.Get(spec)
		if err != nil {
			t.Fatal(err)
		}
		compareCells(t, spec, p, s)
	}
}

// TestGangUsesOneExecution pins the gang's reason to exist: a
// multi-config unit executes the workload once per run for the whole
// gang, not once per config — observed through the engine's execution
// counter.
func TestGangUsesOneExecution(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.002
	env, err := NewEnv(opts)
	if err != nil {
		t.Fatal(err)
	}
	configs := gangSweepConfigs()
	unit := make([]CellSpec, len(configs))
	for i, cfg := range configs {
		o := opts
		o.Config = cfg
		unit[i] = microCell(o, engine.SystemD, SRS)
	}
	cells, err := env.RunGang(unit)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(configs) {
		t.Fatalf("gang returned %d cells for %d configs", len(cells), len(configs))
	}
	// Warmup+measured = 2 runs; each run executes the engine once for
	// the WHOLE gang. K executions per run would
	// mean the gang degenerated to sequential draining.
	wantExecs := uint64(opts.Warmup + 1)
	if got := env.Engine(engine.SystemD).Executions(); got != wantExecs {
		t.Errorf("gang of %d configs executed the engine %d times, want %d",
			len(configs), got, wantExecs)
	}
	// Every config processed the identical stream: reference counts
	// (a pure function of the stream) must agree across the gang.
	for i := 1; i < len(cells); i++ {
		if cells[i].Breakdown.Counts.InstructionsRetired != cells[0].Breakdown.Counts.InstructionsRetired ||
			cells[i].Breakdown.Counts.Records != cells[0].Breakdown.Counts.Records {
			t.Errorf("config %d saw a different stream than config 0", i)
		}
	}
	// And the configs genuinely differ where they should.
	if cells[1].Breakdown.Counts.L2DataMisses >= cells[0].Breakdown.Counts.L2DataMisses {
		t.Errorf("2MB L2 should miss less than 512KB: %d vs %d",
			cells[1].Breakdown.Counts.L2DataMisses, cells[0].Breakdown.Counts.L2DataMisses)
	}
}
