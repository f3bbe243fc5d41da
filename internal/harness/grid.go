package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"wheretime/internal/engine"
	"wheretime/internal/fanout"
	"wheretime/internal/trace"
	"wheretime/internal/tracestore"
	"wheretime/internal/workload"
	"wheretime/internal/xeon"
)

// This file is the concurrent experiment grid. Every figure and table
// of the paper decomposes into independent measurement cells — one
// (system, query, parameter point) simulation each — declared up front
// as CellSpecs, measured by a worker pool over isolated per-worker
// simulator stacks, and aggregated deterministically so the rendered
// tables are byte-identical regardless of completion order or worker
// count.

// CellKind selects the measurement protocol of a grid cell.
type CellKind int

const (
	// CellMicro is one microbenchmark query (Section 3.3) under the
	// warm-cache protocol of Section 4.3.
	CellMicro CellKind = iota
	// CellTPCD is the summed 17-query decision-support suite.
	CellTPCD
	// CellTPCC is the OLTP transaction mix of Section 5.5.
	CellTPCC
)

// CellSpec is one independent cell of the experiment grid, fully
// resolved (no defaults left implicit) so that equal specs from
// different figures deduplicate to a single simulation. It is a
// comparable value and doubles as the aggregation key.
type CellSpec struct {
	Kind   CellKind
	System engine.System
	// Query is the microbenchmark query (CellMicro only).
	Query QueryKind
	// Selectivity applies to CellMicro range selections.
	Selectivity float64
	// RecordSize is the R/S record width; cells off the base width are
	// measured in a sub-environment built at that width.
	RecordSize int
	// Txns is the transaction count (CellTPCC only).
	Txns int
	// Config is the simulated platform the cell is measured on. The
	// zero value means the run options' platform. Config never
	// influences the emitted event stream — only how the stream is
	// costed — so cells differing only here share one stream and gang
	// into a single multi-config drain (see Measure).
	Config xeon.Config
}

// emissionKey strips the platform configuration from a spec, leaving
// exactly the fields that determine the emitted event stream: the key
// the gang scheduler groups by, and the core of the key a stored
// trace is filed under.
func emissionKey(spec CellSpec) CellSpec {
	spec.Config = xeon.Config{}
	return spec
}

// unitKey resolves the key a unit is measured, cached and stored
// under: the spec's emission key with every field its kind ignores
// zeroed and the environment's defaults filled in. A micro cell keeps
// its query, selectivity and record size; the TPC-D suite is fixed
// (no query, no selectivity) but runs over the options' dataset, so it
// takes the options' record size whatever the spec says; TPC-C runs
// over its own database and keeps only the transaction count. The
// measurement derives this once per unit and uses it for every
// member's tally, and TallyKey resolves a spec the same way, so both
// name the same entries.
func unitKey(opts Options, spec CellSpec) CellSpec {
	key := CellSpec{Kind: spec.Kind, System: spec.System}
	switch spec.Kind {
	case CellMicro:
		key.Query, key.Selectivity, key.RecordSize = spec.Query, spec.Selectivity, spec.RecordSize
	case CellTPCD:
		key.RecordSize = opts.RecordSize
	case CellTPCC:
		key.Txns = spec.Txns
	}
	return key
}

// configFor resolves a spec's platform: its explicit Config, or the
// environment's when the spec leaves it zero.
func (env *Env) configFor(spec CellSpec) xeon.Config {
	if spec.Config == (xeon.Config{}) {
		return env.Opts.Config
	}
	return spec.Config
}

// String names the cell for diagnostics, including the platform when
// the spec pins one (sweeps measure otherwise-identical cells on
// several platforms, and an error must say which).
func (c CellSpec) String() string {
	var name string
	switch c.Kind {
	case CellTPCD:
		name = fmt.Sprintf("%s/TPC-D", c.System)
	case CellTPCC:
		name = fmt.Sprintf("%s/TPC-C(%d)", c.System, c.Txns)
	default:
		name = fmt.Sprintf("%s/%s(sel=%g,rec=%dB)", c.System, c.Query, c.Selectivity, c.RecordSize)
	}
	if c.Config != (xeon.Config{}) {
		name += fmt.Sprintf("@[L1=%d/%dKB L2=%dKB BTB=%d]",
			c.Config.L1ISizeKB, c.Config.L1DSizeKB, c.Config.L2SizeKB, c.Config.BTBEntries)
	}
	return name
}

// microCell returns the base-environment spec for (s, q) under opts.
func microCell(opts Options, s engine.System, q QueryKind) CellSpec {
	return CellSpec{
		Kind:        CellMicro,
		System:      s,
		Query:       q,
		Selectivity: opts.Selectivity,
		RecordSize:  opts.RecordSize,
		Config:      opts.Config,
	}
}

// RunSpec measures one grid cell against this environment, building
// and caching a sub-environment when the cell's record size differs
// from the base: a gang of one (see RunGang). Not safe for concurrent
// use — the concurrent grid gives each worker a private Env via
// EnvFactory.
func (env *Env) RunSpec(spec CellSpec) (Cell, error) {
	cells, err := env.RunGang([]CellSpec{spec})
	if err != nil {
		return Cell{}, err
	}
	return cells[0], nil
}

// microTarget routes a micro cell to the environment it measures in:
// the base env, the cached sub-environment at the cell's record size,
// and/or a shallow selectivity shift.
func (env *Env) microTarget(spec CellSpec) (*Env, error) {
	target := env
	if spec.RecordSize != env.Opts.RecordSize {
		sub, err := env.subEnv(spec.RecordSize)
		if err != nil {
			return nil, err
		}
		target = sub
	}
	if spec.Selectivity != target.Opts.Selectivity {
		// A shallow copy shares the databases, engines and memo map
		// (the memo key includes selectivity); only the query text
		// changes.
		shifted := *target
		shifted.Opts.Selectivity = spec.Selectivity
		target = &shifted
	}
	return target, nil
}

// RunGang measures one gang: cells that share an emission-relevant
// key (same system, query and workload parameters) and differ only in
// platform configuration. The whole gang is one work unit on one
// multi-config drain — the engine executes (or the stored trace is
// read) once for all K configurations (see measure). Each cell's counters
// are bit-identical to measuring it alone, which
// TestGangMatchesSequential pins.
func (env *Env) RunGang(unit []CellSpec) ([]Cell, error) {
	cells, _, err := env.measure(unit)
	return cells, err
}

// subEnv returns the cached environment rebuilt at the given record
// size, constructing it on first use.
func (env *Env) subEnv(recordSize int) (*Env, error) {
	if sub, ok := env.subenvs[recordSize]; ok {
		return sub, nil
	}
	opts := env.Opts
	opts.RecordSize = recordSize
	// The sub-environment shares the parent's store rather than opening
	// its own: clear the store options before building, then alias the
	// parent's handle (the keys all include the record size, so sharing
	// is safe).
	opts.StoreDir = ""
	opts.Store = nil
	sub, err := NewEnv(opts)
	if err != nil {
		return nil, err
	}
	sub.store = env.store
	sub.recordCap = env.recordCap
	env.subenvs[recordSize] = sub
	return sub, nil
}

// cellTrace is one unit's capture: the recorded stream (one run of a
// micro query, one suite pass for TPC-D, the measured mix for TPC-C,
// whose warm-up slice rides along in warm) plus the execution results
// replay cannot recompute. The live path fills one while its first
// pass is captured and releases the streams once they are stored; a
// stored-trace hit loads one and releases it after the drains. Either
// way only the results outlive the unit.
type cellTrace struct {
	stream *trace.Recording
	warm   *trace.Recording
	result engine.Result
	stats  workload.TPCCStats
}

// release returns the capture's chunks to the shared free lists and
// clears its streams; the results stay.
func (ct *cellTrace) release() {
	if ct.stream != nil {
		ct.stream.Release()
		ct.stream = nil
	}
	if ct.warm != nil {
		ct.warm.Release()
		ct.warm = nil
	}
}

// EnvFactory lazily builds one isolated simulator stack — databases,
// engines, caches, pipelines — for a single worker. Nothing under a
// factory is shared with any other factory, so workers never contend:
// the xeon pipeline, storage pool, engine routine state and result
// memo are all private to the worker that built them.
type EnvFactory struct {
	opts Options
	base *Env
}

// NewEnvFactory returns a factory for stacks at the given options.
func NewEnvFactory(opts Options) *EnvFactory {
	return &EnvFactory{opts: opts}
}

// Env returns the factory's environment, building it on first use so
// workers that never receive a cell never pay for data generation.
func (f *EnvFactory) Env() (*Env, error) {
	if f.base == nil {
		env, err := NewEnv(f.opts)
		if err != nil {
			return nil, err
		}
		f.base = env
	}
	return f.base, nil
}

// RunSpec measures one cell on the factory's private stack.
func (f *EnvFactory) RunSpec(spec CellSpec) (Cell, error) {
	env, err := f.Env()
	if err != nil {
		return Cell{}, err
	}
	return env.RunSpec(spec)
}

// Results holds measured cells keyed by spec. Renders read from it in
// their own canonical order, so the tables they produce do not depend
// on the order cells were measured in.
type Results struct {
	cells map[CellSpec]Cell
	// env, when set, measures missing cells on demand: the serial path
	// and the env-backed compatibility wrappers use it.
	env *Env
}

// envResults wraps an environment as a lazily-measuring result set.
func envResults(env *Env) *Results {
	return &Results{cells: make(map[CellSpec]Cell), env: env}
}

// Get returns the measured cell for spec.
func (r *Results) Get(spec CellSpec) (Cell, error) {
	if c, ok := r.cells[spec]; ok {
		return c, nil
	}
	if r.env == nil {
		return Cell{}, fmt.Errorf("harness: cell %s was not measured", spec)
	}
	c, err := r.env.RunSpec(spec)
	if err != nil {
		return Cell{}, err
	}
	r.cells[spec] = c
	return c, nil
}

// DefaultParallelism is the worker count the CLIs default to.
func DefaultParallelism() int { return runtime.NumCPU() }

// dedupeSpecs drops duplicate cells, preserving first-seen order.
func dedupeSpecs(specs []CellSpec) []CellSpec {
	seen := make(map[CellSpec]bool, len(specs))
	out := specs[:0:0]
	for _, s := range specs {
		if seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	return out
}

// gangUnits partitions deduplicated specs into scheduler work units:
// cells sharing an emission-relevant key — everything but the
// platform Config — form one multi-config unit; order is first-seen, so the serial path remains
// deterministic. The unbatched reference path measures one event at a
// time and every cell alone, so it stays an independent check on the
// gang fan-out.
func gangUnits(opts Options, specs []CellSpec) [][]CellSpec {
	if opts.Unbatched {
		units := make([][]CellSpec, len(specs))
		for i, s := range specs {
			units[i] = []CellSpec{s}
		}
		return units
	}
	var order []CellSpec
	groups := make(map[CellSpec][]CellSpec, len(specs))
	for _, s := range specs {
		k := emissionKey(s)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], s)
	}
	units := make([][]CellSpec, len(order))
	for i, k := range order {
		units[i] = groups[k]
	}
	return units
}

// measureUnit runs one work unit on an environment.
func measureUnit(env *Env, unit []CellSpec) ([]Cell, error) {
	cells, err := env.RunGang(unit)
	if err != nil {
		return nil, fmt.Errorf("gang of %d x %s: %w", len(unit), unit[0], err)
	}
	return cells, nil
}

// PartialError reports a measurement cut short by context
// cancellation: Done of Total scheduler work units finished before the
// barrier fired. It wraps the context's error, so callers distinguish
// a deadline (errors.Is(err, context.DeadlineExceeded)) from an
// explicit cancel (context.Canceled). MeasureContext returns it
// together with the partial Results, which hold every cell the
// finished units measured.
type PartialError struct {
	// Done counts the work units whose cells were fully measured.
	Done int
	// Total is the number of work units the grid scheduled.
	Total int
	// Err is the context's error: Canceled or DeadlineExceeded.
	Err error
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("harness: measurement cancelled after %d/%d units: %v", e.Done, e.Total, e.Err)
}

func (e *PartialError) Unwrap() error { return e.Err }

// Measure simulates every cell of the grid, fanning the scheduler's
// work units out across parallel workers (parallel <= 1 preserves the
// serial path: one environment, units in declaration order). Cells
// that differ only in platform configuration gang into single units
// measured in one pass over their shared event stream (see RunGang);
// everything else is one cell per unit. Each worker owns an isolated
// simulator stack built by its private EnvFactory, and the aggregated
// Results are independent of scheduling: a cell's measurement is a
// pure function of (opts, spec), which TestParallelMatchesSerial and
// the gang equivalence suite pin down.
func Measure(opts Options, specs []CellSpec, parallel int) (*Results, error) {
	return MeasureContext(context.Background(), opts, specs, parallel)
}

// MeasureContext is Measure under a context: the grid checks for
// cancellation between work units (and, inside a cell, between its
// passes) and stops at the first barrier after ctx is cancelled or its
// deadline passes, returning the partial Results measured so far
// together with a *PartialError wrapping ctx.Err(). Cancellation
// never interrupts a cell mid-drain, and a capture is stored and
// released before the first barrier, so no trace buffer leaks; a run that is
// never cancelled is byte-identical to Measure, which the golden
// matrix pins. A store opened from Options.StoreDir is flushed even on
// the cancelled path — the cells already measured warm the next run.
func MeasureContext(ctx context.Context, opts Options, specs []CellSpec, parallel int) (*Results, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts.Context = ctx
	specs = dedupeSpecs(specs)
	units := gangUnits(opts, specs)
	res := &Results{cells: make(map[CellSpec]Cell, len(specs))}

	// A StoreDir opens one persistent store for the whole run, shared
	// across every worker (the Store is mutex-guarded) and flushed at
	// the end. A run that was handed an open Store leaves flushing to
	// its owner.
	var flushStore *tracestore.Store
	if opts.Store == nil && opts.StoreDir != "" && !opts.Unbatched {
		store, err := tracestore.Open(opts.StoreDir)
		if err != nil {
			return nil, err
		}
		opts.Store = store
		opts.StoreDir = ""
		flushStore = store
	}
	// finish flushes the run's store additions; on the cancelled path
	// the flush error (if any) rides along with the partial error.
	finish := func(retErr error) error {
		if flushStore == nil {
			return retErr
		}
		if err := flushStore.Flush(); err != nil {
			return errors.Join(retErr, err)
		}
		return retErr
	}

	if parallel <= 1 {
		env, err := NewEnv(opts)
		if err != nil {
			return nil, err
		}
		for done, unit := range units {
			if cerr := ctx.Err(); cerr != nil {
				return res, finish(&PartialError{Done: done, Total: len(units), Err: cerr})
			}
			cells, err := measureUnit(env, unit)
			if err != nil {
				if cerr := ctx.Err(); cerr != nil {
					// The unit stopped at an in-cell cancellation
					// barrier, not on a simulation failure.
					return res, finish(&PartialError{Done: done, Total: len(units), Err: cerr})
				}
				return nil, fmt.Errorf("harness: %w", err)
			}
			for i, spec := range unit {
				res.cells[spec] = cells[i]
			}
		}
		return res, finish(nil)
	}

	type outcome struct {
		cells []Cell
		err   error
	}
	outcomes := make([]outcome, len(units))
	// No worker environment needs closing: the run's store, if any, is
	// the shared handle opened above, which finish flushes.
	fanout.RunContext(ctx, len(units), parallel, func() func(int) bool {
		factory := NewEnvFactory(opts)
		return func(i int) bool {
			env, err := factory.Env()
			if err == nil {
				var cells []Cell
				cells, err = measureUnit(env, units[i])
				outcomes[i] = outcome{cells: cells, err: err}
			} else {
				outcomes[i] = outcome{err: err}
			}
			return err == nil
		}
	})

	done := 0
	var firstErr error
	for i, o := range outcomes {
		if o.err != nil {
			if firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		if o.cells == nil {
			continue // undispatched: the context fired first
		}
		for j, spec := range units[i] {
			res.cells[spec] = o.cells[j]
		}
		done++
	}
	if cerr := ctx.Err(); cerr != nil {
		return res, finish(&PartialError{Done: done, Total: len(units), Err: cerr})
	}
	if firstErr != nil {
		return nil, fmt.Errorf("harness: %w", firstErr)
	}
	return res, finish(nil)
}

// MeasureGang measures cells that share one emission key — platform
// variants of a single workload — as a single gang work unit: the
// engine executes (or the stored trace replays) once for every
// configuration in the set (see RunGang). It is the entry the
// wheretimed batcher dispatches an accumulated request window
// through. Specs are deduplicated, and every spec must share the
// first's emission key (equal GangKeys); a mixed set is refused
// rather than split, because silently batching incompatible cells is
// exactly the failure mode the gang key exists to prevent. Each
// cell's result is bit-identical to measuring it alone, which
// TestMeasureGangMatchesMeasure pins.
func MeasureGang(opts Options, specs []CellSpec) (*Results, error) {
	return MeasureGangContext(context.Background(), opts, specs)
}

// MeasureGangContext is MeasureGang under a context, with the same
// cancellation contract as MeasureContext: the gang stops at the
// first barrier after cancellation and the *PartialError wraps
// ctx.Err().
func MeasureGangContext(ctx context.Context, opts Options, specs []CellSpec) (*Results, error) {
	if opts.Unbatched {
		return nil, errors.New("harness: MeasureGang requires the batched pipeline (Options.Unbatched is set)")
	}
	specs = dedupeSpecs(specs)
	if len(specs) == 0 {
		return &Results{cells: make(map[CellSpec]Cell)}, nil
	}
	key := emissionKey(specs[0])
	for _, s := range specs[1:] {
		if emissionKey(s) != key {
			return nil, fmt.Errorf("harness: MeasureGang: %s does not share an emission key with %s", s, specs[0])
		}
	}
	return MeasureContext(ctx, opts, specs, 1)
}

// RunExperiments measures the union of the experiments' grids with the
// given parallelism and renders each experiment in the order given.
// The union is deduplicated before scheduling, so running "all"
// simulates each distinct cell exactly once no matter how many figures
// share it.
func RunExperiments(opts Options, exps []Experiment, parallel int) ([][]Table, error) {
	return RunExperimentsContext(context.Background(), opts, exps, parallel)
}

// RunExperimentsContext is RunExperiments under a context: the grid
// stops at the first between-cells barrier after cancellation and the
// error (a *PartialError) reports how far it got. Nothing renders on
// the cancelled path — a figure over half a grid would be misleading —
// but a store configured via Options.StoreDir keeps the finished
// cells, so the interrupted run still warms the next one.
func RunExperimentsContext(ctx context.Context, opts Options, exps []Experiment, parallel int) ([][]Table, error) {
	var specs []CellSpec
	for _, e := range exps {
		specs = append(specs, e.Cells(opts)...)
	}
	res, err := MeasureContext(ctx, opts, specs, parallel)
	if err != nil {
		return nil, err
	}
	out := make([][]Table, len(exps))
	for i, e := range exps {
		tables, err := e.Render(opts, res)
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", e.Name, err)
		}
		out[i] = tables
	}
	return out, nil
}
