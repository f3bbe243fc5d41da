// Package harness reproduces the paper's experiments: it wires
// workload, engine and simulator together, applies the measurement
// protocol of Section 4.3 (warm the caches with runs of the query,
// then measure), and renders each figure and table of Section 5.
package harness

import (
	"context"
	"fmt"

	"wheretime/internal/core"
	"wheretime/internal/engine"
	"wheretime/internal/sql"
	"wheretime/internal/storage"
	"wheretime/internal/trace"
	"wheretime/internal/tracestore"
	"wheretime/internal/workload"
	"wheretime/internal/xeon"
)

// QueryKind names the microbenchmark queries: the three of Section 3.3
// plus the scenario operators added on top of the paper's set, each a
// distinct access pattern through the same trace pipeline.
type QueryKind int

// The workload queries. The first three use the paper's
// abbreviations; the scenario kinds extend the set.
const (
	// SRS is the sequential range selection.
	SRS QueryKind = iota
	// IRS is the indexed range selection.
	IRS
	// SJ is the sequential join.
	SJ
	// GHJ is the Grace/hybrid hash join: both join inputs are
	// hash-partitioned to partition-sized working sets, then each
	// partition pair is joined through a reused in-memory table —
	// hash-bucket random access confined to partition-sized regions.
	GHJ
	// SAG is the sort-based aggregation: run generation over the
	// qualifying records, multi-way merge passes (sequential reads
	// strided across the merge fan-in), aggregation over the final
	// run.
	SAG
	// BRS is the B-tree range scan: root-to-leaf descent, then a
	// leaf-chain walk answering a COUNT(*) from the index alone — no
	// heap record is ever fetched.
	BRS
	// JSA is the join-sort-aggregate pipeline: the sequential join's
	// matches routed through an external sort before aggregation — two
	// composed operators (hash join feeding sort) no bespoke access
	// path ever covered; its result must equal SJ's.
	JSA
	// IXJ is the index-probe join: the equijoin restricted by a range
	// predicate on the join column, its probe side driven from the a2
	// index (descent plus leaf walk plus RID fetches) instead of a full
	// heap scan.
	IXJ
)

// String returns the query's abbreviation.
func (q QueryKind) String() string {
	switch q {
	case SRS:
		return "SRS"
	case IRS:
		return "IRS"
	case SJ:
		return "SJ"
	case GHJ:
		return "GHJ"
	case SAG:
		return "SAG"
	case BRS:
		return "BRS"
	case JSA:
		return "JSA"
	case IXJ:
		return "IXJ"
	default:
		return fmt.Sprintf("QueryKind(%d)", int(q))
	}
}

// Options configure an experiment run.
type Options struct {
	// Scale shrinks the paper's dataset (1.0 = the paper's 1.2M-row R).
	// Per-record behaviour converges within a few thousand records.
	Scale float64
	// RecordSize is the R/S record width in bytes.
	RecordSize int
	// Selectivity of the range selections (the paper's default is 10%).
	Selectivity float64
	// Config is the simulated platform.
	Config xeon.Config
	// Warmup is how many unmeasured runs warm the caches (Section 4.3).
	Warmup int
	// Unbatched routes every event through the one-call-per-event
	// reference path instead of the batched pipeline drain, and keeps
	// the run storeless (StoreDir and Store are ignored), so nothing
	// the batched protocol stored can answer it. The reference and
	// batched paths see the identical event sequence and must render
	// byte-identical tables; the golden-file suite measures both ways
	// and diffs them. Slower — for verification, not for experiments.
	Unbatched bool
	// StoreDir, when non-empty, opens a persistent tracestore at that
	// directory: cell tallies, and the first-pass capture of every
	// stream that fits DefaultMaxRecordedEvents, persist across
	// processes, so a warm directory starts the grid from disk instead
	// of from zero. The env owns the store and Close flushes it.
	StoreDir string
	// Store hands the environment an already-open store instead of a
	// directory; the caller keeps ownership (and calls Flush). Measure
	// opens one store per run and shares it across workers this way.
	Store *tracestore.Store
	// Context, when non-nil, lets a long measurement be cancelled: the
	// grid checks it between cells and between the passes inside a
	// cell, and stops with an error wrapping ctx.Err() at the first
	// check after cancellation. Cancellation is a barrier, never a
	// mid-drain interrupt — a run that is never cancelled produces
	// byte-identical output with or without a context, which the golden
	// matrix pins. Set by MeasureContext; leave nil for uncancellable
	// runs.
	Context context.Context
}

// DefaultMaxRecordedEvents caps a capture bound for the store: 16Mi
// events, ~56 MiB at the codec's ~3.5 bytes/event. Only a unit
// measured with a store records, and only its first pass (plus TPC-C's
// warm slice); a stream past the cap — the TPC-D suites, the larger
// sequential scans — is released the moment it overflows, and its
// unit simply stores no trace. Every pass executes live either way:
// re-emitting a stream costs 5–9 ns/event, decoding a capture 12–21
// (docs/PERF.md), so a capture exists only to be stored.
const DefaultMaxRecordedEvents = 16 << 20

// Validate rejects option values the environment builders would panic
// on or silently misbehave with, so CLIs can fail with a usage error
// instead: scale outside (0, 1], selectivity outside [0, 1], a record
// size below the storage minimum. The range checks are written so that
// NaN, which fails every comparison, fails them too.
func (o Options) Validate() error {
	if !(o.Scale > 0 && o.Scale <= 1) {
		return fmt.Errorf("harness: scale %v out of (0, 1]", o.Scale)
	}
	if !(o.Selectivity >= 0 && o.Selectivity <= 1) {
		return fmt.Errorf("harness: selectivity %v out of [0, 1]", o.Selectivity)
	}
	if o.RecordSize < storage.MinRecordSize {
		return fmt.Errorf("harness: record size %d below minimum %d", o.RecordSize, storage.MinRecordSize)
	}
	if o.Warmup < 0 {
		return fmt.Errorf("harness: warmup %d negative", o.Warmup)
	}
	return nil
}

// DefaultOptions returns the paper's experimental setup at a
// simulation-friendly scale.
func DefaultOptions() Options {
	return Options{
		Scale:       0.01,
		RecordSize:  100,
		Selectivity: 0.10,
		Config:      xeon.DefaultConfig(),
		Warmup:      1,
	}
}

// Cell is one measured (system, query) combination.
type Cell struct {
	System    engine.System
	Query     QueryKind
	Breakdown *core.Breakdown
	Rates     xeon.HardwareRates
	Result    engine.Result
}

// Env holds the built databases and engines for one option set, so
// multiple experiments can share the (expensive) data generation.
//
// An Env is single-threaded, like the engines and pipelines under it:
// the concurrent grid gives each worker a private Env via EnvFactory.
type Env struct {
	Opts    Options
	Dims    workload.Dims
	nsm     *workload.Database
	pax     *workload.Database
	engines [4]*engine.Engine

	// memo caches measured cells at the env's own options, keyed by
	// unit key plus platform, so several figures over the same cells
	// don't re-simulate.
	memo map[CellSpec]Cell

	// subenvs caches environments rebuilt at other record sizes (the
	// record-size sweeps), keyed by record size.
	subenvs map[int]*Env

	// store is the persistent trace/tally store, nil when none is
	// configured. ownStore marks a store the env opened itself from
	// Options.StoreDir (Close flushes it); a store handed in through
	// Options.Store stays owned by the caller.
	store    *tracestore.Store
	ownStore bool

	// recordCap caps a capture bound for the store, in events:
	// DefaultMaxRecordedEvents, lowered only by tests that need every
	// capture to overflow.
	recordCap int

	// oltpBuf is the reusable emission buffer OLTP runs fill, re-bound
	// per run instead of reallocated per run.
	oltpBuf *trace.Buffer
}

// Dims returns the dataset dimensions these options build, without
// building the data.
func (o Options) Dims() workload.Dims {
	dims := workload.PaperDims()
	dims.RecordSize = o.RecordSize
	return dims.Scaled(o.Scale)
}

// NewEnv builds the two databases (row layout for systems A/C/D,
// PAX layout for the cache-conscious System B) and four engines.
func NewEnv(opts Options) (*Env, error) {
	dims := opts.Dims()

	nsm, err := workload.Build(dims, storage.NSM)
	if err != nil {
		return nil, err
	}
	if err := nsm.BuildIndexes(); err != nil {
		return nil, err
	}
	pax, err := workload.Build(dims, storage.PAX)
	if err != nil {
		return nil, err
	}
	if err := pax.BuildIndexes(); err != nil {
		return nil, err
	}
	env := &Env{Opts: opts, Dims: dims, nsm: nsm, pax: pax,
		memo: make(map[CellSpec]Cell), subenvs: make(map[int]*Env),
		recordCap: DefaultMaxRecordedEvents}
	// The unbatched reference path stays storeless: it checks the
	// batched protocol, so nothing that protocol stored may answer it.
	if !opts.Unbatched {
		if opts.Store != nil {
			env.store = opts.Store
		} else if opts.StoreDir != "" {
			store, err := tracestore.Open(opts.StoreDir)
			if err != nil {
				return nil, err
			}
			env.store = store
			env.ownStore = true
		}
	}
	for _, s := range engine.Systems() {
		env.engines[s] = engine.New(s, env.database(s).Catalog)
	}
	return env, nil
}

// database returns the database a system runs over (B gets PAX).
func (env *Env) database(s engine.System) *workload.Database {
	if engine.DefaultProfile(s).DataLayout == storage.PAX {
		return env.pax
	}
	return env.nsm
}

// Engine returns the engine for a system.
func (env *Env) Engine(s engine.System) *engine.Engine { return env.engines[s] }

// queryFor returns the SQL for a (system, query) pair, and whether the
// pair is valid (see ValidMicro).
func (env *Env) queryFor(s engine.System, q QueryKind) (string, bool) {
	if !ValidMicro(s, q) {
		return "", false
	}
	switch q {
	case SRS:
		return env.Dims.QuerySRS(env.Opts.Selectivity), true
	case IRS:
		return env.Dims.QueryIRS(env.Opts.Selectivity), true
	case SJ:
		return env.Dims.QuerySJ(), true
	case GHJ:
		return env.Dims.QueryGHJ(), true
	case SAG:
		return env.Dims.QuerySAG(env.Opts.Selectivity), true
	case BRS:
		return env.Dims.QueryBRS(env.Opts.Selectivity), true
	case JSA:
		return env.Dims.QueryJSA(), true
	case IXJ:
		return env.Dims.QueryIXJ(env.Opts.Selectivity), true
	default:
		return "", false
	}
}

// planFor builds the plan with the right physical choice for the
// query kind: SRS (and SAG, which sorts the scan's output) forces a
// sequential scan even on systems whose planner would pick the index,
// matching the paper's protocol of running query (1) before the index
// exists, and the scenario kinds pin their operator with a plan hint.
func (env *Env) planFor(s engine.System, q QueryKind, query string) (*sql.Plan, error) {
	opts := env.engines[s].PlanOptions()
	switch q {
	case SRS, SAG:
		opts.UseIndex = false
	case BRS, IXJ:
		opts.UseIndex = true
	}
	plan, err := sql.Prepare(env.database(s).Catalog, query, opts)
	if err != nil {
		return nil, err
	}
	switch q {
	case GHJ:
		plan.Hint = sql.HintGraceJoin
	case SAG:
		plan.Hint = sql.HintSortAgg
	case BRS:
		plan.Hint = sql.HintIndexOnly
	case JSA:
		plan.Hint = sql.HintJoinSortAgg
	case IXJ:
		plan.Hint = sql.HintIndexProbeJoin
	}
	return plan, nil
}

// Run measures one (system, query) cell: warm-up runs, counter reset,
// then one measured run, the warm-cache protocol of Section 4.3, every
// run executed live (see measure). Results are memoised per (system,
// query, selectivity, platform).
func (env *Env) Run(s engine.System, q QueryKind) (Cell, error) {
	return env.RunSpec(microCell(env.Opts, s, q))
}

// RunAll measures every valid (system, query) cell, scenario kinds
// included.
func (env *Env) RunAll() ([]Cell, error) {
	var cells []Cell
	for _, q := range append(append([]QueryKind{}, allQueries...), scenarioQueries...) {
		for _, s := range engine.Systems() {
			if _, ok := env.queryFor(s, q); !ok {
				continue
			}
			c, err := env.Run(s, q)
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// RunTPCD runs the 17-query decision-support suite on one system and
// returns the summed breakdown (the paper reports TPC-D averages).
// Results are memoised.
func (env *Env) RunTPCD(s engine.System) (Cell, error) {
	return env.RunSpec(CellSpec{Kind: CellTPCD, System: s})
}

// RunTPCC runs the OLTP mix on one system. Unlike the read-only
// cells, the mix mutates the database as it runs, so the warm-up slice
// and the measured mix emit different streams, and a call builds a
// fresh TPC-C database and executes both. TPC-C is not memoised (the
// memo holds no transaction statistics), so every call re-executes,
// unless a stored tally or trace answers it.
func (env *Env) RunTPCC(s engine.System, txns int) (Cell, workload.TPCCStats, error) {
	cells, stats, err := env.measure([]CellSpec{{Kind: CellTPCC, System: s, Txns: txns}})
	if err != nil {
		return Cell{}, stats, err
	}
	return cells[0], stats, nil
}

// ctxErr reports the environment's cancellation state: nil without a
// context (or before cancellation), an error wrapping ctx.Err() after.
// It is the check every between-units and between-passes barrier
// makes; the wrapped error satisfies errors.Is(err, context.Canceled)
// or (err, context.DeadlineExceeded).
func (env *Env) ctxErr() error {
	if ctx := env.Opts.Context; ctx != nil {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("harness: cancelled: %w", err)
		}
	}
	return nil
}

// newRecorder returns a recorder capturing the sink's input for the
// store, or nil when the env has no store: a capture exists only to be
// stored.
func (env *Env) newRecorder(sink trace.Processor) *trace.Recorder {
	if env.store == nil {
		return nil
	}
	return trace.NewRecorder(sink, env.recordCap)
}

// captured returns a recorder's complete capture: nil when there was
// no recorder or its stream overflowed the cap (an overflowed recorder
// has already released what it held).
func captured(rec *trace.Recorder) *trace.Recording {
	if rec == nil {
		return nil
	}
	return rec.Recording()
}

// sink returns what a live pass emits into: the recorder capturing it
// in flight, else the gang itself — through the one-call-per-event
// reference wrapper when the options ask for the unbatched path.
func (env *Env) sink(rec *trace.Recorder, multi *xeon.MultiPipeline) trace.Processor {
	switch {
	case rec != nil:
		return rec
	case env.Opts.Unbatched:
		return trace.Unbatched{Processor: multi}
	default:
		return multi
	}
}

// passes is the number of identical passes a cell kind's protocol
// runs, the measured pass last: Options.Warmup warm-up runs plus one
// for a micro query; one warm-up pass plus one for the TPC-D suite,
// independent of Options.Warmup; a single measured mix for TPC-C,
// whose warm-up is the distinct slice run before it (see source).
func (env *Env) passes(kind CellKind) int {
	switch kind {
	case CellMicro:
		return env.Opts.Warmup + 1
	case CellTPCD:
		return 2
	default:
		return 1
	}
}

// source is one cell kind's workload: what the protocol executes when
// no stored trace answers the unit. Everything else — tallies,
// captures, stored-trace replay — is common to every kind and lives in
// measure.
type source struct {
	// warm, when set, is a distinct warm-up phase run once before the
	// passes: TPC-C's slice of the mix, which mutates the database the
	// measured mix then runs over.
	warm func(sink trace.Processor) error
	// pass emits one pass into sink and fills in the results replay
	// cannot recompute. Micro and TPC-D passes start from reset engine
	// state, so every pass emits the byte-identical stream — a pure
	// function of the unit key — and a stored capture of the first
	// replays exactly on another platform.
	pass func(sink trace.Processor, out *cellTrace) error
}

// newSource builds the unit's workload: a micro query's plan, the
// 17-query TPC-D suite, or a freshly built TPC-C database whose mix
// emits through the env's reusable buffer (re-bound per phase, never
// reallocated).
func (env *Env) newSource(key CellSpec) (source, error) {
	s := key.System
	switch key.Kind {
	case CellMicro:
		query, ok := env.queryFor(s, key.Query)
		if !ok {
			return source{}, fmt.Errorf("harness: system %s does not run %s", s, key.Query)
		}
		plan, err := env.planFor(s, key.Query, query)
		if err != nil {
			return source{}, err
		}
		e := env.engines[s]
		return source{pass: func(sink trace.Processor, out *cellTrace) (err error) {
			e.ResetState()
			out.result, err = e.Run(plan, sink)
			return err
		}}, nil
	case CellTPCD:
		e, queries := env.engines[s], env.Dims.TPCDQueries()
		return source{pass: func(sink trace.Processor, _ *cellTrace) error {
			e.ResetState()
			for _, q := range queries {
				if _, err := e.Query(q, sink); err != nil {
					return err
				}
			}
			return nil
		}}, nil
	case CellTPCC:
		db, err := workload.BuildTPCC(workload.DefaultTPCCDims())
		if err != nil {
			return source{}, err
		}
		e := engine.New(s, db.Catalog)
		mix := func(sink trace.Processor, txns int) (workload.TPCCStats, error) {
			buf := env.emitBuffer(sink)
			stats, err := workload.RunTPCC(db, e, buf, txns)
			if err == nil {
				buf.Flush()
			}
			return stats, err
		}
		return source{
			warm: func(sink trace.Processor) error {
				_, err := mix(sink, key.Txns/4+1)
				return err
			},
			pass: func(sink trace.Processor, out *cellTrace) (err error) {
				out.stats, err = mix(sink, key.Txns)
				return err
			},
		}, nil
	default:
		return source{}, fmt.Errorf("harness: unknown cell kind %d", key.Kind)
	}
}

// emitBuffer returns the env's reusable emission buffer bound to sink
// (allocating it on first use), the fix for per-run flush-path churn:
// OLTP runs used to allocate a fresh buffer per phase per call.
func (env *Env) emitBuffer(sink trace.Processor) *trace.Buffer {
	if env.oltpBuf == nil {
		env.oltpBuf = trace.NewBuffer(sink, 0)
	} else {
		env.oltpBuf.Bind(sink)
	}
	return env.oltpBuf
}

// measure runs the Section 4.3 protocol for one work unit: cells that
// share an emission key and differ only in platform, measured together
// on one xeon.MultiPipeline — a single cell is a gang of one. One pass
// over the unit's stream feeds all K configurations, so the engine
// executes (or the stored trace is read) once instead of K times.
// Every cell kind takes the same steps, in this order: memo or tally
// lookup; a stored trace, replayed (see drainWarm); otherwise every
// pass executed live, the first captured for the store (see execute);
// the cells finished; the tallies put. The kinds differ only in what a
// pass emits (see source).
func (env *Env) measure(unit []CellSpec) ([]Cell, workload.TPCCStats, error) {
	if err := env.ctxErr(); err != nil {
		return nil, workload.TPCCStats{}, err
	}
	if unit[0].Kind == CellMicro {
		target, err := env.microTarget(unit[0])
		if err != nil {
			return nil, workload.TPCCStats{}, err
		}
		env = target
	}
	key := unitKey(env.Opts, unit[0])
	cfgs := make([]xeon.Config, len(unit))
	for i := range unit {
		cfgs[i] = env.configFor(unit[i])
	}
	if cells, stats, ok := env.recall(key, cfgs); ok {
		return cells, stats, nil
	}

	multi := xeon.NewMulti(cfgs)
	ct, ok := env.loadStoredTrace(key)
	if ok {
		drainWarm(multi, ct, env.passes(key.Kind))
		ct.release()
	} else {
		var err error
		if ct, err = env.execute(multi, key); err != nil {
			return nil, workload.TPCCStats{}, err
		}
	}

	cells := make([]Cell, len(unit))
	for i := range unit {
		pipe := multi.Pipe(i)
		b := pipe.Breakdown()
		if err := b.Validate(); err != nil {
			return nil, workload.TPCCStats{}, fmt.Errorf("harness: %s breakdown invalid: %w", unit[i], err)
		}
		cells[i] = Cell{System: key.System, Query: key.Query, Breakdown: b, Rates: pipe.Rates(), Result: ct.result}
	}
	for i, cfg := range cfgs {
		env.remember(key, cfg, cells[i])
		env.putTally(key, cfg, cells[i], ct.stats)
	}
	return cells, ct.stats, nil
}

// execute runs the unit's workload live, every configuration draining
// the one emitted stream: the warm phase (if any), then every pass
// from reset engine state, the counters reset before the measured
// one. With a store, the warm phase and the first pass are captured in
// flight, and the capture is written and released straight after that
// pass (see putStoredTrace), so no later pass and no cancellation
// barrier ever holds trace buffers. The context is checked between
// passes. The returned cellTrace carries the results; its streams are
// always nil.
func (env *Env) execute(multi *xeon.MultiPipeline, key CellSpec) (*cellTrace, error) {
	src, err := env.newSource(key)
	if err != nil {
		return nil, err
	}
	out := &cellTrace{}
	var rec *trace.Recorder
	if src.warm != nil {
		warmRec := env.newRecorder(multi)
		if err := src.warm(env.sink(warmRec, multi)); err != nil {
			return nil, err
		}
		// A capture needs every phase: the pass is only worth recording
		// if the warm phase fit the cap.
		if out.warm = captured(warmRec); out.warm != nil {
			rec = env.newRecorder(multi)
		}
	} else {
		rec = env.newRecorder(multi)
	}
	passes := env.passes(key.Kind)
	for i := 0; i < passes; i++ {
		if i > 0 {
			if err := env.ctxErr(); err != nil {
				return nil, err
			}
		}
		if i == passes-1 {
			multi.ResetStats()
		}
		if err := src.pass(env.sink(rec, multi), out); err != nil {
			return nil, err
		}
		if i == 0 {
			if out.stream = captured(rec); out.stream != nil {
				env.putStoredTrace(key, out)
			}
			out.release()
			rec = nil
		}
	}
	return out, nil
}
