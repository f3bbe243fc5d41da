package harness

// This file is the warm-start layer: everything that lets a grid cell
// skip work a previous measurement already did, at three depths.
//
//  1. Snapshot memo (in-process). After a cell's warm-up drains, the
//     pipeline's complete simulated state (xeon.State) is memoized per
//     (emission key, platform config). A revisit restores the state
//     and runs only the measured drain — the warm-up passes become a
//     handful of memcpys. On top of that, consecutive warm-up drains
//     are compared for a fixed point: once the state stops changing,
//     further warm-up passes are provably no-ops and stop early.
//  2. Trace store (on disk). Captured streams persist as
//     content-addressed files (tracestore.PutTrace) with a small ref
//     entry carrying what replay cannot recompute; a fresh process
//     replays from disk instead of re-executing the engine.
//  3. Tally store (on disk). The finished breakdown of a cell —
//     counts, cycle components (as float bits, so the round trip is
//     exact), rates, result — persists keyed by (unit key, scale,
//     config, warm-up count). A warm process skips the simulation
//     entirely.
//
// Every shortcut reproduces the Section 4.3 protocol bit-for-bit: the
// golden suite renders the grid with snapshotting on and off, and with
// the store cold, warm and absent, against the same committed files.
// Store keys fold in engine.StreamSchema(), so a store populated by
// one emission schema is never consulted by another.

import (
	"encoding/json"
	"fmt"
	"math"

	"wheretime/internal/core"
	"wheretime/internal/engine"
	"wheretime/internal/tracestore"
	"wheretime/internal/workload"
	"wheretime/internal/xeon"
)

// snapMemoCap bounds the per-worker snapshot memo. A State is ~150 KB
// at the default geometry, so the cap keeps the memo's footprint in
// the tens of megabytes, in line with the trace cache budget.
const snapMemoCap = 128

// snapKey identifies a post-warm-up pipeline state: the emission key
// names the stream that warmed the pipeline, the config names the
// platform it warmed. A pipe's state after warm-up does not depend on
// the gang it was drained in, so gangs of any width share entries.
type snapKey struct {
	spec CellSpec
	cfg  xeon.Config
}

// snapMemo holds memoized post-warm-up states with insertion-order
// eviction. Like the trace cache, it belongs to one worker goroutine.
type snapMemo struct {
	limit int
	order []snapKey
	m     map[snapKey]*xeon.State
}

func newSnapMemo(limit int) *snapMemo {
	return &snapMemo{limit: limit, m: make(map[snapKey]*xeon.State)}
}

func (sm *snapMemo) lookup(k snapKey) *xeon.State {
	if sm == nil {
		return nil
	}
	return sm.m[k]
}

func (sm *snapMemo) store(k snapKey, st *xeon.State) {
	if sm == nil || st == nil {
		return
	}
	if _, ok := sm.m[k]; ok {
		sm.m[k] = st
		return
	}
	for len(sm.order) >= sm.limit {
		oldest := sm.order[0]
		sm.order = sm.order[1:]
		delete(sm.m, oldest)
	}
	sm.m[k] = st
	sm.order = append(sm.order, k)
}

// snapshotOn reports whether the snapshot layer is active: it requires
// both the option and recording (a snapshot is only sound when every
// warm-up pass drains the identical recorded stream; the re-execution
// fallback paths never consult it).
func (env *Env) snapshotOn() bool { return env.snaps != nil }

// keyMaterial builds the index-key material for one stored artifact.
// Every key folds in the emission schema token, so a store written by
// one engine version is a clean miss for any other, and the dataset
// scale, which shapes every stream without being part of any spec.
// Config-dependent artifacts (tallies, snapshots) also fold in the
// platform and the warm-up count; trace refs deliberately do not — the
// stream is a pure function of the emission key and scale, which is
// the whole point of gangs.
//
// The emission-key fields are spelled out one by one — never through
// CellSpec.String, whose diagnostic rendering drops workload fields
// for some kinds and would collide distinct specs onto one key
// (FuzzGangKeyCompat hunts exactly this). Scale and selectivity fold
// in as their IEEE-754 bits so the material is injective over
// distinct floats.
func keyMaterial(kind string, spec CellSpec, scale float64, cfg *xeon.Config, warmup int) string {
	e := emissionKey(spec)
	mat := fmt.Sprintf("wheretime|%s|schema=%s|scalebits=%x|spec=kind=%d,sys=%d,q=%d,selbits=%x,rec=%d,txns=%d",
		kind, engine.StreamSchema(), math.Float64bits(scale), e.Kind, e.System, e.Query,
		math.Float64bits(e.Selectivity), e.RecordSize, e.Txns)
	if cfg != nil {
		mat = fmt.Sprintf("%s|cfg=%+v|warmup=%d", mat, *cfg, warmup)
	}
	return mat
}

// storeKey derives the index key for one stored artifact under this
// environment's options.
func (env *Env) storeKey(kind string, spec CellSpec, cfg *xeon.Config) string {
	return tracestore.KeyHash(keyMaterial(kind, spec, env.Opts.Scale, cfg, env.Opts.Warmup))
}

// TallyKey returns the persistent-store index key under which the
// finished tally of spec lives when measured at opts — the same key
// the warm-start layer reads and writes, derived from the same
// material. It identifies one fully costed measurement: the unit key
// (a TPC-D spec resolves to the options' record size, see unitKey),
// platform configuration (the spec's, or the options' when the spec
// leaves it zero), scale, warm-up count and emission schema. The
// wheretimed service coalesces identical in-flight requests on it.
func TallyKey(opts Options, spec CellSpec) string {
	cfg := spec.Config
	if cfg == (xeon.Config{}) {
		cfg = opts.Config
	}
	return tracestore.KeyHash(keyMaterial("tally", unitKey(opts, spec), opts.Scale, &cfg, opts.Warmup))
}

// LookupTally answers spec from the stored tally alone: the entry
// TallyKey names in opts.Store, decoded and validated exactly as a
// measurement's own tally lookup would, with no environment built and
// nothing simulated. It misses without an open handle in opts.Store
// (it never opens opts.StoreDir) or with recording off, where Measure
// never consults the store either, and wherever the entry is absent or
// undecodable; the caller then measures as usual. A hit is the cell
// Measure returns for spec, bit for bit. The wheretimed service answers
// repeat requests through it before any batching or worker machinery.
func LookupTally(opts Options, spec CellSpec) (Cell, bool) {
	if opts.Store == nil || opts.maxRecorded() < 0 {
		return Cell{}, false
	}
	cell, _, ok := lookupTally(opts.Store, TallyKey(opts, spec), unitKey(opts, spec))
	return cell, ok
}

// GangKey returns the batching key under which distinct cells may
// share one gang work unit: the platform-free half of the tally key —
// emission key, scale, warm-up count and emission schema, everything
// except the platform configuration. Two specs with equal gang keys
// emit the identical event stream under the identical protocol, so a
// multi-config drain may measure them together (MeasureGang); specs
// with different gang keys must never share a gang, which
// FuzzGangKeyCompat pins from random spec pairs. The wheretimed
// batcher accumulates compatible requests on this key.
func GangKey(opts Options, spec CellSpec) string {
	return tracestore.KeyHash(fmt.Sprintf("%s|warmup=%d", keyMaterial("gang", spec, opts.Scale, nil, 0), opts.Warmup))
}

// drainWarm finishes the Section 4.3 protocol from a capture on a
// gang: the warm phase (TPC-C's slice; on the cold path it already ran
// live), passes-1 warm-up drains of the stream, ResetStats, one
// measured drain — with done passes already performed live by the
// caller (1 on the cold path, whose first pass was captured in flight;
// 0 on a capture hit). With the snapshot layer on, memoized
// post-warm-up states replace the whole warm-up with one restore; and
// each warm-up drain's state is compared with the previous one, so a
// fixed point stops warm-up early — every further pass is provably a
// no-op because the next drain's outcome depends only on this state.
// Either shortcut leaves every pipe exactly where the full protocol
// would; the golden suite pins this across every leg.
func (env *Env) drainWarm(multi *xeon.MultiPipeline, ct *cellTrace, spec CellSpec, cfgs []xeon.Config, passes, done int) {
	if done >= passes {
		return
	}
	snap := env.snapshotOn() && (passes > 1 || ct.warm != nil)
	if !snap || !env.restoreAll(multi, spec, cfgs) {
		if ct.warm != nil {
			ct.warm.Drain(multi)
		}
		var prev, cur *xeon.MultiState
		for i := done; i < passes-1; i++ {
			ct.stream.Drain(multi)
			if !snap {
				continue
			}
			cur = multi.Snapshot(cur)
			if cur.Equal(prev) {
				break // fixed point: the remaining warm-up passes are no-ops
			}
			prev, cur = cur, prev
		}
		if snap {
			env.snapStoreAll(spec, cfgs, multi.Snapshot(prev))
		}
	}
	multi.ResetStats()
	ct.stream.Drain(multi)
}

// restoreAll brings every pipe of the gang to its memoized
// post-warm-up state — from the in-process memo, else the store — and
// reports whether it did. It is all-or-nothing: one missing state, or
// a geometry mismatch anywhere (RestoreStates checks the whole gang
// before touching any pipe), leaves the gang untouched and falls back
// to draining. Only called on the snapshot path.
func (env *Env) restoreAll(multi *xeon.MultiPipeline, spec CellSpec, cfgs []xeon.Config) bool {
	states := make([]*xeon.State, len(cfgs))
	for i, cfg := range cfgs {
		k := snapKey{spec: emissionKey(spec), cfg: cfg}
		if states[i] = env.snaps.lookup(k); states[i] != nil {
			continue
		}
		if env.store == nil {
			return false
		}
		key := env.storeKey("snap", spec, &cfg)
		blob, ok := env.store.GetEntry(key)
		if !ok {
			return false
		}
		st := &xeon.State{}
		if st.UnmarshalBinary(blob) != nil {
			// A corrupt snapshot blob is a miss too: drop it so the
			// recompute's snapshot replaces it.
			env.store.DropEntry(key)
			return false
		}
		env.snaps.store(k, st)
		states[i] = st
	}
	return multi.RestoreStates(states) == nil
}

// snapStoreAll memoizes each configuration's post-warm-up state under
// its per-config key — a pipe's state after warm-up does not depend on
// the gang it was drained in — and persists it when a store is
// attached. The states must not be mutated afterwards.
func (env *Env) snapStoreAll(spec CellSpec, cfgs []xeon.Config, st *xeon.MultiState) {
	if env.snaps == nil {
		return
	}
	for i, cfg := range cfgs {
		env.snaps.store(snapKey{spec: emissionKey(spec), cfg: cfg}, st.At(i))
		if env.store != nil {
			if blob, err := st.At(i).MarshalBinary(); err == nil {
				env.store.PutEntry(env.storeKey("snap", spec, &cfg), blob)
			}
		}
	}
}

// tallyVersion tags the storedTally JSON layout; traceRefVersion the
// storedTraceRef layout. A version bump is a clean cache miss.
const (
	tallyVersion    = 1
	traceRefVersion = 1
)

// storedRates is xeon.HardwareRates with the float fields as IEEE-754
// bits, so the stored tally round-trips exactly.
type storedRates struct {
	FloatBits     [8]uint64 `json:"floatBits"`
	L2Writebacks  uint64    `json:"l2wb"`
	L1DWritebacks uint64    `json:"l1dwb"`
}

func packRates(r xeon.HardwareRates) storedRates {
	return storedRates{
		FloatBits: [8]uint64{
			math.Float64bits(r.L1IMissRate), math.Float64bits(r.L1DMissRate),
			math.Float64bits(r.L2MissRate), math.Float64bits(r.ITLBMissRate),
			math.Float64bits(r.DTLBMissRate), math.Float64bits(r.BTBMissRate),
			math.Float64bits(r.MispredictRate), math.Float64bits(r.TakenBranchFrac),
		},
		L2Writebacks:  r.L2Writebacks,
		L1DWritebacks: r.L1DWritebacks,
	}
}

func unpackRates(s storedRates) xeon.HardwareRates {
	return xeon.HardwareRates{
		L1IMissRate:     math.Float64frombits(s.FloatBits[0]),
		L1DMissRate:     math.Float64frombits(s.FloatBits[1]),
		L2MissRate:      math.Float64frombits(s.FloatBits[2]),
		ITLBMissRate:    math.Float64frombits(s.FloatBits[3]),
		DTLBMissRate:    math.Float64frombits(s.FloatBits[4]),
		BTBMissRate:     math.Float64frombits(s.FloatBits[5]),
		MispredictRate:  math.Float64frombits(s.FloatBits[6]),
		TakenBranchFrac: math.Float64frombits(s.FloatBits[7]),
		L2Writebacks:    s.L2Writebacks,
		L1DWritebacks:   s.L1DWritebacks,
	}
}

// storedTally is a finished cell: everything Run returns, floats as
// bits (Value can be NaN — aggregate over no rows — which plain JSON
// cannot carry).
type storedTally struct {
	Version   int                 `json:"v"`
	Counts    core.Counts         `json:"counts"`
	CycleBits []uint64            `json:"cycleBits"`
	Rates     storedRates         `json:"rates"`
	ValueBits uint64              `json:"valueBits"`
	Rows      uint64              `json:"rows"`
	Stats     *workload.TPCCStats `json:"stats,omitempty"`
}

// lookupTally reconstructs the finished cell of unit key spec from the
// store entry under key. Any decode problem — wrong version, wrong
// shape, a breakdown that fails Validate, a TPC-C tally without its
// transaction statistics — is a miss, never an error: the blob is
// dropped from the store and the cell is simply recomputed, so the
// recompute's tally replaces it.
func lookupTally(store *tracestore.Store, key string, spec CellSpec) (cell Cell, stats workload.TPCCStats, ok bool) {
	if store == nil {
		return
	}
	blob, hit := store.GetEntry(key)
	if !hit {
		return
	}
	var t storedTally
	if err := json.Unmarshal(blob, &t); err != nil || t.Version != tallyVersion ||
		len(t.CycleBits) != len(core.Breakdown{}.Cycles) || (spec.Kind == CellTPCC && t.Stats == nil) {
		store.DropEntry(key)
		return
	}
	b := &core.Breakdown{Counts: t.Counts}
	for i, bits := range t.CycleBits {
		b.Cycles[i] = math.Float64frombits(bits)
	}
	if err := b.Validate(); err != nil {
		store.DropEntry(key)
		return
	}
	if t.Stats != nil {
		stats = *t.Stats
	}
	return Cell{System: spec.System, Query: spec.Query, Breakdown: b, Rates: unpackRates(t.Rates),
		Result: engine.Result{Value: math.Float64frombits(t.ValueBits), Rows: t.Rows}}, stats, true
}

// putTally persists a finished cell, with the transaction statistics
// when it is a TPC-C cell.
func (env *Env) putTally(spec CellSpec, cfg xeon.Config, cell Cell, stats workload.TPCCStats) {
	if env.store == nil {
		return
	}
	t := storedTally{
		Version:   tallyVersion,
		Counts:    cell.Breakdown.Counts,
		CycleBits: make([]uint64, len(cell.Breakdown.Cycles)),
		Rates:     packRates(cell.Rates),
		ValueBits: math.Float64bits(cell.Result.Value),
		Rows:      cell.Result.Rows,
	}
	if spec.Kind == CellTPCC {
		t.Stats = &stats
	}
	for i, c := range cell.Breakdown.Cycles {
		t.CycleBits[i] = math.Float64bits(c)
	}
	blob, err := json.Marshal(t)
	if err != nil {
		return
	}
	env.store.PutEntry(env.storeKey("tally", spec, &cfg), blob)
}

// recall returns the unit's finished cells without simulating: each
// member from the env's memo, else from its stored tally. It is
// all-or-nothing, so a partial hit still measures the unit in one pass
// rather than mixing recalled and simulated cells.
func (env *Env) recall(key CellSpec, cfgs []xeon.Config) ([]Cell, workload.TPCCStats, bool) {
	cells := make([]Cell, len(cfgs))
	var stats workload.TPCCStats
	for i, cfg := range cfgs {
		c, ok := env.memo[memoKey(key, cfg)]
		if !ok {
			if c, stats, ok = lookupTally(env.store, env.storeKey("tally", key, &cfg), key); !ok {
				return nil, stats, false
			}
			env.remember(key, cfg, c)
		}
		cells[i] = c
	}
	return cells, stats, true
}

// remember memoises a finished cell. TPC-C is not memoised: its
// revisits replay the cached capture instead.
func (env *Env) remember(key CellSpec, cfg xeon.Config, c Cell) {
	if key.Kind != CellTPCC {
		env.memo[memoKey(key, cfg)] = c
	}
}

// memoKey is the memo's key for one member of a unit: the unit key
// with the member's platform.
func memoKey(key CellSpec, cfg xeon.Config) CellSpec {
	key.Config = cfg
	return key
}

// storedTraceRef is the index entry binding a cell's emission key to
// its content-addressed stream(s), plus the execution results replay
// cannot recompute. TPC-C refs carry a second digest (the warm slice)
// and the transaction statistics.
type storedTraceRef struct {
	Version    int                 `json:"v"`
	Digest     string              `json:"digest"`
	WarmDigest string              `json:"warmDigest,omitempty"`
	ValueBits  uint64              `json:"valueBits"`
	Rows       uint64              `json:"rows"`
	Stats      *workload.TPCCStats `json:"stats,omitempty"`
}

// putStoredTrace persists a cell capture: stream (and warm slice) as
// trace files, plus the ref entry. Write errors are swallowed — the
// store is a cache; the measurement that produced the capture stands.
func (env *Env) putStoredTrace(spec CellSpec, ct *cellTrace) {
	if env.store == nil {
		return
	}
	digest, err := env.store.PutTrace(ct.stream)
	if err != nil {
		return
	}
	ref := storedTraceRef{Version: traceRefVersion, Digest: digest,
		ValueBits: math.Float64bits(ct.result.Value), Rows: ct.result.Rows}
	if ct.warm != nil {
		wd, err := env.store.PutTrace(ct.warm)
		if err != nil {
			return
		}
		ref.WarmDigest = wd
	}
	if spec.Kind == CellTPCC {
		stats := ct.stats
		ref.Stats = &stats
	}
	blob, err := json.Marshal(ref)
	if err != nil {
		return
	}
	env.store.PutEntry(env.storeKey("trace", spec, nil), blob)
}

// loadStoredTrace fetches a persisted capture. Like lookupTally, every
// decode problem is a miss, and a ref blob that fails to decode is
// dropped so the recompute's ref replaces it. A ref whose trace files
// went missing or corrupt, or whose stream exceeds this run's
// recording cap, keeps its entry (the store quarantines a corrupt
// file itself): whatever loaded is released and the cell recomputes.
func (env *Env) loadStoredTrace(spec CellSpec) (*cellTrace, bool) {
	if env.store == nil {
		return nil, false
	}
	key := env.storeKey("trace", spec, nil)
	blob, ok := env.store.GetEntry(key)
	if !ok {
		return nil, false
	}
	var ref storedTraceRef
	if err := json.Unmarshal(blob, &ref); err != nil || ref.Version != traceRefVersion ||
		(spec.Kind == CellTPCC && (ref.Stats == nil || ref.WarmDigest == "")) {
		env.store.DropEntry(key)
		return nil, false
	}
	stream, err := env.store.GetTrace(ref.Digest)
	if err != nil || stream == nil {
		return nil, false
	}
	if stream.Len() > env.Opts.maxRecorded() {
		// Stored under a larger recording cap than this run allows.
		stream.Release()
		return nil, false
	}
	ct := &cellTrace{stream: stream,
		result: engine.Result{Value: math.Float64frombits(ref.ValueBits), Rows: ref.Rows}}
	if ref.WarmDigest != "" {
		warm, err := env.store.GetTrace(ref.WarmDigest)
		if err != nil || warm == nil {
			stream.Release()
			return nil, false
		}
		ct.warm = warm
	}
	if spec.Kind == CellTPCC {
		ct.stats = *ref.Stats
	}
	return ct, true
}

// cellStream returns the capture for spec from the worker's in-memory
// cache, or loads it from the persistent store. fromStore tells the
// caller to file the capture into the in-memory cache once done
// draining it — insertion can evict-and-release immediately when the
// capture exceeds the budget, so it must happen after the last use.
func (env *Env) cellStream(spec CellSpec) (ct *cellTrace, fromStore bool) {
	if ct, ok := env.traces.lookup(spec); ok {
		return ct, false
	}
	if ct, ok := env.loadStoredTrace(spec); ok {
		return ct, true
	}
	return nil, false
}

// Close tears an environment down: the retained captures of the trace
// cache are released back to the shared free lists (sub-environments
// alias the same cache, so one drop covers them), and when the env
// owns its store (built from Options.StoreDir rather than handed an
// open handle), the staged index entries are flushed to disk. The env
// stays usable afterwards — recording is simply off, every run
// re-executes — but callers should treat Close as the end of its
// life. Safe on an env without a store, and safe to call twice.
func (env *Env) Close() error {
	if env.traces != nil {
		env.traces.drop()
		env.traces = nil
		for _, sub := range env.subenvs {
			sub.traces = nil
		}
	}
	if env.store != nil && env.ownStore {
		return env.store.Flush()
	}
	return nil
}
