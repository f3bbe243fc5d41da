package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"wheretime/internal/engine"
	"wheretime/internal/fanout"
	"wheretime/internal/harness"
	"wheretime/internal/trace"
	"wheretime/internal/xeon"
)

// gridExperiments is grid-cold's share of the registered grid: every
// experiment except fig5.6 and fig5.7 (which add TPC-D on System A) and
// the costly scenarios ghj, sortagg and joinsort, which together would
// push one pass past the run length. It keeps the micro grid, both
// sweeps, TPC-C, the cheap scenarios and the claims check, whose TPC-D
// cells on B and D are the streams past the recording cap.
var gridExperiments = []string{
	"fig5.1", "fig5.2", "fig5.3", "fig5.4a", "fig5.4b", "fig5.5",
	"recsize", "tpcc", "btree", "idxjoin", "claims",
}

// gridWorkers is the grid's worker count: the two CPUs of the host the
// sizing was measured on, fixed so the load does not depend on nproc.
const gridWorkers = 2

// gridPass is one measured pass over the grid.
type gridPass struct {
	wall   time.Duration
	cells  int
	digest string
	render map[string]string // experiment name -> rendered output
}

// gridSlice is the part of the grid the traced serve-sweep run measures
// unit by unit (the micro grid and TPC-C), so that harness work units
// and fanout straggling are measured on a workload BENCHMARK.json runs.
var gridSlice = []string{"fig5.1", "tpcc"}

func findExps(names []string) ([]harness.Experiment, error) {
	exps := make([]harness.Experiment, len(names))
	for i, name := range names {
		e, err := harness.Find(name)
		if err != nil {
			return nil, err
		}
		exps[i] = e
	}
	return exps, nil
}

// gridSpecs is the experiments' cell list, deduplicated in first-seen
// order exactly as the harness schedules it.
func gridSpecs(opts harness.Options, exps []harness.Experiment) []harness.CellSpec {
	seen := make(map[harness.CellSpec]bool)
	var specs []harness.CellSpec
	for _, e := range exps {
		for _, s := range e.Cells(opts) {
			if !seen[s] {
				seen[s] = true
				specs = append(specs, s)
			}
		}
	}
	return specs
}

// measureGrid runs one pass the way harness.RunExperimentsContext does
// (MeasureContext over the union of cells, then every Render), spelled
// out so the measured cells stay available for the counter digest.
func measureGrid(opts harness.Options, exps []harness.Experiment) (gridPass, error) {
	start := time.Now()
	var all []harness.CellSpec
	for _, e := range exps {
		all = append(all, e.Cells(opts)...)
	}
	res, err := harness.MeasureContext(context.Background(), opts, all, gridWorkers)
	if err != nil {
		return gridPass{}, err
	}
	render := make(map[string]string, len(exps))
	for _, e := range exps {
		tables, err := e.Render(opts, res)
		if err != nil {
			return gridPass{}, fmt.Errorf("%s: %w", e.Name, err)
		}
		render[e.Name] = renderExperiment(e, tables)
	}
	wall := time.Since(start)
	specs := gridSpecs(opts, exps)
	cells := make(map[harness.CellSpec]harness.Cell, len(specs))
	for _, s := range specs {
		c, err := res.Get(s)
		if err != nil {
			return gridPass{}, err
		}
		cells[s] = c
	}
	digest, err := cellDigest(specs, cells)
	if err != nil {
		return gridPass{}, err
	}
	return gridPass{wall: wall, cells: len(specs), digest: digest, render: render}, nil
}

// renderExperiment lays out an experiment's tables exactly as the
// golden files under internal/harness/testdata hold them.
func renderExperiment(e harness.Experiment, tables []harness.Table) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s — %s ==\n\n", e.Name, e.Paper)
	for _, t := range tables {
		sb.WriteString(t.Render())
		sb.WriteString("\n")
	}
	return sb.String()
}

// cellDigest hashes every simulated counter of every cell, in spec
// order: the stall cycles, the raw event counts, the hardware rates and
// the query result, floats as their IEEE-754 bits.
func cellDigest(specs []harness.CellSpec, cells map[harness.CellSpec]harness.Cell) (string, error) {
	h := sha256.New()
	for _, s := range specs {
		c, ok := cells[s]
		if !ok {
			return "", fmt.Errorf("cell %s was not measured", s)
		}
		fmt.Fprintf(h, "%s|", s)
		for _, v := range []any{c.Breakdown.Cycles, c.Breakdown.Counts, c.Rates,
			math.Float64bits(c.Result.Value), c.Result.Rows} {
			if err := binary.Write(h, binary.LittleEndian, v); err != nil {
				return "", err
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkGrid checks one pass: every rendered experiment byte-equal to
// its committed golden file, every headline claim holding, and the
// counter digest equal to the first pass's and to the reference this
// benchmark binary stored on its first run in this checkout.
func checkGrid(e *env, exps []harness.Experiment, p gridPass, first string, o *outcome) error {
	for _, x := range exps {
		o.attempted++
		want, err := os.ReadFile(filepath.Join(e.root, "internal", "harness", "testdata", x.Name+".golden"))
		if err != nil {
			return err
		}
		if p.render[x.Name] != string(want) {
			o.fail(e, "%s differs from its golden file", x.Name)
		}
	}
	claims := 0
	for _, line := range strings.Split(p.render["claims"], "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || !strings.HasPrefix(f[0], "C") || len(f[0]) > 3 {
			continue
		}
		claims++
		o.attempted++
		if f[len(f)-1] != "yes" {
			o.fail(e, "claim %s does not hold: %s", f[0], line)
		}
	}
	if claims == 0 {
		o.fail(e, "no claims verdicts rendered")
	}
	o.attempted++
	if first != "" && p.digest != first {
		o.fail(e, "counter digest %s differs from this run's first pass %s", p.digest, first)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	id, err := fileDigest(exe)
	if err != nil {
		return err
	}
	same, err := checkReference(e, "grid-cold-digest-"+id, []byte(p.digest))
	if err != nil {
		return err
	}
	if !same {
		o.fail(e, "counter digest %s differs from an earlier run's", p.digest)
	}
	return nil
}

// gridSetup is grid-cold's set-up: building one worker environment
// (both databases and their indexes), the work every grid worker does
// before its first cell. It is measured five times; the median counts.
func gridSetup(opts harness.Options) (float64, error) {
	var secs []float64
	for range 5 {
		start := time.Now()
		env, err := harness.NewEnv(opts)
		if err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		env.Close()
	}
	return median(secs), nil
}

// runGridPasses measures passes until the next one would overrun the
// run length (at least one), checking each. It returns the pass wall
// times and the cells measured by passes that passed every check.
func runGridPasses(e *env, exps []harness.Experiment, o *outcome) (walls []float64, good int, err error) {
	opts := harness.DefaultOptions()
	budget := time.Duration(e.seconds) * time.Second
	start := time.Now()
	first := ""
	for {
		p, err := measureGrid(opts, exps)
		if err != nil {
			return nil, 0, err
		}
		o.attempted += p.cells
		failed := o.failed
		if err := checkGrid(e, exps, p, first, o); err != nil {
			return nil, 0, err
		}
		if o.failed == failed {
			good += p.cells
		}
		if first == "" {
			first = p.digest
		}
		walls = append(walls, p.wall.Seconds())
		fmt.Fprintf(e.out, "grid pass %d: %d cells in %.3f s, digest %s\n", len(walls), p.cells, p.wall.Seconds(), p.digest[:16])
		if time.Since(start)+p.wall > budget {
			return walls, good, nil
		}
	}
}

func runGridCold(e *env) (*outcome, error) {
	exps, err := findExps(gridExperiments)
	if err != nil {
		return nil, err
	}
	o := &outcome{metrics: map[string]float64{}}
	setup, err := gridSetup(harness.DefaultOptions())
	if err != nil {
		return nil, err
	}
	walls, good, err := runGridPasses(e, exps, o)
	if err != nil {
		return nil, err
	}
	total := 0.0
	for _, w := range walls {
		total += w
	}
	p, beyond := tailRule(len(walls))
	fmt.Fprintf(e.out, "grid-cold: %d passes, tail = p%g with %d beyond\n", len(walls), p, beyond)
	o.metrics["setup_s"] = setup
	o.metrics["wall_s"] = median(walls)
	o.metrics["latency_p50_ms"] = 1000 * median(walls)
	o.metrics["latency_tail_ms"] = 1000 * percentile(walls, p)
	o.metrics["goodput_rps"] = float64(good) / total
	return o, nil
}

// gridUnits partitions specs into gang work units the way the harness
// scheduler does: cells that differ only in platform share one unit.
func gridUnits(specs []harness.CellSpec) [][]harness.CellSpec {
	var order []harness.CellSpec
	groups := make(map[harness.CellSpec][]harness.CellSpec)
	for _, s := range specs {
		k := s
		k.Config = xeon.Config{}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], s)
	}
	units := make([][]harness.CellSpec, len(order))
	for i, k := range order {
		units[i] = groups[k]
	}
	return units
}

func unitKind(s harness.CellSpec) string {
	switch s.Kind {
	case harness.CellTPCD:
		return "tpcd"
	case harness.CellTPCC:
		return "tpcc"
	default:
		return "micro"
	}
}

// tracedGridPass measures the grid unit by unit with spans: each of the
// workers owns one environment and calls RunGang per work unit, as the
// harness workers do.
func tracedGridPass(tr *tracer, opts harness.Options, specs []harness.CellSpec, m map[string]float64) (time.Duration, string, error) {
	units := gridUnits(specs)
	results := make([][]harness.Cell, len(units))
	durs := make([]time.Duration, len(units))
	errs := make([]error, len(units))
	var mu sync.Mutex
	var envs []*harness.Env
	var envBuilds []float64
	var busy time.Duration

	root := tr.begin("grid", 0, -1)
	start := time.Now()
	fanout.RunContext(context.Background(), len(units), gridWorkers, func() func(int) bool {
		var env *harness.Env
		return func(i int) bool {
			if env == nil {
				id := tr.begin("harness.NewEnv", root, i)
				t := time.Now()
				var err error
				if env, err = harness.NewEnv(opts); err != nil {
					errs[i] = err
					return false
				}
				d := time.Since(t)
				tr.end(id)
				mu.Lock()
				envs = append(envs, env)
				envBuilds = append(envBuilds, float64(d)/1e6)
				busy += d
				mu.Unlock()
			}
			id := tr.begin("harness.RunGang."+unitKind(units[i][0]), root, i)
			t := time.Now()
			results[i], errs[i] = env.RunGang(units[i])
			durs[i] = time.Since(t)
			tr.end(id)
			return errs[i] == nil
		}
	})
	wall := time.Since(start)
	tr.end(root)

	var execs uint64
	for _, env := range envs {
		for _, s := range engine.Systems() {
			execs += env.Engine(s).Executions()
		}
		env.Close()
	}
	cells := make(map[harness.CellSpec]harness.Cell, len(specs))
	perKind := map[string][]float64{}
	baseUnits := 0
	for i, u := range units {
		if errs[i] != nil {
			return 0, "", fmt.Errorf("unit %s: %w", u[0], errs[i])
		}
		for j, s := range u {
			cells[s] = results[i][j]
		}
		k := unitKind(u[0])
		perKind[k] = append(perKind[k], float64(durs[i])/1e6)
		busy += durs[i]
		if k != "tpcc" && u[0].RecordSize == opts.RecordSize {
			baseUnits++ // measured on the base environment's engines
		}
	}
	digest, err := cellDigest(specs, cells)
	if err != nil {
		return 0, "", err
	}
	for _, k := range []string{"micro", "tpcd", "tpcc"} {
		m["harness.unit_ms."+k] = mean(perKind[k])
	}
	m["harness.env_build_ms"] = median(envBuilds)
	m["engine.executions"] = float64(execs)
	if baseUnits > 0 {
		m["engine.executions_per_unit"] = float64(execs) / float64(baseUnits)
	}
	m["fanout.straggler_s"] = (wall - busy/gridWorkers).Seconds()
	return wall, digest, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// liveBuffers sums the trace package's checked-out pooled buffers.
func liveBuffers() int64 {
	a, b, c := trace.LiveBuffers()
	return a + b + c
}

func tracedGridCold(e *env) (*outcome, error) {
	exps, err := findExps(gridExperiments)
	if err != nil {
		return nil, err
	}
	opts := harness.DefaultOptions()
	o := &outcome{metrics: map[string]float64{}}
	live := liveBuffers()

	// The untraced reference pass: its wall time is what the tracing
	// overhead is measured against, and its digest is what the traced
	// pass must reproduce.
	ref, err := measureGrid(opts, exps)
	if err != nil {
		return nil, err
	}
	o.attempted += ref.cells
	if err := checkGrid(e, exps, ref, "", o); err != nil {
		return nil, err
	}

	tr := newTracer()
	rss := sampleRSS("self")
	wall, digest, err := tracedGridPass(tr, opts, gridSpecs(opts, exps), o.metrics)
	if err != nil {
		return nil, err
	}
	if o.metrics["peak_rss_mb"], err = rss.peak(); err != nil {
		return nil, err
	}
	o.attempted++
	if digest != ref.digest {
		o.fail(e, "traced pass digest %s differs from the untraced pass %s", digest, ref.digest)
	}
	fmt.Fprintf(e.out, "grid: untraced %.3f s, traced %.3f s, digest %s (both passes)\n",
		ref.wall.Seconds(), wall.Seconds(), ref.digest[:16])

	if err := runProbe(e, tr, []string{"micro", "tpcd", "tpcc"}, o.metrics); err != nil {
		return nil, err
	}
	o.metrics["trace.live_buffers_delta"] = float64(liveBuffers() - live)
	overhead := fmt.Sprintf("grid wall traced %.3f s - untraced %.3f s = %+.3f s",
		wall.Seconds(), ref.wall.Seconds(), (wall - ref.wall).Seconds())
	return o, finishTrace(e, "grid-cold", tr, overhead)
}

// finishTrace prints the per-layer table and writes the spans out.
func finishTrace(e *env, name string, tr *tracer, overhead string) error {
	printLayerTable(e.out, name, tr.snapshot(), overhead)
	path := filepath.Join(e.build, "spans", fmt.Sprintf("%s-seed%d.jsonl", name, e.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(e.out, "spans written to %s\n", path)
	return nil
}
