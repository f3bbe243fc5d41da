package harness

import (
	"fmt"
	"sort"
	"strings"

	"wheretime/internal/core"
	"wheretime/internal/engine"
)

// Experiment regenerates one figure or table of the paper. Each
// experiment declares the independent grid cells it needs (Cells) and
// renders its tables from the measured results (Render); the two
// halves let the grid scheduler fan every cell out across workers and
// still render in canonical paper order.
type Experiment struct {
	// Name is the CLI identifier (e.g. "fig5.1").
	Name string
	// Paper locates the result in the paper.
	Paper string
	// Cells lists the grid cells the experiment consumes, fully
	// resolved against opts. Cells shared between experiments
	// deduplicate before scheduling.
	Cells func(opts Options) []CellSpec
	// Render produces the tables from measured cells. It must consume
	// only cells that Cells declared.
	Render func(opts Options, res *Results) ([]Table, error)
}

// Run measures and renders the experiment serially against an
// existing environment (the single-environment compatibility path;
// the CLIs go through RunExperiments instead).
func (e Experiment) Run(env *Env) ([]Table, error) {
	return e.Render(env.Opts, envResults(env))
}

// Experiments returns the registry of every reproducible figure and
// table, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{Name: "fig5.1", Paper: "Figure 5.1: execution time breakdown", Cells: microGridCells, Render: fig51Render},
		{Name: "fig5.2", Paper: "Figure 5.2: memory stall breakdown", Cells: microGridCells, Render: fig52Render},
		{Name: "fig5.3", Paper: "Figure 5.3: instructions retired per record", Cells: microGridCells, Render: fig53Render},
		{Name: "fig5.4a", Paper: "Figure 5.4 (left): branch misprediction rates", Cells: microGridCells, Render: fig54aRender},
		{Name: "fig5.4b", Paper: "Figure 5.4 (right): TB and TL1I vs selectivity (System D, SRS)", Cells: fig54bCells, Render: fig54bRender},
		{Name: "fig5.5", Paper: "Figure 5.5: TDEP and TFU contributions", Cells: microGridCells, Render: fig55Render},
		{Name: "fig5.6", Paper: "Figure 5.6: CPI breakdown, SRS vs TPC-D", Cells: tpcdGridCells, Render: fig56Render},
		{Name: "fig5.7", Paper: "Figure 5.7: cache stall breakdown, SRS vs TPC-D", Cells: tpcdGridCells, Render: fig57Render},
		{Name: "recsize", Paper: "Section 5.2.1-5.2.2: record size sweep", Cells: recordSizeCells, Render: recordSizeRender},
		{Name: "tpcc", Paper: "Section 5.5: TPC-C behaviour", Cells: tpccCells, Render: tpccRender},
		{Name: "ghj", Paper: "Scenario: Grace/hybrid hash join breakdown", Cells: scenarioCells(GHJ), Render: scenarioRender(GHJ)},
		{Name: "sortagg", Paper: "Scenario: sort-based aggregation breakdown", Cells: scenarioCells(SAG), Render: scenarioRender(SAG)},
		{Name: "btree", Paper: "Scenario: B-tree range scan breakdown", Cells: scenarioCells(BRS), Render: scenarioRender(BRS)},
		{Name: "joinsort", Paper: "Scenario: join-sort-aggregate pipeline breakdown", Cells: scenarioCells(JSA), Render: scenarioRender(JSA)},
		{Name: "idxjoin", Paper: "Scenario: index-probe join breakdown", Cells: scenarioCells(IXJ), Render: scenarioRender(IXJ)},
		{Name: "claims", Paper: "Section 1/5: headline claims check", Cells: claimsCells, Render: claimsRender},
	}
}

// Find returns the named experiment.
func Find(name string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, nil
		}
	}
	var names []string
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (have %s)", name, strings.Join(names, ", "))
}

// allQueries lists the paper's query kinds in paper order (the
// original figures render exactly these; the scenario kinds get their
// own experiments).
var allQueries = []QueryKind{SRS, IRS, SJ}

// scenarioQueries lists the scenario kinds added on top of the paper's
// set, in registry order.
var scenarioQueries = []QueryKind{GHJ, SAG, BRS, JSA, IXJ}

// ValidMicro reports whether (s, q) is a measurable combination:
// System A skips the index-based kinds (IRS, BRS, IXJ) because it does
// not use the index (Section 5.1). It is the one source of truth for
// that rule: the grid declarations, the environment's query builder
// and the wheretimed request decoder all ask it.
func ValidMicro(s engine.System, q QueryKind) bool {
	if q == IRS || q == BRS || q == IXJ {
		return engine.DefaultProfile(s).UseIndex
	}
	return true
}

// microGridCells emits the full (query, system) microbenchmark grid at
// the base options — the cells Figures 5.1-5.5 share.
func microGridCells(opts Options) []CellSpec {
	var specs []CellSpec
	for _, q := range allQueries {
		for _, s := range engine.Systems() {
			if !ValidMicro(s, q) {
				continue
			}
			specs = append(specs, microCell(opts, s, q))
		}
	}
	return specs
}

// fig54bSelectivities is the sweep of Figure 5.4 (right).
var fig54bSelectivities = []float64{0, 0.01, 0.05, 0.10, 0.50, 1.00}

func fig54bCells(opts Options) []CellSpec {
	var specs []CellSpec
	for _, sel := range fig54bSelectivities {
		spec := microCell(opts, engine.SystemD, SRS)
		spec.Selectivity = sel
		specs = append(specs, spec)
	}
	return specs
}

// tpcdSystems is the subset the paper ran TPC-D on (Section 5.5).
var tpcdSystems = []engine.System{engine.SystemA, engine.SystemB, engine.SystemD}

// tpcdGridCells emits the cells Figures 5.6-5.7 compare: the SRS
// microbenchmark and the TPC-D suite on the paper's TPC-D systems.
func tpcdGridCells(opts Options) []CellSpec {
	var specs []CellSpec
	for _, s := range tpcdSystems {
		specs = append(specs, microCell(opts, s, SRS))
		specs = append(specs, CellSpec{Kind: CellTPCD, System: s, Config: opts.Config})
	}
	return specs
}

// recordSizes is the sweep of Sections 5.2.1-5.2.2.
var recordSizes = []int{20, 48, 100, 152, 200}

func recordSizeCells(opts Options) []CellSpec {
	var specs []CellSpec
	for _, size := range recordSizes {
		spec := microCell(opts, engine.SystemD, SRS)
		spec.RecordSize = size
		specs = append(specs, spec)
	}
	return specs
}

// tpccTxns is the measured transaction count of the Section 5.5 table.
const tpccTxns = 400

func tpccCells(opts Options) []CellSpec {
	var specs []CellSpec
	for _, s := range engine.Systems() {
		specs = append(specs, CellSpec{Kind: CellTPCC, System: s, Txns: tpccTxns, Config: opts.Config})
	}
	return specs
}

// scenarioLongName spells out a scenario kind for table titles.
func scenarioLongName(q QueryKind) string {
	switch q {
	case GHJ:
		return "Grace/hybrid hash join"
	case SAG:
		return "sort-based aggregation"
	case BRS:
		return "B-tree range scan"
	case JSA:
		return "join-sort-aggregate pipeline"
	case IXJ:
		return "index-probe join"
	default:
		return q.String()
	}
}

// scenarioCells emits one microbenchmark cell per valid system for a
// scenario query kind. Scenario cells are ordinary CellMicro specs, so
// they dedupe, gang, persist to the store and parallelise exactly like
// the paper's cells.
func scenarioCells(q QueryKind) func(opts Options) []CellSpec {
	return func(opts Options) []CellSpec {
		var specs []CellSpec
		for _, s := range engine.Systems() {
			if !ValidMicro(s, q) {
				continue
			}
			specs = append(specs, microCell(opts, s, q))
		}
		return specs
	}
}

// scenarioRender renders a scenario's paper-style tables: the
// execution-time breakdown (with CPI and instructions per record) and
// the memory-stall breakdown, one row per system.
func scenarioRender(q QueryKind) func(opts Options, res *Results) ([]Table, error) {
	return func(opts Options, res *Results) ([]Table, error) {
		exec := Table{
			Title:  fmt.Sprintf("Scenario %s (%s): execution time breakdown (%%)", q, scenarioLongName(q)),
			Header: []string{"System", "CPI", "Computation", "Memory", "Branch mispred", "Resource", "Instr/rec"},
		}
		mem := Table{
			Title:  fmt.Sprintf("Scenario %s (%s): memory stall breakdown (%% of TM)", q, scenarioLongName(q)),
			Header: []string{"System", "L1D", "L1I", "L2D", "L2I", "ITLB"},
		}
		switch q {
		case GHJ:
			exec.Note = "Per record of R (the probe input), partition and join phases included."
		case SAG:
			exec.Note = "Per record of R; run generation, merge passes and final aggregation included."
		case BRS:
			exec.Note = "Per selected entry; index-only — no heap page is touched. System A omitted (no index, Section 5.1)."
		case JSA:
			exec.Note = "Per record of R; join matches routed through an external sort before aggregation."
		case IXJ:
			exec.Note = "Per selected entry of R; probe side driven from the a2 index. System A omitted (no index, Section 5.1)."
		}
		for _, s := range engine.Systems() {
			if !ValidMicro(s, q) {
				continue
			}
			cell, err := res.Get(microCell(opts, s, q))
			if err != nil {
				return nil, err
			}
			b := cell.Breakdown
			exec.AddRow(s.String(), f2(b.CPI()),
				pct(b.GroupPercent(core.GroupComputation)),
				pct(b.GroupPercent(core.GroupMemory)),
				pct(b.GroupPercent(core.GroupBranch)),
				pct(b.GroupPercent(core.GroupResource)),
				num(b.InstructionsPerRecord()))
			mem.AddRow(s.String(),
				pct(b.MemoryPercent(core.TL1D)),
				pct(b.MemoryPercent(core.TL1I)),
				pct(b.MemoryPercent(core.TL2D)),
				pct(b.MemoryPercent(core.TL2I)),
				pct(b.MemoryPercent(core.TITLB)))
		}
		return []Table{exec, mem}, nil
	}
}

// Fig51 regenerates the execution time breakdown: one table per query,
// one row per system, columns TC/TM/TB/TR as percentages of execution
// time.
func Fig51(env *Env) ([]Table, error) { return fig51Render(env.Opts, envResults(env)) }

func fig51Render(opts Options, res *Results) ([]Table, error) {
	var tables []Table
	for _, q := range allQueries {
		t := Table{
			Title:  fmt.Sprintf("Figure 5.1 (%s): query execution time breakdown (%%)", q),
			Header: []string{"System", "Computation", "Memory", "Branch mispred", "Resource"},
		}
		if q == IRS {
			t.Note = "System A omitted: it does not use the index (Section 5.1)."
		}
		for _, s := range engine.Systems() {
			if !ValidMicro(s, q) {
				continue
			}
			cell, err := res.Get(microCell(opts, s, q))
			if err != nil {
				return nil, err
			}
			b := cell.Breakdown
			t.AddRow(s.String(),
				pct(b.GroupPercent(core.GroupComputation)),
				pct(b.GroupPercent(core.GroupMemory)),
				pct(b.GroupPercent(core.GroupBranch)),
				pct(b.GroupPercent(core.GroupResource)))
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig52 regenerates the memory stall breakdown: the five components of
// TM as percentages of TM.
func Fig52(env *Env) ([]Table, error) { return fig52Render(env.Opts, envResults(env)) }

func fig52Render(opts Options, res *Results) ([]Table, error) {
	var tables []Table
	for _, q := range allQueries {
		t := Table{
			Title:  fmt.Sprintf("Figure 5.2 (%s): memory stall time breakdown (%% of TM)", q),
			Header: []string{"System", "L1D", "L1I", "L2D", "L2I", "ITLB"},
		}
		for _, s := range engine.Systems() {
			if !ValidMicro(s, q) {
				continue
			}
			cell, err := res.Get(microCell(opts, s, q))
			if err != nil {
				return nil, err
			}
			b := cell.Breakdown
			t.AddRow(s.String(),
				pct(b.MemoryPercent(core.TL1D)),
				pct(b.MemoryPercent(core.TL1I)),
				pct(b.MemoryPercent(core.TL2D)),
				pct(b.MemoryPercent(core.TL2I)),
				pct(b.MemoryPercent(core.TITLB)))
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig53 regenerates instructions retired per record. Denominators
// follow the figure's caption: records of R for SRS and SJ, selected
// records for IRS.
func Fig53(env *Env) ([]Table, error) { return fig53Render(env.Opts, envResults(env)) }

func fig53Render(opts Options, res *Results) ([]Table, error) {
	t := Table{
		Title:  "Figure 5.3: instructions retired per record",
		Note:   "SRS/SJ: per record of R; IRS: per selected record.",
		Header: []string{"System", "SRS", "IRS", "SJ"},
	}
	for _, s := range engine.Systems() {
		row := []string{s.String()}
		for _, q := range allQueries {
			if !ValidMicro(s, q) {
				row = append(row, "-")
				continue
			}
			cell, err := res.Get(microCell(opts, s, q))
			if err != nil {
				return nil, err
			}
			row = append(row, num(cell.Breakdown.InstructionsPerRecord()))
		}
		t.AddRow(row...)
	}
	return []Table{t}, nil
}

// Fig54a regenerates the branch misprediction rates (left graph).
func Fig54a(env *Env) ([]Table, error) { return fig54aRender(env.Opts, envResults(env)) }

func fig54aRender(opts Options, res *Results) ([]Table, error) {
	t := Table{
		Title:  "Figure 5.4 (left): branch misprediction rates",
		Header: []string{"System", "SRS", "IRS", "SJ", "BTB miss (SRS)"},
	}
	for _, s := range engine.Systems() {
		row := []string{s.String()}
		var btb string
		for _, q := range allQueries {
			if !ValidMicro(s, q) {
				row = append(row, "-")
				continue
			}
			cell, err := res.Get(microCell(opts, s, q))
			if err != nil {
				return nil, err
			}
			row = append(row, pct(100*cell.Breakdown.BranchMispredictionRate()))
			if q == SRS {
				btb = pct(100 * cell.Breakdown.BTBMissRate())
			}
		}
		row = append(row, btb)
		t.AddRow(row...)
	}
	return []Table{t}, nil
}

// Fig54b regenerates the right graph: TB and TL1I as percentages of
// execution time for System D running SRS across selectivities.
func Fig54b(env *Env) ([]Table, error) { return fig54bRender(env.Opts, envResults(env)) }

func fig54bRender(opts Options, res *Results) ([]Table, error) {
	t := Table{
		Title:  "Figure 5.4 (right): System D sequential selection vs selectivity",
		Header: []string{"Selectivity", "Branch mispred stalls", "L1 I-cache stalls"},
	}
	for _, sel := range fig54bSelectivities {
		spec := microCell(opts, engine.SystemD, SRS)
		spec.Selectivity = sel
		cell, err := res.Get(spec)
		if err != nil {
			return nil, err
		}
		b := cell.Breakdown
		t.AddRow(fmt.Sprintf("%.0f%%", sel*100),
			pct(b.GroupPercent(core.GroupBranch)),
			pct(b.ComponentPercent(core.TL1I)))
	}
	return []Table{t}, nil
}

// Fig55 regenerates the TDEP/TFU contributions to execution time.
func Fig55(env *Env) ([]Table, error) { return fig55Render(env.Opts, envResults(env)) }

func fig55Render(opts Options, res *Results) ([]Table, error) {
	dep := Table{
		Title:  "Figure 5.5 (TDEP): dependency stall contribution (% of execution time)",
		Header: []string{"System", "SRS", "IRS", "SJ"},
	}
	fu := Table{
		Title:  "Figure 5.5 (TFU): functional unit stall contribution (% of execution time)",
		Header: []string{"System", "SRS", "IRS", "SJ"},
	}
	for _, s := range engine.Systems() {
		depRow := []string{s.String()}
		fuRow := []string{s.String()}
		for _, q := range allQueries {
			if !ValidMicro(s, q) {
				depRow = append(depRow, "-")
				fuRow = append(fuRow, "-")
				continue
			}
			cell, err := res.Get(microCell(opts, s, q))
			if err != nil {
				return nil, err
			}
			depRow = append(depRow, pct(cell.Breakdown.ComponentPercent(core.TDEP)))
			fuRow = append(fuRow, pct(cell.Breakdown.ComponentPercent(core.TFU)))
		}
		dep.AddRow(depRow...)
		fu.AddRow(fuRow...)
	}
	return []Table{dep, fu}, nil
}

// Fig56 regenerates the clocks-per-instruction breakdown for the 10%
// SRS (left) and the TPC-D suite (right).
func Fig56(env *Env) ([]Table, error) { return fig56Render(env.Opts, envResults(env)) }

func fig56Render(opts Options, res *Results) ([]Table, error) {
	mk := func(title string, get func(engine.System) (*core.Breakdown, error)) (Table, error) {
		t := Table{
			Title:  title,
			Header: []string{"System", "CPI", "Computation", "Memory", "Branch", "Resource"},
		}
		for _, s := range tpcdSystems {
			b, err := get(s)
			if err != nil {
				return t, err
			}
			t.AddRow(s.String(), f2(b.CPI()),
				f2(b.CPIOf(core.GroupComputation)),
				f2(b.CPIOf(core.GroupMemory)),
				f2(b.CPIOf(core.GroupBranch)),
				f2(b.CPIOf(core.GroupResource)))
		}
		return t, nil
	}
	left, err := mk("Figure 5.6 (left): CPI breakdown, 10% sequential range selection",
		func(s engine.System) (*core.Breakdown, error) {
			cell, err := res.Get(microCell(opts, s, SRS))
			return cell.Breakdown, err
		})
	if err != nil {
		return nil, err
	}
	right, err := mk("Figure 5.6 (right): CPI breakdown, TPC-D queries",
		func(s engine.System) (*core.Breakdown, error) {
			cell, err := res.Get(CellSpec{Kind: CellTPCD, System: s, Config: opts.Config})
			return cell.Breakdown, err
		})
	if err != nil {
		return nil, err
	}
	return []Table{left, right}, nil
}

// Fig57 regenerates the cache-related stall breakdown for SRS vs the
// TPC-D suite.
func Fig57(env *Env) ([]Table, error) { return fig57Render(env.Opts, envResults(env)) }

func fig57Render(opts Options, res *Results) ([]Table, error) {
	mk := func(title string, get func(engine.System) (*core.Breakdown, error)) (Table, error) {
		t := Table{
			Title:  title,
			Header: []string{"System", "L1D", "L1I", "L2D", "L2I"},
		}
		for _, s := range tpcdSystems {
			b, err := get(s)
			if err != nil {
				return t, err
			}
			cache := b.Cycles[core.TL1D] + b.Cycles[core.TL1I] + b.Cycles[core.TL2D] + b.Cycles[core.TL2I]
			share := func(c core.Component) string {
				if cache == 0 {
					return pct(0)
				}
				return pct(100 * b.Cycles[c] / cache)
			}
			t.AddRow(s.String(), share(core.TL1D), share(core.TL1I), share(core.TL2D), share(core.TL2I))
		}
		return t, nil
	}
	left, err := mk("Figure 5.7 (left): cache-related stalls, 10% sequential range selection",
		func(s engine.System) (*core.Breakdown, error) {
			cell, err := res.Get(microCell(opts, s, SRS))
			return cell.Breakdown, err
		})
	if err != nil {
		return nil, err
	}
	right, err := mk("Figure 5.7 (right): cache-related stalls, TPC-D queries",
		func(s engine.System) (*core.Breakdown, error) {
			cell, err := res.Get(CellSpec{Kind: CellTPCD, System: s, Config: opts.Config})
			return cell.Breakdown, err
		})
	if err != nil {
		return nil, err
	}
	return []Table{left, right}, nil
}

// RecordSize regenerates the record-size discussion of Sections
// 5.2.1-5.2.2: TL2D grows with record size, and execution time per
// record grows by 2.5-4x from 20 to 200 bytes.
func RecordSize(env *Env) ([]Table, error) { return recordSizeRender(env.Opts, envResults(env)) }

func recordSizeRender(opts Options, res *Results) ([]Table, error) {
	t := Table{
		Title:  "Section 5.2.1-5.2.2: record size sweep (System D, 10% SRS)",
		Header: []string{"Record bytes", "TL2D cycles/rec", "L1I misses/rec", "Cycles/rec", "vs 20B"},
	}
	var base float64
	for _, size := range recordSizes {
		spec := microCell(opts, engine.SystemD, SRS)
		spec.RecordSize = size
		cell, err := res.Get(spec)
		if err != nil {
			return nil, err
		}
		b := cell.Breakdown
		recs := float64(b.Counts.Records)
		perRec := b.GrossTotal() / recs
		if size == recordSizes[0] {
			base = perRec
		}
		t.AddRow(fmt.Sprintf("%d", size),
			f2(b.Cycles[core.TL2D]/recs),
			f2(float64(b.Counts.L1IMisses)/recs),
			num(perRec),
			fmt.Sprintf("%.2fx", perRec/base))
	}
	return []Table{t}, nil
}

// TPCC regenerates the Section 5.5 TPC-C observations: CPI 2.5-4.5,
// 60-80% memory stalls, dominated by L2, with elevated resource
// stalls.
func TPCC(env *Env) ([]Table, error) { return tpccRender(env.Opts, envResults(env)) }

func tpccRender(opts Options, res *Results) ([]Table, error) {
	t := Table{
		Title:  "Section 5.5: 10-user, 1-warehouse TPC-C mix",
		Header: []string{"System", "CPI", "Computation", "Memory", "Branch", "Resource", "L2(D+I) % of TM"},
	}
	for _, s := range engine.Systems() {
		cell, err := res.Get(CellSpec{Kind: CellTPCC, System: s, Txns: tpccTxns, Config: opts.Config})
		if err != nil {
			return nil, err
		}
		b := cell.Breakdown
		l2share := b.MemoryPercent(core.TL2D) + b.MemoryPercent(core.TL2I)
		t.AddRow(s.String(), f2(b.CPI()),
			pct(b.GroupPercent(core.GroupComputation)),
			pct(b.GroupPercent(core.GroupMemory)),
			pct(b.GroupPercent(core.GroupBranch)),
			pct(b.GroupPercent(core.GroupResource)),
			pct(l2share))
	}
	return []Table{t}, nil
}

// Claim is one verifiable headline claim of the paper.
type Claim struct {
	ID        string
	Statement string
	Measured  string
	Holds     bool
}

// claimSelectivities is the C7 co-variance sweep.
var claimSelectivities = []float64{0.01, 0.10, 0.50}

// claimRecordSizes bounds the C8 growth measurement.
var claimRecordSizes = []int{20, 200}

// claimTPCCTxns is the C10 transaction count.
const claimTPCCTxns = 300

// claimsCells emits every cell the headline-claims check consumes:
// the full microbenchmark grid, the C7 selectivity sweep, the C8
// record-size endpoints, the TPC-D suite on B and D, and a TPC-C run.
func claimsCells(opts Options) []CellSpec {
	specs := microGridCells(opts)
	for _, sel := range claimSelectivities {
		spec := microCell(opts, engine.SystemD, SRS)
		spec.Selectivity = sel
		specs = append(specs, spec)
	}
	for _, size := range claimRecordSizes {
		spec := microCell(opts, engine.SystemD, SRS)
		spec.RecordSize = size
		specs = append(specs, spec)
	}
	for _, s := range []engine.System{engine.SystemB, engine.SystemD} {
		specs = append(specs, CellSpec{Kind: CellTPCD, System: s, Config: opts.Config})
	}
	specs = append(specs, CellSpec{Kind: CellTPCC, System: engine.SystemC, Txns: claimTPCCTxns, Config: opts.Config})
	return specs
}

// CheckClaims evaluates the headline claims of Sections 1 and 5
// against a full run, returning structured results.
func CheckClaims(env *Env) ([]Claim, error) {
	return checkClaims(env.Opts, envResults(env))
}

func checkClaims(opts Options, res *Results) ([]Claim, error) {
	// The microbenchmark grid, from the one place that defines it.
	var cells []Cell
	for _, spec := range microGridCells(opts) {
		c, err := res.Get(spec)
		if err != nil {
			return nil, err
		}
		cells = append(cells, c)
	}
	get := func(s engine.System, q QueryKind) *core.Breakdown {
		for _, c := range cells {
			if c.System == s && c.Query == q {
				return c.Breakdown
			}
		}
		return nil
	}

	var claims []Claim
	add := func(id, statement, measured string, holds bool) {
		claims = append(claims, Claim{ID: id, Statement: statement, Measured: measured, Holds: holds})
	}

	// C1: on average, computation is at most ~half the execution time.
	var compSum float64
	var n int
	for _, c := range cells {
		compSum += c.Breakdown.GroupPercent(core.GroupComputation)
		n++
	}
	avgComp := compSum / float64(n)
	add("C1", "computation is about half of execution time or less; stalls dominate",
		fmt.Sprintf("avg computation %.1f%%", avgComp), avgComp <= 55)

	// C2: TL1I + TL2D account for ~90% of TM in all cells.
	worst := 100.0
	var worstAt string
	for _, c := range cells {
		v := c.Breakdown.MemoryPercent(core.TL1I) + c.Breakdown.MemoryPercent(core.TL2D)
		if v < worst {
			worst = v
			worstAt = fmt.Sprintf("%s/%s", c.System, c.Query)
		}
	}
	add("C2", "~90% of memory stalls are L1 I-cache and L2 data misses",
		fmt.Sprintf("minimum TL1I+TL2D share %.1f%% (%s)", worst, worstAt), worst >= 80)

	// C3: System A has the fewest instructions/record on SRS, the
	// smallest TB, and the highest TR (20-40%).
	aSRS := get(engine.SystemA, SRS)
	aLowest := true
	aSmallestTB := true
	for _, s := range []engine.System{engine.SystemB, engine.SystemC, engine.SystemD} {
		b := get(s, SRS)
		if b.InstructionsPerRecord() <= aSRS.InstructionsPerRecord() {
			aLowest = false
		}
		if b.GroupPercent(core.GroupBranch) <= aSRS.GroupPercent(core.GroupBranch) {
			aSmallestTB = false
		}
	}
	aTR := aSRS.GroupPercent(core.GroupResource)
	add("C3", "System A: fewest instructions/record (SRS), smallest TB, highest TR (20-40%)",
		fmt.Sprintf("A inst/rec lowest=%v, TB smallest=%v, TR=%.1f%%", aLowest, aSmallestTB, aTR),
		aLowest && aSmallestTB && aTR >= 20 && aTR <= 42)

	// C4: System B's L2 data miss rate on SRS is far below the others'.
	bRate := get(engine.SystemB, SRS).L2DataMissRate()
	othersMin := 1.0
	for _, s := range []engine.System{engine.SystemA, engine.SystemC, engine.SystemD} {
		if r := get(s, SRS).L2DataMissRate(); r < othersMin {
			othersMin = r
		}
	}
	add("C4", "System B: ~2% L2 data miss rate on SRS vs 40-90% for the others",
		fmt.Sprintf("B %.1f%%, others' minimum %.1f%%", 100*bRate, 100*othersMin),
		bRate < 0.10 && othersMin >= 0.40)

	// C5: L1D miss rate ~2%, never exceeding ~4%.
	maxL1D := 0.0
	for _, c := range cells {
		if r := c.Breakdown.L1DMissRate(); r > maxL1D {
			maxL1D = r
		}
	}
	add("C5", "L1 D-cache miss rate around 2%, never above ~4%",
		fmt.Sprintf("maximum %.2f%%", 100*maxL1D), maxL1D <= 0.045)

	// C6: branches ~20% of instructions; BTB misses roughly half the
	// time for the large-footprint systems.
	var minBF, maxBF = 1.0, 0.0
	for _, c := range cells {
		bf := c.Breakdown.BranchFraction()
		if bf < minBF {
			minBF = bf
		}
		if bf > maxBF {
			maxBF = bf
		}
	}
	btbOK := true
	for _, s := range []engine.System{engine.SystemB, engine.SystemC, engine.SystemD} {
		r := get(s, SRS).BTBMissRate()
		if r < 0.25 || r > 0.70 {
			btbOK = false
		}
	}
	add("C6", "branches ~20% of instructions; BTB misses ~50% of the time",
		fmt.Sprintf("branch fraction %.1f-%.1f%%, B/C/D BTB in band=%v", 100*minBF, 100*maxBF, btbOK),
		minBF >= 0.15 && maxBF <= 0.25 && btbOK)

	// C7: TB and TL1I co-vary with selectivity for System D SRS.
	var tbs, l1is []float64
	for _, sel := range claimSelectivities {
		spec := microCell(opts, engine.SystemD, SRS)
		spec.Selectivity = sel
		cell, err := res.Get(spec)
		if err != nil {
			return nil, err
		}
		tbs = append(tbs, cell.Breakdown.GroupPercent(core.GroupBranch))
		l1is = append(l1is, cell.Breakdown.ComponentPercent(core.TL1I))
	}
	mono := tbs[0] < tbs[2] && l1is[0] < l1is[2]
	add("C7", "TB and TL1I both increase with selectivity (System D, SRS)",
		fmt.Sprintf("TB %.1f->%.1f%%, TL1I %.1f->%.1f%% over 1%%->50%%", tbs[0], tbs[2], l1is[0], l1is[2]),
		mono)

	// C8: execution time per record grows ~2.5-4x from 20B to 200B
	// records, and TL2D grows with record size.
	perRec := make([]float64, len(claimRecordSizes))
	l2d := make([]float64, len(claimRecordSizes))
	for i, size := range claimRecordSizes {
		spec := microCell(opts, engine.SystemD, SRS)
		spec.RecordSize = size
		cell, err := res.Get(spec)
		if err != nil {
			return nil, err
		}
		recs := float64(cell.Breakdown.Counts.Records)
		perRec[i] = cell.Breakdown.GrossTotal() / recs
		l2d[i] = cell.Breakdown.Cycles[core.TL2D] / recs
	}
	growth := perRec[1] / perRec[0]
	l2dGrowth := l2d[1] / l2d[0]
	add("C8", "20B->200B records: time/record grows 2.5-4x; TL2D grows with record size",
		fmt.Sprintf("time/record x%.2f, TL2D x%.2f", growth, l2dGrowth),
		growth >= 2.0 && growth <= 5.0 && l2dGrowth > 1.5)

	// C9: SRS CPI in 1.2-1.8; TPC-D breakdown similar to SRS; TPC-D
	// memory stalls dominated by L1I.
	cpiOK := true
	for _, s := range engine.Systems() {
		cpi := get(s, SRS).CPI()
		if cpi < 1.1 || cpi > 1.9 {
			cpiOK = false
		}
	}
	tpcdSimilar := true
	tpcdL1I := true
	for _, s := range []engine.System{engine.SystemB, engine.SystemD} {
		cell, err := res.Get(CellSpec{Kind: CellTPCD, System: s, Config: opts.Config})
		if err != nil {
			return nil, err
		}
		srs := get(s, SRS)
		d := cell.Breakdown.GroupPercent(core.GroupMemory) - srs.GroupPercent(core.GroupMemory)
		if d < -15 || d > 15 {
			tpcdSimilar = false
		}
		if cell.Breakdown.MemoryPercent(core.TL1I) < 50 {
			tpcdL1I = false
		}
	}
	add("C9", "SRS CPI 1.2-1.8, similar to TPC-D; TPC-D memory stalls dominated by L1I",
		fmt.Sprintf("CPI band=%v, TPC-D similar=%v, TPC-D L1I-dominated=%v", cpiOK, tpcdSimilar, tpcdL1I),
		cpiOK && tpcdSimilar && tpcdL1I)

	// C10: TPC-C CPI 2.5-4.5, memory stalls >= ~55%, L2-heavy.
	cell, err := res.Get(CellSpec{Kind: CellTPCC, System: engine.SystemC, Txns: claimTPCCTxns, Config: opts.Config})
	if err != nil {
		return nil, err
	}
	b := cell.Breakdown
	cpi := b.CPI()
	mem := b.GroupPercent(core.GroupMemory)
	l2 := b.MemoryPercent(core.TL2D) + b.MemoryPercent(core.TL2I)
	add("C10", "TPC-C: CPI 2.5-4.5, 60-80% memory stalls, L2-dominated",
		fmt.Sprintf("CPI %.2f, memory %.1f%%, L2 share of TM %.1f%%", cpi, mem, l2),
		cpi >= 2.3 && cpi <= 4.6 && mem >= 48 && l2 >= 55)

	sort.Slice(claims, func(i, j int) bool { return claims[i].ID < claims[j].ID })
	return claims, nil
}

// Claims renders the headline-claims check as a table.
func Claims(env *Env) ([]Table, error) { return claimsRender(env.Opts, envResults(env)) }

func claimsRender(opts Options, res *Results) ([]Table, error) {
	claims, err := checkClaims(opts, res)
	if err != nil {
		return nil, err
	}
	t := Table{
		Title:  "Headline claims (Sections 1 and 5) vs simulation",
		Header: []string{"Claim", "Statement", "Measured", "Holds"},
	}
	for _, c := range claims {
		holds := "yes"
		if !c.Holds {
			holds = "NO"
		}
		t.AddRow(c.ID, c.Statement, c.Measured, holds)
	}
	return []Table{t}, nil
}
