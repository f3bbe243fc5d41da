package harness

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"wheretime/internal/engine"
	"wheretime/internal/trace"
)

// Scenario coverage: the scenario experiments (ghj, sortagg, btree,
// joinsort, idxjoin) ride the same golden matrix as every other
// experiment —
// TestGoldenFiles, TestUnbatchedMatchesGoldens,
// TestReplayDisabledMatchesGoldens and
// TestCompressionDisabledMatchesGoldens all iterate the registry, so
// the new cells are diffed against the same files across all four
// drain paths. The tests here add the
// cheap, per-push checks: a goldens smoke that measures only the
// scenario grid, and result cross-checks between each scenario
// operator and its reference access path.

// scenarioExperiments returns the registered scenario experiments.
func scenarioExperiments(t *testing.T) []Experiment {
	t.Helper()
	var exps []Experiment
	for _, name := range []string{"ghj", "sortagg", "btree", "joinsort", "idxjoin"} {
		e, err := Find(name)
		if err != nil {
			t.Fatalf("scenario experiment not registered: %v", err)
		}
		exps = append(exps, e)
	}
	return exps
}

// TestScenarioGoldens renders only the scenario experiments against
// their goldens: the push-CI smoke for the new operators, cheap enough
// to run outside the nightly full grid.
func TestScenarioGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario grid in -short mode (make scenario-smoke runs it)")
	}
	opts := goldenOptions()
	exps := scenarioExperiments(t)
	rendered, err := RunExperiments(opts, exps, DefaultParallelism())
	if err != nil {
		t.Fatalf("measuring scenario grid: %v", err)
	}
	for i, e := range exps {
		var sb strings.Builder
		fmt.Fprintf(&sb, "== %s — %s ==\n\n", e.Name, e.Paper)
		for _, tab := range rendered[i] {
			sb.WriteString(tab.Render())
			sb.WriteString("\n")
		}
		t.Run(e.Name, func(t *testing.T) {
			want, err := os.ReadFile(goldenPath(e.Name))
			if err != nil {
				t.Fatalf("missing golden (run TestGoldenFiles with -update first): %v", err)
			}
			if sb.String() != string(want) {
				t.Errorf("%s output drifted from golden\n--- got ---\n%s--- want ---\n%s",
					e.Name, sb.String(), want)
			}
		})
	}
}

// TestScenarioResultsConsistent cross-checks each scenario operator
// against its reference access path on the same environment: the
// Grace join must produce the in-memory join's aggregate, the
// sort-based aggregation the sequential scan's, and the index-only
// range count the indexed selection's row count.
func TestScenarioResultsConsistent(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.002
	env, err := NewEnv(opts)
	if err != nil {
		t.Fatal(err)
	}
	get := func(q QueryKind) Cell {
		c, err := env.Run(engine.SystemD, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return c
	}
	sj, ghj := get(SJ), get(GHJ)
	if sj.Result.Rows != ghj.Result.Rows || math.Abs(sj.Result.Value-ghj.Result.Value) > 1e-9 {
		t.Errorf("GHJ result %+v != SJ result %+v", ghj.Result, sj.Result)
	}
	srs, sag := get(SRS), get(SAG)
	if srs.Result.Rows != sag.Result.Rows || math.Abs(srs.Result.Value-sag.Result.Value) > 1e-9 {
		t.Errorf("SAG result %+v != SRS result %+v", sag.Result, srs.Result)
	}
	irs, brs := get(IRS), get(BRS)
	if irs.Result.Rows != brs.Result.Rows {
		t.Errorf("BRS selected %d rows, IRS %d", brs.Result.Rows, irs.Result.Rows)
	}
	jsa := get(JSA)
	if sj.Result.Rows != jsa.Result.Rows || math.Abs(sj.Result.Value-jsa.Result.Value) > 1e-9 {
		t.Errorf("JSA result %+v != SJ result %+v (sorting must not change the aggregate)", jsa.Result, sj.Result)
	}
	// IXJ's reference is the same filtered-join SQL through the default
	// heap-scan join.
	ixj := get(IXJ)
	e := env.Engine(engine.SystemD)
	refPlan, err := e.Prepare(env.Dims.QueryIXJ(opts.Selectivity))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := e.Run(refPlan, trace.Discard{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Rows != ixj.Result.Rows || math.Abs(ref.Value-ixj.Result.Value) > 1e-9 {
		t.Errorf("IXJ result %+v != default-join reference %+v", ixj.Result, ref)
	}
	if sj.Result.Rows == 0 || srs.Result.Rows == 0 || irs.Result.Rows == 0 || ixj.Result.Rows == 0 {
		t.Fatal("reference cells selected nothing")
	}
	// The scenarios must also be distinct access patterns, not relabels:
	// per-record instruction costs differ from their references.
	if ghj.Breakdown.InstructionsPerRecord() == sj.Breakdown.InstructionsPerRecord() {
		t.Error("GHJ emitted exactly SJ's instruction stream")
	}
	if sag.Breakdown.InstructionsPerRecord() == srs.Breakdown.InstructionsPerRecord() {
		t.Error("SAG emitted exactly SRS's instruction stream")
	}
	if brs.Breakdown.InstructionsPerRecord() == irs.Breakdown.InstructionsPerRecord() {
		t.Error("BRS emitted exactly IRS's instruction stream")
	}
	if jsa.Breakdown.InstructionsPerRecord() == sj.Breakdown.InstructionsPerRecord() {
		t.Error("JSA emitted exactly SJ's instruction stream")
	}
	if ixj.Breakdown.InstructionsPerRecord() == sj.Breakdown.InstructionsPerRecord() {
		t.Error("IXJ emitted exactly SJ's instruction stream")
	}
}

// TestScenarioSystemASkipsBRS mirrors the IRS rule: System A has no
// index, so the B-tree scenario must reject it.
func TestScenarioSystemASkipsBRS(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.002
	env, err := NewEnv(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []QueryKind{BRS, IXJ} {
		if _, err := env.Run(engine.SystemA, q); err == nil {
			t.Errorf("System A must not run %s (no index, Section 5.1)", q)
		}
		if _, ok := env.queryFor(engine.SystemA, q); ok {
			t.Errorf("queryFor should reject A/%s", q)
		}
	}
	for _, e := range scenarioExperiments(t) {
		for _, spec := range e.Cells(opts) {
			if (spec.Query == BRS || spec.Query == IXJ) && spec.System == engine.SystemA {
				t.Errorf("%s experiment declared a System A cell", spec.Query)
			}
		}
	}
}
