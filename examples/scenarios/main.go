// Scenarios: run the five scenario operators — Grace/hybrid hash
// join, sort-based aggregation, B-tree range scan, join-sort-
// aggregate pipeline, index-probe join — through the full experiment
// harness and print their paper-style breakdown tables, then
// cross-check each operator's aggregate against its reference access
// path.
//
//	go run ./examples/scenarios
package main

import (
	"fmt"
	"log"

	"wheretime/internal/engine"
	"wheretime/internal/harness"
)

func main() {
	opts := harness.DefaultOptions()
	opts.Scale = 0.01

	// The scenario experiments go through the same grid as every paper
	// figure: cells dedupe, gang, persist to the store and parallelise.
	var exps []harness.Experiment
	for _, name := range []string{"ghj", "sortagg", "btree", "joinsort", "idxjoin"} {
		e, err := harness.Find(name)
		if err != nil {
			log.Fatal(err)
		}
		exps = append(exps, e)
	}
	rendered, err := harness.RunExperiments(opts, exps, harness.DefaultParallelism())
	if err != nil {
		log.Fatal(err)
	}
	for i, e := range exps {
		fmt.Printf("== %s — %s ==\n\n", e.Name, e.Paper)
		for _, t := range rendered[i] {
			fmt.Println(t.Render())
		}
	}

	// The operators are access-path swaps, not new queries: each must
	// reproduce its reference operator's result exactly.
	env, err := harness.NewEnv(opts)
	if err != nil {
		log.Fatal(err)
	}
	check := func(newKind, refKind harness.QueryKind) {
		n, err := env.Run(engine.SystemD, newKind)
		if err != nil {
			log.Fatal(err)
		}
		r, err := env.Run(engine.SystemD, refKind)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (%d rows, value %.3f) vs %s (%d rows, value %.3f)\n",
			newKind, n.Result.Rows, n.Result.Value, refKind, r.Result.Rows, r.Result.Value)
	}
	check(harness.GHJ, harness.SJ)
	check(harness.SAG, harness.SRS)
	check(harness.BRS, harness.IRS)
	check(harness.JSA, harness.SJ)
	check(harness.IXJ, harness.SJ)
}
