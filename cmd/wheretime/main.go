// Command wheretime regenerates the figures and tables of "DBMSs on a
// Modern Processor: Where Does Time Go?" (Ailamaki, DeWitt, Hill,
// Wood; VLDB 1999) on the simulated platform.
//
// Usage:
//
//	wheretime -list
//	wheretime -experiment fig5.1 [-scale 0.02] [-selectivity 0.10] [-recsize 100]
//	wheretime -experiment all [-parallel 8]
//	wheretime -experiment ghj,sortagg,btree,joinsort,idxjoin   # the scenario operators
//	wheretime -experiment fig5.1 -l2kb 512,2048
//	wheretime -experiment all -store .wtstore   # persist traces/tallies; rerun starts warm
//
// Scale 1.0 is the paper's 1.2M-record R; per-record behaviour
// converges within a few thousand records, so the default small scale
// reproduces the shapes in seconds.
//
// The experiment grid decomposes into independent (system, query,
// parameter, platform) cells; -parallel fans them out across that many
// workers, each on its own isolated simulator stack. The output is
// byte-identical at every worker count; -parallel=1 runs today's
// serial path.
//
// -l2kb and -btb take comma-separated lists. With more than one
// resulting platform the requested experiments run on every
// combination in a single grid, and cells that differ only in
// platform gang into one multi-config drain: the workload executes
// once per cell and every platform's counters come from that single
// pass.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"wheretime/internal/harness"
	"wheretime/internal/tracestore"
	"wheretime/internal/xeon"
)

// parseIntList parses a comma-separated list of non-negative
// integers. Zero keeps its historical meaning — "use the default
// platform value" — so scripts written against the old int flags
// still work; deflt substitutes it.
func parseIntList(flagName, s string, deflt int) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 0 {
			return nil, fmt.Errorf("wheretime: -%s wants non-negative integers, got %q", flagName, part)
		}
		if v == 0 {
			v = deflt
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	var (
		list        = flag.Bool("list", false, "list available experiments")
		exp         = flag.String("experiment", "claims", `experiment to run: a name, a comma-separated list (e.g. "ghj,sortagg,btree"), or "all"`)
		scale       = flag.Float64("scale", 0.01, "dataset scale relative to the paper's 1.2M-row R")
		selectivity = flag.Float64("selectivity", 0.10, "range selection selectivity")
		recsize     = flag.Int("recsize", 100, "record size in bytes")
		l2kb        = flag.String("l2kb", "", "override L2 cache size in KB; a comma-separated list sweeps platforms in one ganged grid (0 or empty = Table 4.1's 512)")
		btb         = flag.String("btb", "", "override BTB entries; a comma-separated list sweeps platforms (0 or empty = Pentium II's 512)")
		parallel    = flag.Int("parallel", harness.DefaultParallelism(), "worker count for the experiment grid (1 = serial)")
		storeDir    = flag.String("store", "", "persistent trace/tally store directory: tallies and first-pass captures persist across runs, so a warm directory starts the grid from disk")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-10s %s\n", e.Name, e.Paper)
		}
		return
	}

	opts := harness.DefaultOptions()
	opts.Scale = *scale
	opts.Selectivity = *selectivity
	opts.RecordSize = *recsize
	if err := opts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Open the store here rather than via Options.StoreDir so the stats
	// line can be printed after the run (and on both exit paths). The
	// line goes to stderr: stdout must stay byte-identical between cold
	// and warm runs, which the store-smoke CI step diffs.
	var store *tracestore.Store
	if *storeDir != "" {
		s, err := tracestore.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		store = s
		opts.Store = store
	}
	finishStore := func() {
		if store == nil {
			return
		}
		if err := store.Flush(); err != nil {
			// A read-only store is a degraded cache, not a failed run:
			// warn and keep the exit status the measurement earned.
			if !errors.Is(err, tracestore.ErrReadOnly) {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintln(os.Stderr, "wheretime: store is read-only; staged entries were not flushed")
		}
		st := store.Stats()
		ro := ""
		if st.ReadOnly {
			ro = " READ-ONLY"
		}
		fmt.Fprintf(os.Stderr, "store: entry hits=%d misses=%d, trace hits=%d written=%d, entries added=%d, retries=%d quarantined=%d%s (dir %s)\n",
			st.EntryHits, st.EntryMisses, st.TraceHits, st.TracesWritten, st.EntriesAdded, st.Retries, st.Quarantined, ro, store.Dir())
	}

	l2s, err := parseIntList("l2kb", *l2kb, opts.Config.L2SizeKB)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	btbs, err := parseIntList("btb", *btb, opts.Config.BTBEntries)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(l2s) == 0 {
		l2s = []int{opts.Config.L2SizeKB}
	}
	if len(btbs) == 0 {
		btbs = []int{opts.Config.BTBEntries}
	}
	var configs []xeon.Config
	for _, l2 := range l2s {
		for _, b := range btbs {
			cfg := opts.Config
			cfg.L2SizeKB = l2
			cfg.BTBEntries = b
			if err := cfg.Validate(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			configs = append(configs, cfg)
		}
	}
	opts.Config = configs[0]
	if *parallel < 1 {
		fmt.Fprintf(os.Stderr, "wheretime: -parallel must be >= 1 (got %d)\n", *parallel)
		os.Exit(2)
	}

	var exps []harness.Experiment
	if *exp == "all" {
		exps = harness.Experiments()
	} else {
		// A comma-separated list runs several experiments over one
		// deduplicated grid (cells shared between them measure once).
		for _, name := range strings.Split(*exp, ",") {
			e, err := harness.Find(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	// SIGINT/SIGTERM cancel the grid at the next between-cells barrier:
	// the run stops cleanly, the store flushes the cells that finished
	// (they warm the next run), and the process exits 130.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	dims := opts.Dims()
	printPlatform(configs[0])
	fmt.Printf("Dataset: R=%d records x %dB, S=%d, selectivity %.0f%% (scale %.3g), %d workers\n\n",
		dims.RRecords, dims.RecordSize, dims.SRecords, *selectivity*100, *scale, *parallel)

	if len(configs) == 1 {
		rendered, err := harness.RunExperimentsContext(ctx, opts, exps, *parallel)
		if err != nil {
			exitRunErr(err, finishStore)
		}
		for i, e := range exps {
			fmt.Printf("== %s — %s ==\n\n", e.Name, e.Paper)
			for _, t := range rendered[i] {
				fmt.Println(t.Render())
			}
		}
		finishStore()
		return
	}

	// Platform sweep: one grid over every (experiment, platform) cell.
	// Cells that differ only in platform share an emission key, so the
	// gang scheduler measures each workload once for all platforms.
	optsFor := func(cfg xeon.Config) harness.Options {
		o := opts
		o.Config = cfg
		return o
	}
	var specs []harness.CellSpec
	for _, cfg := range configs {
		for _, e := range exps {
			specs = append(specs, e.Cells(optsFor(cfg))...)
		}
	}
	res, err := harness.MeasureContext(ctx, opts, specs, *parallel)
	if err != nil {
		exitRunErr(err, finishStore)
	}
	for _, e := range exps {
		fmt.Printf("== %s — %s ==\n\n", e.Name, e.Paper)
		for _, cfg := range configs {
			printPlatform(cfg)
			fmt.Println()
			tables, err := e.Render(optsFor(cfg), res)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			for _, t := range tables {
				fmt.Println(t.Render())
			}
		}
	}
	finishStore()
}

// exitRunErr reports a failed or interrupted run and exits. An
// interrupted run (SIGINT/SIGTERM hit a *harness.PartialError) still
// flushes the store — the cells measured before the signal warm the
// next run — and exits 130, the conventional fatal-signal status.
func exitRunErr(err error, finishStore func()) {
	var pe *harness.PartialError
	if errors.As(err, &pe) {
		fmt.Fprintf(os.Stderr, "wheretime: interrupted: %v\n", err)
		finishStore()
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func printPlatform(cfg xeon.Config) {
	fmt.Printf("Platform: %dMHz, L1 %d/%dKB, L2 %dKB, %dB lines, BTB %d entries, memory latency %.0f cycles\n",
		cfg.ClockMHz, cfg.L1ISizeKB, cfg.L1DSizeKB, cfg.L2SizeKB, cfg.LineSize, cfg.BTBEntries, cfg.MemoryLatency)
}
