// Command perfbench is the repository benchmark. It runs one workload
// against the code of the checkout it is started from, checks that
// every output is correct, and prints one JSON object as the last line
// of standard output: the end-to-end metrics, or with -trace 1 the
// per-layer metrics of a separate traced run. README.md describes the
// workloads and metrics; run.sh builds and starts it:
//
//	bash perfbench/run.sh --workload serve-warm --seed 7 --seconds 30 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run reports; BENCHMARK.json
// lists the same names (TestMetricNamesMatchBenchmarkJSON).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"goodput_rps", "1/s"},
}

// perLayer lists the metrics every traced run reports. A layer a
// workload does not exercise reads 0 on that workload.
var perLayer = []metricDef{
	{"peak_rss_mb", "MiB"},
	{"workload.build_ms", "ms"},
	{"workload.tpcc_build_ms", "ms"},
	{"sql.prepare_us", "us"},
	{"engine.events", "count"},
	{"engine.emit_ns_per_event", "ns"},
	{"engine.executions", "count"},
	{"engine.executions_per_unit", "count"},
	{"trace.encode_ns_per_event", "ns"},
	{"trace.decode_ns_per_event", "ns"},
	{"trace.overflow_share", "ratio"},
	{"trace.bytes_per_event", "B"},
	{"trace.live_buffers_delta", "count"},
	{"xeon.drain_ns_per_event", "ns"},
	{"xeon.gang_ns_per_event_per_config.k2", "ns"},
	{"xeon.gang_ns_per_event_per_config.k3", "ns"},
	{"xeon.snapshot_us", "us"},
	{"xeon.restore_us", "us"},
	{"harness.env_build_ms", "ms"},
	{"harness.warm_hit_ms", "ms"},
	{"harness.unit_ms.micro", "ms"},
	{"harness.unit_ms.tpcd", "ms"},
	{"harness.unit_ms.tpcc", "ms"},
	{"harness.depth_share.cold", "ratio"},
	{"harness.depth_share.trace", "ratio"},
	{"harness.depth_share.tally", "ratio"},
	{"serve.cold_p50_ms", "ms"},
	{"serve.trace_p50_ms", "ms"},
	{"serve.tally_p50_ms", "ms"},
	{"fanout.straggler_s", "s"},
	{"tracestore.get_entry_us", "us"},
	{"tracestore.put_trace_ms", "ms"},
	{"tracestore.get_trace_ms", "ms"},
	{"tracestore.flush_ms", "ms"},
	{"tracestore.disk_bytes_per_event", "B"},
	{"tracestore.entry_hit_share", "ratio"},
	{"tracestore.retries", "count"},
	{"tracestore.quarantined", "count"},
	{"server.simulations_per_request", "ratio"},
	{"server.coalesced_share", "ratio"},
	{"server.gangs_formed", "count"},
	{"server.mean_k", "count"},
	{"server.window_closes", "count"},
	{"server.cap_closes", "count"},
	{"server.failures", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.backlog", "count"},
}

// env is what a workload run needs from the command line.
type env struct {
	root    string // repository checkout
	build   string // build directory (binaries, caches, references)
	work    string // this run's scratch directory, removed at exit
	daemon  string // wheretimed binary
	seed    int64
	seconds int
	out     io.Writer // human-readable report
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	// invalid marks a run whose measurement cannot be trusted even
	// though every output was right (the load generator ran late).
	invalid bool
	metrics map[string]float64
}

func (o *outcome) fail(e *env, format string, args ...any) {
	o.failed++
	fmt.Fprintf(e.out, "FAIL: "+format+"\n", args...)
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, traced func(*env) (*outcome, error)
}{
	"grid-cold":   {runGridCold, tracedGridCold},
	"serve-warm":  {runServeWarm, tracedServeWarm},
	"serve-sweep": {runServeSweep, tracedServeSweep},
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: grid-cold, serve-warm or serve-sweep")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", 30, "measurement length in seconds")
		traceArg = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root     = flag.String("root", ".", "repository checkout to benchmark")
		build    = flag.String("build", ".bench_build", "build directory")
		daemon   = flag.String("daemon", "", "wheretimed binary (default <build>/bin/wheretimed)")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceArg != 0 && *traceArg != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload grid-cold|serve-warm|serve-sweep, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	if *daemon == "" {
		*daemon = filepath.Join(*build, "bin", "wheretimed")
	}
	e := &env{root: *root, build: *build, daemon: *daemon, seed: *seed, seconds: *seconds, out: os.Stdout}
	e.work = filepath.Join(*build, "work", fmt.Sprintf("%s-%d", *workload, os.Getpid()))
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(e.out, "perfbench: workload %s, seed %d, %d s, trace %d, %d CPUs, %s\n",
		*workload, *seed, *seconds, *traceArg, runtime.NumCPU(), runtime.Version())

	run, defs := w.run, endToEnd
	if *traceArg == 1 {
		run, defs = w.traced, perLayer
	}
	o, err := run(e)
	os.RemoveAll(e.work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	res := resultJSON{
		Correct:   o.failed == 0 && !o.invalid,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricJSON{Value: o.metrics[d.name], Unit: d.unit}
	}
	fmt.Fprintf(e.out, "failed_share: %d/%d = %.4f\n", o.failed, res.Attempted, float64(o.failed)/float64(res.Attempted))
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(e.out, string(b))
}

// fileDigest returns the SHA-256 of a file's bytes, the identity of a
// built binary: reference outputs are filed under it, so a rebuilt
// program never compares against a different program's outputs.
func fileDigest(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// checkReference compares got with the reference stored under name in
// the build directory, storing got when there is none yet. It reports
// whether they agree.
func checkReference(e *env, name string, got []byte) (bool, error) {
	path := filepath.Join(e.build, "refs", name)
	want, err := os.ReadFile(path)
	if err == nil {
		return string(want) == string(got), nil
	}
	if !os.IsNotExist(err) {
		return false, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return false, err
	}
	tmp := path + "." + strconv.Itoa(os.Getpid())
	if err := os.WriteFile(tmp, got, 0o644); err != nil {
		return false, err
	}
	return true, os.Rename(tmp, path)
}

// rssMiB reads a process's resident set (VmRSS) in MiB.
func rssMiB(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%s/status", pid)
}

// rssSampler keeps the largest resident set a process shows while it
// runs, sampled every 10 ms: the peak of the measured phase alone,
// where the process's VmHWM would also cover its set-up (a primed
// store, the benchmark's own set-up builds).
type rssSampler struct {
	stop chan struct{}
	done chan float64
}

func sampleRSS(pid string) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := 0.0
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			if v, err := rssMiB(pid); err == nil && v > peak {
				peak = v
			}
			select {
			case <-s.stop:
				s.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// peak stops the sampler and returns the largest sample.
func (s *rssSampler) peak() (float64, error) {
	close(s.stop)
	if v := <-s.done; v > 0 {
		return v, nil
	}
	return 0, fmt.Errorf("no resident-set sample could be read")
}
