// Command benchjson converts `go test -bench` text output (read from
// stdin) into a machine-readable JSON record, so benchmark runs can be
// committed and compared across PRs (BENCH_PR3.json and successors).
//
// Usage:
//
//	go test -bench=. -benchtime=1x -benchmem -run='^$' . | go run ./cmd/benchjson > BENCH.json
//	go run ./cmd/benchjson -compare BENCH_PR7.json BENCH.json
//
// -compare reads two records and fails (exit 1) if the fresh run's
// grid time regressed more than -threshold (default 10%) against the
// committed record — the nightly CI regression gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// Result is one parsed benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Record is the whole run.
type Record struct {
	Date       string   `json:"date"`
	CPU        string   `json:"cpu,omitempty"`
	GoVersion  string   `json:"go_version,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// gateBenchmarks are the series the -compare gate checks: the serial
// grid regenerating every figure is the product's wall-clock (the
// stable single-iteration series the record has carried since PR3 —
// the parallel and gang variants ride the same drain, and the micro
// series are too noisy at -benchtime=1x to gate on); the warm-start
// pair (cold store populate vs warm store load) and the
// compressed-vs-raw replay pair, the two optimization records whose
// regressions would silently erase their subsystems' wins.
var gateBenchmarks = []string{
	"BenchmarkGridSerial",
	"BenchmarkGridWarmStart/cold",
	"BenchmarkGridWarmStart/warm",
	"BenchmarkCompressedReplay/compressed",
	"BenchmarkCompressedReplay/raw",
}

func main() {
	compare := flag.Bool("compare", false, "compare two BENCH json records (old new) instead of converting stdin")
	threshold := flag.Float64("threshold", 0.10, "allowed fractional grid-time regression for -compare")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare wants exactly two record files (old new)")
			os.Exit(2)
		}
		if err := compareRecords(flag.Arg(0), flag.Arg(1), *threshold); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	convert()
}

// readRecord loads one committed or freshly written record.
func readRecord(path string) (Record, error) {
	var rec Record
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

func (r Record) find(name string) (Result, bool) {
	for _, b := range r.Benchmarks {
		if b.Name == name {
			return b, true
		}
	}
	return Result{}, false
}

// compareRecords fails if any gate benchmark present in both records
// regressed past the threshold. A gate series missing from either
// record is an error too — a silently vanished benchmark must not
// read as a pass.
func compareRecords(oldPath, newPath string, threshold float64) error {
	oldRec, err := readRecord(oldPath)
	if err != nil {
		return err
	}
	newRec, err := readRecord(newPath)
	if err != nil {
		return err
	}
	var failures []string
	for _, name := range gateBenchmarks {
		oldB, okOld := oldRec.find(name)
		newB, okNew := newRec.find(name)
		if !okOld || !okNew {
			return fmt.Errorf("gate benchmark %s missing from %s", name, map[bool]string{false: oldPath, true: newPath}[okOld])
		}
		if oldB.NsPerOp <= 0 {
			return fmt.Errorf("gate benchmark %s has no timing in %s", name, oldPath)
		}
		change := newB.NsPerOp/oldB.NsPerOp - 1
		status := "ok"
		if change > threshold {
			status = "REGRESSION"
			failures = append(failures, name)
		}
		fmt.Printf("%-28s %12.0f -> %12.0f ns/op  %+6.1f%%  %s\n",
			name, oldB.NsPerOp, newB.NsPerOp, change*100, status)
	}
	if len(failures) > 0 {
		return fmt.Errorf("grid time regressed >%0.f%% vs %s: %s",
			threshold*100, oldPath, strings.Join(failures, ", "))
	}
	return nil
}

// seriesName strips the "-<GOMAXPROCS>" suffix go test appends to
// every benchmark name on a multi-CPU host, so records taken on hosts
// of any width name the same series and the gate finds them.
func seriesName(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// convert is the original mode: bench text on stdin, JSON on stdout.
func convert() {
	rec := Record{Date: time.Now().UTC().Format(time.RFC3339)}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "cpu:"):
			rec.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "go version") || strings.HasPrefix(line, "goos:") ||
			strings.HasPrefix(line, "goarch:") || strings.HasPrefix(line, "pkg:"):
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Name: seriesName(fields[0]), Iterations: iters, Metrics: map[string]float64{}}
		// The remainder alternates value, unit.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			if fields[i+1] == "ns/op" {
				r.NsPerOp = v
			} else {
				r.Metrics[fields[i+1]] = v
			}
		}
		if len(r.Metrics) == 0 {
			r.Metrics = nil
		}
		rec.Benchmarks = append(rec.Benchmarks, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rec.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	os.Stdout.Write(append(out, '\n'))
}
