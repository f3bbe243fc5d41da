package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running wheretimed process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	// eof closes once the daemon's stderr is drained; Wait may only be
	// called after that.
	eof chan struct{}
	mu  sync.Mutex
	log []string // stderr lines after the listening line
}

// startDaemon starts the daemon at its default flags on a free port
// with the given store directory, and returns once /readyz answers 200,
// with the time that took.
func startDaemon(e *env, store string) (*daemon, time.Duration, error) {
	start := time.Now()
	cmd := exec.Command(e.daemon, "-addr", "127.0.0.1:0", "-store", store)
	// The daemon must not outlive the benchmark, even if the benchmark
	// is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, eof: make(chan struct{})}
	addr := make(chan string, 1)
	go d.readStderr(stderr, addr)

	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.eof:
		d.stop()
		return nil, 0, fmt.Errorf("wheretimed exited before listening: %s", d.logTail())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, 0, fmt.Errorf("wheretimed did not print its address within 30 s")
	}
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("wheretimed at %s never became ready", d.base)
		}
		time.Sleep(time.Millisecond)
	}
	client.CloseIdleConnections()
	return d, time.Since(start), nil
}

// readStderr forwards the listening address, keeps the other lines for
// diagnostics, and closes eof when the process closes its stderr.
func (d *daemon) readStderr(r io.Reader, addr chan<- string) {
	defer close(d.eof)
	sc := bufio.NewScanner(r)
	const prefix = "wheretimed: listening on "
	sent := false
	for sc.Scan() {
		line := sc.Text()
		if !sent && strings.HasPrefix(line, prefix) {
			addr <- strings.TrimPrefix(line, prefix)
			sent = true
			continue
		}
		d.mu.Lock()
		d.log = append(d.log, line)
		d.mu.Unlock()
	}
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := len(d.log); n > 5 {
		return strings.Join(d.log[n-5:], " | ")
	}
	return strings.Join(d.log, " | ")
}

// errUndrained reports a daemon that SIGTERM killed outright:
// cmd/wheretimed starts serving, and so answers /readyz, a moment
// before it subscribes to SIGTERM, so a stop right after readiness can
// land before the drain handler exists.
var errUndrained = errors.New("wheretimed was killed by SIGTERM before its drain handler was installed")

// stop drains the daemon with SIGTERM (SIGKILL after 60 s) and waits
// for the process to exit. It reports a drain that did not exit 0.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.eof:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-d.eof
	}
	err := d.cmd.Wait()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return errUndrained
		}
	}
	if err != nil {
		return fmt.Errorf("wheretimed drain: %v (%s)", err, d.logTail())
	}
	return nil
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// health mirrors the /healthz counters the benchmark reads.
type health struct {
	Requests    int64 `json:"requests"`
	Simulations int64 `json:"simulations"`
	Coalesced   int64 `json:"coalesced"`
	Failures    int64 `json:"failures"`
	Batch       struct {
		GangsFormed  int64 `json:"gangsFormed"`
		WindowCloses int64 `json:"windowCloses"`
		CapCloses    int64 `json:"capCloses"`
		Batched      int64 `json:"batchedRequests"`
	} `json:"batch"`
	Store struct {
		EntryHits     int64 `json:"entryHits"`
		EntryMisses   int64 `json:"entryMisses"`
		TraceHits     int64 `json:"traceHits"`
		TracesWritten int64 `json:"tracesWritten"`
		Retries       int64 `json:"retries"`
		Quarantined   int64 `json:"quarantined"`
		ReadOnly      bool  `json:"readOnly"`
	} `json:"store"`
}

func (d *daemon) health() (health, error) {
	var h health
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(d.base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("/healthz: %s", resp.Status)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// serverMetrics turns the /healthz deltas of a measured phase into the
// server and store per-layer metrics.
func serverMetrics(h0, h1 health, m map[string]float64) {
	req := float64(h1.Requests - h0.Requests)
	if req > 0 {
		m["server.simulations_per_request"] = float64(h1.Simulations-h0.Simulations) / req
		m["server.coalesced_share"] = float64(h1.Coalesced-h0.Coalesced) / req
	}
	gangs := h1.Batch.GangsFormed - h0.Batch.GangsFormed
	m["server.gangs_formed"] = float64(gangs)
	if gangs > 0 {
		m["server.mean_k"] = float64(h1.Batch.Batched-h0.Batch.Batched) / float64(gangs)
	}
	m["server.window_closes"] = float64(h1.Batch.WindowCloses - h0.Batch.WindowCloses)
	m["server.cap_closes"] = float64(h1.Batch.CapCloses - h0.Batch.CapCloses)
	m["server.failures"] = float64(h1.Failures - h0.Failures)
	hits, misses := h1.Store.EntryHits-h0.Store.EntryHits, h1.Store.EntryMisses-h0.Store.EntryMisses
	if hits+misses > 0 {
		m["tracestore.entry_hit_share"] = float64(hits) / float64(hits+misses)
	}
	m["tracestore.retries"] = float64(h1.Store.Retries - h0.Store.Retries)
	m["tracestore.quarantined"] = float64(h1.Store.Quarantined - h0.Store.Quarantined)
}
