package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"wheretime/internal/faults"
	"wheretime/internal/harness"
	"wheretime/internal/trace"
	"wheretime/internal/tracestore"
)

// testOpts is the fast base option set every server test shares: the
// golden-suite scale, one warm-up run.
func testOpts() harness.Options {
	opts := harness.DefaultOptions()
	opts.Scale = 0.002
	return opts
}

// newTestServer assembles a server (optionally with a store and an
// injector) and its httptest front end; both are torn down with the
// test.
func newTestServer(t *testing.T, store *tracestore.Store, inj *faults.Injector) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{
		Opts:  testOpts(),
		Store: store,
		Inj:   inj,
		Logf:  t.Logf,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// postCell POSTs one cell-spec body and returns status and body.
func postCell(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/cells", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, b
}

// health fetches and decodes /healthz.
func health(t *testing.T, url string) healthJSON {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var h healthJSON
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	return h
}

const srsCell = `{"kind":"micro","system":"B","query":"SRS"}`

// TestCoalescedRequests pins the singleflight contract: N concurrent
// identical POSTs cost one simulation, and every caller gets the same
// bytes. A worker gate holds the leader's flight open until every
// follower has provably attached — no guessed latency.
func TestCoalescedRequests(t *testing.T) {
	store, err := tracestore.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	inj := faults.New()
	entered, release := inj.BlockN(faults.OpWorker, 1)
	srv, ts := newTestServer(t, store, inj)

	const n = 6
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, b := postCell(t, ts.URL, srsCell)
			if status != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, status, b)
			}
			bodies[i] = b
		}(i)
	}
	<-entered // the leader is inside the worker
	spinUntil(t, "followers to coalesce", func() bool { return srv.coalesced.Load() == n-1 })
	release()
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Errorf("request %d body differs from request 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}

	h := health(t, ts.URL)
	if h.Simulations+h.Coalesced != n {
		t.Errorf("simulations %d + coalesced %d != %d requests", h.Simulations, h.Coalesced, n)
	}
	if h.Coalesced < 1 {
		t.Error("no request coalesced")
	}

	// A repeat after the flight landed opens no flight at all: the
	// stored tally answers it before the singleflight layer.
	status, b := postCell(t, ts.URL, srsCell)
	if status != http.StatusOK || !bytes.Equal(b, bodies[0]) {
		t.Errorf("repeat: status %d, body equal=%v", status, bytes.Equal(b, bodies[0]))
	}
	if h2 := health(t, ts.URL); h2.TallyHits != 1 || h2.Simulations != h.Simulations {
		t.Errorf("repeat: tallyHits %d (want 1), simulations %d -> %d (want unchanged)",
			h2.TallyHits, h.Simulations, h2.Simulations)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestTallyHitSkipsMachinery pins the store-first read path: once a
// cell's tally is stored, a repeat is answered on the request
// goroutine without a flight, a batching window, a worker slot or the
// worker fault hook. The worker gate is armed and never released, and
// the batching server's fake clock never advances, so a repeat that
// touched either would never answer. The body must equal the priming
// response and a store-less control server's, tallyHits must count
// the hit, and simulations must not move. Once draining, the same
// request answers 503 without even reading the store.
func TestTallyHitSkipsMachinery(t *testing.T) {
	_, control := newTestServer(t, nil, nil)
	status, want := postCell(t, control.URL, srsCell)
	if status != http.StatusOK {
		t.Fatalf("control: status %d: %s", status, want)
	}
	for _, tc := range []struct {
		name    string
		batched bool
	}{{"unbatched", false}, {"batched", true}} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := tracestore.Open(t.TempDir())
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			_, primer := newTestServer(t, store, nil)
			status, primed := postCell(t, primer.URL, srsCell)
			if status != http.StatusOK {
				t.Fatalf("priming: status %d: %s", status, primed)
			}

			inj := faults.New()
			entered, release := inj.BlockN(faults.OpWorker, 1) // never released on success
			cfg := Config{Opts: testOpts(), Store: store, Inj: inj, Logf: t.Logf}
			if tc.batched {
				cfg.GangWindow, cfg.clk = time.Hour, newFakeClock() // never advanced
			}
			srv, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)

			var r postResult
			select {
			case r = <-asyncPost(t, ts.URL, srsCell):
			case <-entered:
				release()
				t.Fatal("the repeat took a worker slot")
			case <-time.After(10 * time.Second):
				srv.BeginDrain() // flush a held window so cleanup can finish
				release()
				t.Fatal("the repeat is held: it waits in a batching window or for a worker")
			}
			if r.status != http.StatusOK {
				t.Fatalf("repeat: status %d: %s", r.status, r.body)
			}
			if !bytes.Equal(r.body, primed) || !bytes.Equal(r.body, want) {
				t.Errorf("repeat body differs:\n%s\npriming:\n%s\ncontrol:\n%s", r.body, primed, want)
			}
			h := health(t, ts.URL)
			if h.TallyHits != 1 || h.Simulations != 0 || h.Coalesced != 0 {
				t.Errorf("tallyHits %d simulations %d coalesced %d, want 1, 0, 0",
					h.TallyHits, h.Simulations, h.Coalesced)
			}
			if tc.batched && h.Batch.BatchedRequests != 0 {
				t.Errorf("a tally hit entered a batching window: %+v", h.Batch)
			}

			st0 := store.Stats()
			srv.BeginDrain()
			if status, b := postCell(t, ts.URL, srsCell); status != http.StatusServiceUnavailable {
				t.Errorf("stored cell while draining: status %d, want 503: %s", status, b)
			}
			st1 := store.Stats()
			if h := health(t, ts.URL); h.TallyHits != 1 || st1.EntryHits != st0.EntryHits || st1.EntryMisses != st0.EntryMisses {
				t.Errorf("a draining server looked the tally up: tallyHits %d, entry hits %d -> %d, misses %d -> %d",
					h.TallyHits, st0.EntryHits, st1.EntryHits, st0.EntryMisses, st1.EntryMisses)
			}
			if err := srv.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		})
	}
}

// TestCorruptStoreQuarantineAndRecompute is the acceptance scenario:
// corrupt every stored trace file, request a cell that warm-starts
// from them, and require (a) quarantine, (b) a correct cold
// recompute — byte-identical to what a fresh-store server answers.
func TestCorruptStoreQuarantineAndRecompute(t *testing.T) {
	dir := t.TempDir()
	store, err := tracestore.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	srv, ts := newTestServer(t, store, nil)

	if status, b := postCell(t, ts.URL, srsCell); status != http.StatusOK {
		t.Fatalf("seed request: status %d: %s", status, b)
	}
	traces, err := filepath.Glob(filepath.Join(dir, "tr-*.trace"))
	if err != nil || len(traces) == 0 {
		t.Fatalf("no trace files written (%v)", err)
	}
	for _, p := range traces {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		data[len(data)-1] ^= 0xff
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatalf("corrupt %s: %v", p, err)
		}
	}

	// A platform variant of the same cell shares the emission key, so
	// its measurement tries to warm-start from the now-corrupt traces.
	variant := `{"kind":"micro","system":"B","query":"SRS","l2kb":1024}`
	status, got := postCell(t, ts.URL, variant)
	if status != http.StatusOK {
		t.Fatalf("variant request: status %d: %s", status, got)
	}
	h := health(t, ts.URL)
	if h.Store == nil || h.Store.Quarantined < 1 {
		t.Fatalf("no quarantine recorded: %+v", h.Store)
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "tr-*.trace.corrupt")); len(matches) == 0 {
		t.Error("no quarantined trace file on disk")
	}

	// The recompute is correct: a server over a fresh store answers
	// the identical bytes (the response carries no timestamps or
	// server identity).
	fresh, err := tracestore.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open fresh: %v", err)
	}
	srv2, ts2 := newTestServer(t, fresh, nil)
	status2, want := postCell(t, ts2.URL, variant)
	if status2 != http.StatusOK {
		t.Fatalf("fresh request: status %d: %s", status2, want)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("recompute after corruption differs from fresh compute:\n%s\nvs\n%s", got, want)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := srv2.Close(); err != nil {
		t.Errorf("Close fresh: %v", err)
	}
}

// TestRequestTimeout: a request whose deadline passes answers 504,
// the next request succeeds, and tearing the server down leaves no
// goroutines or trace buffers behind. The deadline is driven by the
// fake clock: the worker blocks at the fault gate, the clock advances
// past the request deadline, and only then is the worker released
// into the (now expired) measurement context.
func TestRequestTimeout(t *testing.T) {
	c0, e0, b0 := trace.LiveBuffers()
	g0 := runtime.NumGoroutine()

	inj := faults.New()
	entered, release := inj.BlockN(faults.OpWorker, 1)
	fc := newFakeClock()
	srv, err := New(Config{Opts: testOpts(), Inj: inj, Logf: t.Logf, clk: fc})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	slow := `{"kind":"micro","system":"B","query":"SRS","timeoutMs":50}`
	type result struct {
		status int
		body   []byte
	}
	done := make(chan result, 1)
	go func() {
		status, b := postCell(t, ts.URL, slow)
		done <- result{status, b}
	}()
	<-entered // the worker holds the request's deadline context open
	fc.Advance(51 * time.Millisecond)
	release()
	r := <-done
	status, b := r.status, r.body
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", status, b)
	}
	if !bytes.Contains(b, []byte("deadline")) {
		t.Errorf("504 body does not mention the deadline: %s", b)
	}
	if status, b := postCell(t, ts.URL, srsCell); status != http.StatusOK {
		t.Fatalf("request after timeout: status %d: %s", status, b)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	ts.Close()
	http.DefaultClient.CloseIdleConnections()

	if c, e, bl := trace.LiveBuffers(); c != c0 || e != e0 || bl != b0 {
		t.Errorf("leaked trace buffers: chunks %d->%d encBufs %d->%d blocks %d->%d", c0, c, e0, e, b0, bl)
	}
	// Goroutines take a moment to unwind after Close; yield, don't sleep.
	spinUntil(t, "goroutines to unwind", func() bool { return runtime.NumGoroutine() <= g0+2 })
}

// TestWorkerPanicRecovered: an injected worker panic answers 500 and
// the server keeps serving.
func TestWorkerPanicRecovered(t *testing.T) {
	inj := faults.New()
	inj.PanicN(faults.OpWorker, 1, "blown fuse")
	srv, ts := newTestServer(t, nil, inj)

	status, b := postCell(t, ts.URL, srsCell)
	if status != http.StatusInternalServerError || !bytes.Contains(b, []byte("panic")) {
		t.Fatalf("status %d, body %s; want a 500 naming the panic", status, b)
	}
	if status, b := postCell(t, ts.URL, srsCell); status != http.StatusOK {
		t.Fatalf("request after panic: status %d: %s", status, b)
	}
	if h := health(t, ts.URL); h.Failures < 1 {
		t.Errorf("failures = %d, want >= 1", h.Failures)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestDrainCompletesInFlight: draining flips /readyz and refuses new
// cells while a request already in flight runs to completion. The
// worker gate proves the flight is open before drain begins.
func TestDrainCompletesInFlight(t *testing.T) {
	inj := faults.New()
	entered, release := inj.BlockN(faults.OpWorker, 1)
	srv, ts := newTestServer(t, nil, inj)

	if resp, err := http.Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %v %v", resp, err)
	}

	type result struct {
		status int
		body   []byte
	}
	done := make(chan result, 1)
	go func() {
		status, b := postCell(t, ts.URL, srsCell)
		done <- result{status, b}
	}()
	<-entered // the flight is open and inside the worker
	srv.BeginDrain()

	if resp, err := http.Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: %v %v, want 503", resp, err)
	}
	if status, _ := postCell(t, ts.URL, srsCell); status != http.StatusServiceUnavailable {
		t.Errorf("new cell during drain: status %d, want 503", status)
	}
	release()
	r := <-done
	if r.status != http.StatusOK {
		t.Errorf("in-flight request during drain: status %d: %s", r.status, r.body)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestReadOnlyStoreDegraded: when every store write fails, the
// measurement still answers, /healthz reports degraded, and Close
// surfaces ErrReadOnly for the staged entries it could not flush.
func TestReadOnlyStoreDegraded(t *testing.T) {
	store, err := tracestore.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	inj := faults.New()
	inj.FailN(faults.OpWrite, -1, errors.New("disk on fire"))
	store.SetFaults(inj)
	srv, ts := newTestServer(t, store, nil)

	if status, b := postCell(t, ts.URL, srsCell); status != http.StatusOK {
		t.Fatalf("status %d with a failing store: %s", status, b)
	}
	h := health(t, ts.URL)
	if h.Status != "degraded" || h.Store == nil || !h.Store.ReadOnly || h.Store.WriteFailures < 1 {
		t.Errorf("healthz = %+v store=%+v, want degraded/read-only", h, h.Store)
	}
	if err := srv.Close(); !errors.Is(err, tracestore.ErrReadOnly) {
		t.Errorf("Close = %v, want ErrReadOnly", err)
	}
}

// TestSpecValidation drives the request decoder through the 400
// surface and the normalization contract.
func TestSpecValidation(t *testing.T) {
	opts := testOpts()
	bad := []struct {
		name, body, wantErr string
	}{
		{"empty", ``, "invalid cell spec"},
		{"not json", `{"kind":`, "invalid cell spec"},
		{"trailing", `{"kind":"micro","system":"B","query":"SRS"} 1`, "trailing data"},
		{"unknown field", `{"kind":"micro","system":"B","query":"SRS","bogus":1}`, "bogus"},
		{"bad kind", `{"kind":"macro","system":"B"}`, "unknown kind"},
		{"bad system", `{"kind":"micro","system":"E","query":"SRS"}`, "unknown system"},
		{"lowercase system", `{"kind":"micro","system":"b","query":"SRS"}`, "unknown system"},
		{"bad query", `{"kind":"micro","system":"B","query":"DROP"}`, "unknown query"},
		{"selectivity high", `{"kind":"micro","system":"B","query":"SRS","selectivity":1.5}`, "selectivity"},
		{"recsize odd", `{"kind":"micro","system":"B","query":"SRS","recordSize":27}`, "recordSize"},
		{"recsize huge", `{"kind":"micro","system":"B","query":"SRS","recordSize":65536}`, "recordSize"},
		{"txns on micro", `{"kind":"micro","system":"B","query":"SRS","txns":5}`, "txns"},
		{"tpcd with query", `{"kind":"tpcd","system":"B","query":"SRS"}`, "tpcd"},
		{"tpcd with recsize", `{"kind":"tpcd","system":"B","recordSize":100}`, "tpcd"},
		{"tpcc without txns", `{"kind":"tpcc","system":"C"}`, "txns"},
		{"tpcc txns huge", `{"kind":"tpcc","system":"C","txns":1000000}`, "txns"},
		{"bad platform", `{"kind":"micro","system":"B","query":"SRS","l2kb":-1}`, "platform"},
		{"negative timeout", `{"kind":"micro","system":"B","query":"SRS","timeoutMs":-1}`, "timeoutMs"},
		{"IRS on A", `{"kind":"micro","system":"A","query":"IRS"}`, "does not run IRS"},
		{"BRS on A", `{"kind":"micro","system":"A","query":"BRS"}`, "does not run BRS"},
		{"IXJ on A", `{"kind":"micro","system":"A","query":"IXJ"}`, "does not run IXJ"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := decodeSpec(opts, time.Minute, strings.NewReader(tc.body))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("decodeSpec(%s) = %v, want error containing %q", tc.body, err, tc.wantErr)
			}
		})
	}

	// Normalization: omitted fields fill from the base options, so an
	// explicit default and an omitted one produce the same tally key.
	implicit, dt, err := decodeSpec(opts, time.Minute, strings.NewReader(srsCell))
	if err != nil {
		t.Fatalf("decodeSpec: %v", err)
	}
	explicit, _, err := decodeSpec(opts, time.Minute, strings.NewReader(
		fmt.Sprintf(`{"kind":"micro","system":"B","query":"SRS","selectivity":%g,"recordSize":%d}`,
			opts.Selectivity, opts.RecordSize)))
	if err != nil {
		t.Fatalf("decodeSpec explicit: %v", err)
	}
	if implicit != explicit {
		t.Errorf("normalized specs differ:\n%+v\nvs\n%+v", implicit, explicit)
	}
	if harness.TallyKey(opts, implicit) != harness.TallyKey(opts, explicit) {
		t.Error("tally keys differ for equivalent requests")
	}
	if dt != time.Minute {
		t.Errorf("default timeout = %v, want the ceiling", dt)
	}
	// timeoutMs clamps to the ceiling; below it, it wins.
	if _, dt, _ := decodeSpec(opts, time.Minute, strings.NewReader(
		`{"kind":"micro","system":"B","query":"SRS","timeoutMs":50}`)); dt != 50*time.Millisecond {
		t.Errorf("timeoutMs 50 -> %v", dt)
	}
	if _, dt, _ := decodeSpec(opts, time.Second, strings.NewReader(
		`{"kind":"micro","system":"B","query":"SRS","timeoutMs":5000}`)); dt != time.Second {
		t.Errorf("timeoutMs above ceiling -> %v, want clamp to 1s", dt)
	}

	// An HTTP-level check that a 400 carries the JSON error shape.
	_, ts := newTestServer(t, nil, nil)
	status, b := postCell(t, ts.URL, `{"kind":"macro","system":"B"}`)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", status)
	}
	var e map[string]string
	if err := json.Unmarshal(b, &e); err != nil || e["error"] == "" {
		t.Errorf("400 body %q is not the JSON error shape", b)
	}
}
