// Package server implements wheretimed, the fault-tolerant experiment
// service: an HTTP front end over the harness grid that measures one
// cell per request, coalesces identical in-flight requests into a
// single simulation, memoizes results through the shared trace/tally
// store, and degrades — rather than dies — when the store or a worker
// misbehaves.
//
// The API surface is three routes:
//
//	POST /v1/cells  measure one cell. The body is a cell spec (see
//	                spec.go); the response is the costed tally: the
//	                execution-time breakdown in Table 3.1 component
//	                order, the query result, and the normalized spec
//	                the server actually measured.
//	GET  /healthz   liveness plus operational counters: request /
//	                simulation / coalesce / tally-hit / failure totals
//	                and the store's traffic and degraded-mode stats.
//	GET  /readyz    readiness: 503 once draining begins.
//
// A cell whose tally the store already holds is answered first, on the
// request goroutine, straight from the stored entry
// (harness.LookupTally): no flight, no batching window, no worker slot
// and no simulator environment. Everything else takes the measuring
// path. Concurrent requests for the same cell coalesce on the harness
// tally key — the same key the warm-start store memoizes under — so N
// identical POSTs cost one simulation and N identical response bodies
// (the response is marshaled once per flight). Distinct cells that
// share a gang key — platform-only variants of one workload — can go
// further: with Config.GangWindow > 0 the gang batcher (batcher.go)
// holds such requests in a bounded accumulation window and runs the
// whole batch as one gang work unit, so K configs cost one workload
// execution. Remaining distinct cells run under a bounded worker
// pool. Per-request deadlines propagate into harness.MeasureContext,
// which stops the grid at the next cell/re-execution barrier; a
// request that times out — even while held in a batching window —
// returns 504 without leaking goroutines or trace buffers. A
// panicking worker answers 500 and the server keeps serving. Draining
// (SIGTERM in cmd/wheretimed) flushes half-full batching windows,
// lets in-flight measurements finish, then flushes the store.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"wheretime/internal/core"
	"wheretime/internal/faults"
	"wheretime/internal/harness"
	"wheretime/internal/tracestore"
)

// DefaultTimeout is the per-request simulation deadline when the
// config leaves it zero; it is also the ceiling a request's timeoutMs
// is clamped to.
const DefaultTimeout = 60 * time.Second

// DefaultMaxConcurrent bounds simultaneous simulations when the
// config leaves it zero. Each simulation is single-threaded and
// memory-hungry (databases plus trace arenas), so the pool stays
// small by default.
const DefaultMaxConcurrent = 2

// Config assembles a Server.
type Config struct {
	// Opts are the base harness options; request fields missing from a
	// cell spec default from here, so Opts fixes the dataset scale,
	// warm-up protocol and base platform for every request.
	Opts harness.Options
	// Store, when non-nil, memoizes tallies and traces across
	// requests and restarts. The caller keeps ownership; Close flushes
	// it.
	Store *tracestore.Store
	// Timeout is the per-request deadline and ceiling (0 =
	// DefaultTimeout).
	Timeout time.Duration
	// MaxConcurrent bounds simultaneous simulations (0 =
	// DefaultMaxConcurrent).
	MaxConcurrent int
	// GangWindow, when positive, turns on the gang batcher: requests
	// whose specs share a gang key accumulate for up to this long (or
	// until GangMax of them arrive) and run as one gang work unit.
	// Zero disables batching — every request dispatches immediately.
	GangWindow time.Duration
	// GangMax caps how many requests one accumulation window may
	// collect before closing early (0 = DefaultGangMax). Only
	// meaningful when GangWindow > 0.
	GangMax int
	// Inj, when non-nil, injects faults into the worker pool
	// (faults.OpWorker). Test-only.
	Inj *faults.Injector
	// Logf, when non-nil, receives one line per server-side failure.
	Logf func(format string, args ...any)

	// clk, when non-nil, replaces the real clock. Test-only: the fake
	// clock drives window and deadline logic without sleeping.
	clk clock
}

// Server is the wheretimed HTTP service. Create with New, expose
// Handler, shut down with Close.
type Server struct {
	opts    harness.Options
	store   *tracestore.Store
	timeout time.Duration
	inj     *faults.Injector
	logf    func(format string, args ...any)

	base    context.Context
	stop    context.CancelFunc
	clk     clock
	sem     chan struct{}
	flights group
	batch   *batcher // nil when batching is off
	mux     *http.ServeMux

	draining    atomic.Bool
	requests    atomic.Int64
	simulations atomic.Int64 // measurements that held a worker slot
	coalesced   atomic.Int64
	tallyHits   atomic.Int64 // answered from a stored tally, no slot
	failures    atomic.Int64
}

// New validates the configuration and assembles a server.
func New(cfg Config) (*Server, error) {
	if err := cfg.Opts.Validate(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if err := cfg.Opts.Config.Validate(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if cfg.Store != nil {
		cfg.Opts.Store = cfg.Store
		cfg.Opts.StoreDir = ""
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = DefaultMaxConcurrent
	}
	if cfg.GangWindow < 0 {
		return nil, fmt.Errorf("server: negative gang window %v", cfg.GangWindow)
	}
	if cfg.GangMax < 0 {
		return nil, fmt.Errorf("server: negative gang max %d", cfg.GangMax)
	}
	if cfg.GangMax == 0 {
		cfg.GangMax = DefaultGangMax
	}
	if cfg.clk == nil {
		cfg.clk = realClock{}
	}
	base, stop := context.WithCancel(context.Background())
	s := &Server{
		opts:    cfg.Opts,
		store:   cfg.Store,
		timeout: cfg.Timeout,
		inj:     cfg.Inj,
		logf:    cfg.Logf,
		base:    base,
		stop:    stop,
		clk:     cfg.clk,
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		mux:     http.NewServeMux(),
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	if cfg.GangWindow > 0 {
		s.batch = newBatcher(s, cfg.GangWindow, cfg.GangMax)
	}
	s.mux.HandleFunc("/v1/cells", s.handleCells)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain stops admitting new cell requests (503), flips /readyz
// unready, and flushes any half-full batching windows so shutdown
// never waits out an accumulation window; in-flight measurements keep
// running. Idempotent.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	if s.batch != nil {
		s.batch.flush()
	}
}

// Draining reports whether drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close drains, waits for every open flight to land, and flushes the
// store. A read-only store flushes nothing and Close returns
// ErrReadOnly — the caller decides whether losing the staged entries
// is fatal (the daemon logs it and still exits cleanly).
func (s *Server) Close() error {
	s.BeginDrain()
	s.flights.wait()
	if s.batch != nil {
		s.batch.wait()
	}
	s.stop()
	if s.store != nil {
		if err := s.store.Flush(); err != nil {
			return fmt.Errorf("server: flushing store: %w", err)
		}
	}
	return nil
}

// errBody renders one error as the JSON error shape every non-200
// response uses.
func errBody(msg string) []byte {
	b, _ := json.Marshal(map[string]string{"error": msg})
	return append(b, '\n')
}

// writeBody writes one prepared JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// handleCells answers one cell: from its stored tally when the store
// has one, else by measuring it, coalescing concurrent identical
// requests into a single flight.
func (s *Server) handleCells(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodPost {
		writeBody(w, http.StatusMethodNotAllowed, errBody("method not allowed"))
		return
	}
	if s.draining.Load() {
		writeBody(w, http.StatusServiceUnavailable, errBody("server is draining"))
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	spec, timeout, err := decodeSpec(s.opts, s.timeout, body)
	if err != nil {
		writeBody(w, http.StatusBadRequest, errBody(err.Error()))
		return
	}
	key := harness.TallyKey(s.opts, spec)
	if cell, ok := harness.LookupTally(s.opts, spec); ok {
		// The answer is already stored: render it here, ahead of every
		// piece of measuring machinery. A miss costs one in-memory
		// index lookup and takes the path below unchanged.
		s.tallyHits.Add(1)
		status, b := s.render(key, spec, cell)
		writeBody(w, status, b)
		return
	}
	f, leader := s.flights.do(key, func() (int, []byte) {
		if s.batch != nil {
			return s.runBatched(key, spec, timeout)
		}
		return s.runCell(key, spec, timeout)
	})
	if !leader {
		s.coalesced.Add(1)
	}
	select {
	case <-f.done:
		writeBody(w, f.status, f.body)
	case <-r.Context().Done():
		// The client went away. The flight keeps running — other
		// followers (and the tally store) still want the result.
	}
}

// runCell is the flight body: it runs one measurement under the
// worker-pool semaphore and the request deadline, and renders the one
// response body every coalesced request shares. Panics — whether from
// the fault injector or a real bug — are contained here: the flight
// answers 500 and the server keeps serving.
func (s *Server) runCell(key string, spec harness.CellSpec, timeout time.Duration) (status int, body []byte) {
	defer func() {
		if p := recover(); p != nil {
			s.failures.Add(1)
			s.logf("wheretimed: worker panic: %v", p)
			status, body = http.StatusInternalServerError,
				errBody(fmt.Sprintf("internal: worker panic: %v", p))
		}
	}()
	ctx, cancel := s.clk.WithTimeout(s.base, timeout)
	defer cancel()
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.failures.Add(1)
		return http.StatusGatewayTimeout, errBody("deadline exceeded waiting for a worker")
	}
	defer func() { <-s.sem }()
	if err := s.inj.Apply(faults.OpWorker, key); err != nil {
		s.failures.Add(1)
		return http.StatusInternalServerError, errBody("internal: " + err.Error())
	}
	s.simulations.Add(1)
	res, err := harness.MeasureContext(ctx, s.opts, []harness.CellSpec{spec}, 1)
	if err != nil {
		s.failures.Add(1)
		if errors.Is(err, context.DeadlineExceeded) {
			return http.StatusGatewayTimeout, errBody("deadline exceeded: " + err.Error())
		}
		s.logf("wheretimed: measuring %s: %v", spec, err)
		return http.StatusInternalServerError, errBody("internal: " + err.Error())
	}
	return s.cellBody(key, spec, res)
}

// cellBody renders one spec's response from a measured result set —
// the shared tail of the solo and gang paths.
func (s *Server) cellBody(key string, spec harness.CellSpec, res *harness.Results) (int, []byte) {
	cell, err := res.Get(spec)
	if err != nil {
		s.failures.Add(1)
		return http.StatusInternalServerError, errBody("internal: " + err.Error())
	}
	return s.render(key, spec, cell)
}

// render marshals one cell's response. Every 200 body — solo, gang
// member or stored tally — comes from here, so the three paths answer
// byte-identical bytes for the same cell.
func (s *Server) render(key string, spec harness.CellSpec, cell harness.Cell) (int, []byte) {
	b, err := json.Marshal(buildResponse(key, spec, cell))
	if err != nil {
		s.failures.Add(1)
		return http.StatusInternalServerError, errBody("internal: " + err.Error())
	}
	return http.StatusOK, append(b, '\n')
}

// componentJSON is one breakdown component, in Table 3.1 order.
type componentJSON struct {
	Component string  `json:"component"`
	Cycles    float64 `json:"cycles"`
}

// resultJSON carries the query result; Value is omitted when the
// aggregate is undefined (NaN over zero rows), since JSON has no NaN.
type resultJSON struct {
	Value *float64 `json:"value,omitempty"`
	Rows  uint64   `json:"rows"`
}

// cellResponse is the body of a successful POST /v1/cells: a pure
// function of (server options, normalized spec) — no timestamps, no
// identity — so coalesced and recomputed answers are byte-comparable.
type cellResponse struct {
	Key         string          `json:"key"`
	Spec        specJSON        `json:"spec"`
	TotalCycles float64         `json:"totalCycles"`
	Cycles      []componentJSON `json:"cycles"`
	Result      resultJSON      `json:"result"`
}

// buildResponse renders one measured cell.
func buildResponse(key string, spec harness.CellSpec, cell harness.Cell) cellResponse {
	resp := cellResponse{
		Key:         key,
		Spec:        specEcho(spec),
		TotalCycles: cell.Breakdown.Total(),
		Result:      resultJSON{Rows: cell.Result.Rows},
	}
	if v := cell.Result.Value; !math.IsNaN(v) && !math.IsInf(v, 0) {
		resp.Result.Value = &v
	}
	for _, c := range core.Components() {
		resp.Cycles = append(resp.Cycles, componentJSON{
			Component: c.String(),
			Cycles:    cell.Breakdown.Cycles[c],
		})
	}
	return resp
}

// storeJSON is the store section of /healthz.
type storeJSON struct {
	Dir           string `json:"dir"`
	EntryHits     int    `json:"entryHits"`
	EntryMisses   int    `json:"entryMisses"`
	TraceHits     int    `json:"traceHits"`
	TracesWritten int    `json:"tracesWritten"`
	EntriesAdded  int    `json:"entriesAdded"`
	Retries       int    `json:"retries"`
	Quarantined   int    `json:"quarantined"`
	WriteFailures int    `json:"writeFailures"`
	ReadOnly      bool   `json:"readOnly"`
}

// batchJSON is the gang-batcher section of /healthz, present only
// when batching is on.
type batchJSON struct {
	WindowMs        float64 `json:"windowMs"`
	GangMax         int     `json:"gangMax"`
	BatchedRequests int64   `json:"batchedRequests"`
	GangsFormed     int64   `json:"gangsFormed"`
	MeanK           float64 `json:"meanK"` // live members per dispatched gang
	WindowCloses    int64   `json:"windowCloses"`
	CapCloses       int64   `json:"capCloses"`
	DrainFlushes    int64   `json:"drainFlushes"`
}

// healthJSON is the body of /healthz.
type healthJSON struct {
	Status      string     `json:"status"` // "ok" or "degraded"
	Draining    bool       `json:"draining"`
	Requests    int64      `json:"requests"`
	Simulations int64      `json:"simulations"`
	Coalesced   int64      `json:"coalesced"`
	TallyHits   int64      `json:"tallyHits"`
	Failures    int64      `json:"failures"`
	Batch       *batchJSON `json:"batch,omitempty"`
	Store       *storeJSON `json:"store,omitempty"`
}

// handleHealthz reports liveness and the operational counters. Always
// 200: a degraded store is a reason to page, not to restart the
// process (Status says which).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := healthJSON{
		Status:      "ok",
		Draining:    s.draining.Load(),
		Requests:    s.requests.Load(),
		Simulations: s.simulations.Load(),
		Coalesced:   s.coalesced.Load(),
		TallyHits:   s.tallyHits.Load(),
		Failures:    s.failures.Load(),
	}
	if bt := s.batch; bt != nil {
		bj := &batchJSON{
			WindowMs:        float64(bt.window) / float64(time.Millisecond),
			GangMax:         bt.max,
			BatchedRequests: bt.batched.Load(),
			GangsFormed:     bt.gangs.Load(),
			WindowCloses:    bt.windowCloses.Load(),
			CapCloses:       bt.capCloses.Load(),
			DrainFlushes:    bt.drainFlushes.Load(),
		}
		if bj.GangsFormed > 0 {
			bj.MeanK = float64(bt.gangMembers.Load()) / float64(bj.GangsFormed)
		}
		h.Batch = bj
	}
	if s.store != nil {
		st := s.store.Stats()
		h.Store = &storeJSON{
			Dir:           s.store.Dir(),
			EntryHits:     st.EntryHits,
			EntryMisses:   st.EntryMisses,
			TraceHits:     st.TraceHits,
			TracesWritten: st.TracesWritten,
			EntriesAdded:  st.EntriesAdded,
			Retries:       st.Retries,
			Quarantined:   st.Quarantined,
			WriteFailures: st.WriteFailures,
			ReadOnly:      st.ReadOnly,
		}
		if st.ReadOnly {
			h.Status = "degraded"
		}
	}
	b, _ := json.Marshal(h)
	writeBody(w, http.StatusOK, append(b, '\n'))
}

// handleReadyz is the load-balancer probe: 503 once draining.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}
