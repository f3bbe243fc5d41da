package server

// The gang batcher: dynamic request batching between the singleflight
// layer and the worker pool. Incoming cell requests whose specs share
// a harness gang key — same workload, same protocol, any platform —
// accumulate in a short per-key window instead of dispatching
// immediately; when the window expires (or the batch hits its cap)
// the whole batch runs as ONE gang work unit through
// harness.MeasureGang, so K platform variants cost one workload
// execution instead of K. Each waiter receives exactly the response
// bytes it would have gotten solo (the gang equivalence suite pins
// cell-level bit-identity, and the batcher tests pin the marshaled
// bodies against a -gangwindow=0 control server).
//
// The batcher rides the PR 9 cancellation contract:
//
//   - a departing client never kills the gang — the flight (and its
//     member) keep running for the followers and the store;
//   - a member's deadline covers its hold time: the deadline timer
//     starts at submission, and a deadline that fires inside the
//     window answers 504 for that member alone without poisoning the
//     gang (the remaining members still run);
//   - drain flushes half-full windows immediately, so shutdown never
//     waits out an accumulation window.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"wheretime/internal/faults"
	"wheretime/internal/harness"
)

// DefaultGangWindow is the accumulation window cmd/wheretimed
// defaults to: long enough for a burst of compatible requests to land
// in one gang, short against the tens-of-milliseconds cost of even
// the cheapest simulation. Only requests that will simulate pay it: a
// cell whose tally is stored is answered before the singleflight
// layer and never enters a window. In Config, a zero window means
// batching is OFF (every request dispatches immediately, the
// pre-batching behavior); the daemon opts into the default via its
// flag.
const DefaultGangWindow = 5 * time.Millisecond

// DefaultGangMax caps how many requests one window may accumulate
// before it closes early. Eight matches the gang fan-in the
// MultiPipeline equivalence suite exercises; bigger gangs trade more
// amortization for a longer single work unit.
const DefaultGangMax = 8

// member states: a member resolves exactly once, either with the
// gang's response (resolved) or by its own deadline (abandoned).
const (
	memberPending int32 = iota
	memberResolved
	memberAbandoned
)

// member is one request waiting in (or dispatched from) a batch. Its
// flight goroutine blocks on done racing its own deadline timer; the
// gang runner fills status/body and closes done.
type member struct {
	// key is the request's tally key: the singleflight key and the
	// response's Key field.
	key  string
	spec harness.CellSpec
	// deadline is absolute, fixed at submission, so the time spent
	// held in the window counts against the request's budget.
	deadline time.Time

	state  atomic.Int32
	done   chan struct{}
	status int
	body   []byte
}

// resolve delivers the member's response, reporting whether the
// member was still pending (an abandoned member keeps its 504; the
// late result is simply dropped).
func (m *member) resolve(status int, body []byte) bool {
	if !m.state.CompareAndSwap(memberPending, memberResolved) {
		return false
	}
	m.status, m.body = status, body
	close(m.done)
	return true
}

// abandon marks a member whose deadline fired first, reporting
// whether it won the race against resolve.
func (m *member) abandon() bool {
	return m.state.CompareAndSwap(memberPending, memberAbandoned)
}

// batch is one accumulation window: the members collected under a
// single gang key between the window opening and closing.
type batch struct {
	gangKey  string
	members  []*member
	timer    timer
	closedCh chan struct{}
	closed   bool
}

// batcher accumulates compatible requests into batches. One per
// server when Config.GangWindow > 0.
type batcher struct {
	srv    *Server
	window time.Duration
	max    int

	mu      sync.Mutex
	open    map[string]*batch
	flushed bool
	wg      sync.WaitGroup

	// Counters for /healthz.
	batched      atomic.Int64 // members that entered a window
	gangs        atomic.Int64 // gang work units dispatched with >= 1 live member
	gangMembers  atomic.Int64 // live members across dispatched gangs
	windowCloses atomic.Int64 // batches closed by window expiry
	capCloses    atomic.Int64 // batches closed by hitting GangMax
	drainFlushes atomic.Int64 // batches closed early by drain
}

func newBatcher(srv *Server, window time.Duration, max int) *batcher {
	return &batcher{srv: srv, window: window, max: max, open: make(map[string]*batch)}
}

// submit files m into the accumulating batch for gangKey, opening a
// fresh window when none is accumulating. The batch closes when its
// window expires, when it reaches the cap, or immediately once drain
// has begun.
func (bt *batcher) submit(gangKey string, m *member) {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	b := bt.open[gangKey]
	if b == nil {
		b = &batch{gangKey: gangKey, closedCh: make(chan struct{})}
		b.timer = bt.srv.clk.NewTimer(bt.window)
		bt.open[gangKey] = b
		bt.wg.Add(1)
		go bt.watch(b)
	}
	b.members = append(b.members, m)
	// Counted only once the member sits in a window whose timer
	// exists: a caller that sees the count (the fake-clock tests) may
	// advance the clock and must not outrun the timer's creation.
	bt.batched.Add(1)
	switch {
	case bt.flushed:
		bt.closeLocked(b, &bt.drainFlushes)
	case len(b.members) >= bt.max:
		bt.closeLocked(b, &bt.capCloses)
	}
}

// watch closes the batch when its window expires; closedCh unblocks
// it when the batch closed some other way (cap, drain flush).
func (bt *batcher) watch(b *batch) {
	defer bt.wg.Done()
	select {
	case <-b.timer.C():
		bt.mu.Lock()
		bt.closeLocked(b, &bt.windowCloses)
		bt.mu.Unlock()
	case <-b.closedCh:
	}
}

// closeLocked seals a batch — no further members — and dispatches its
// gang run on its own goroutine. Idempotent; callers hold bt.mu.
func (bt *batcher) closeLocked(b *batch, cause *atomic.Int64) {
	if b.closed {
		return
	}
	b.closed = true
	b.timer.Stop()
	close(b.closedCh)
	delete(bt.open, b.gangKey)
	cause.Add(1)
	bt.wg.Add(1)
	go func() {
		defer bt.wg.Done()
		bt.srv.runGang(b)
	}()
}

// flush closes every accumulating window immediately and makes any
// window opened afterwards close on arrival. Called when drain
// begins: a SIGTERM with a half-full window must dispatch it, not
// wait it out.
func (bt *batcher) flush() {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	bt.flushed = true
	for _, b := range bt.open {
		bt.closeLocked(b, &bt.drainFlushes)
	}
}

// wait blocks until every dispatched gang (and window watcher) has
// finished.
func (bt *batcher) wait() { bt.wg.Wait() }

// runBatched is the flight body on the batching path: it submits the
// request as a gang member and waits for the batch result, racing the
// member's own deadline. The deadline timer starts before submission,
// so hold time spent in the accumulation window counts against it.
func (s *Server) runBatched(key string, spec harness.CellSpec, timeout time.Duration) (int, []byte) {
	m := &member{
		key:      key,
		spec:     spec,
		deadline: s.clk.Now().Add(timeout),
		done:     make(chan struct{}),
	}
	t := s.clk.NewTimer(timeout)
	defer t.Stop()
	s.batch.submit(harness.GangKey(s.opts, spec), m)
	select {
	case <-m.done:
		return m.status, m.body
	case <-t.C():
		if m.abandon() {
			s.failures.Add(1)
			return http.StatusGatewayTimeout, errBody("deadline exceeded: " + context.DeadlineExceeded.Error())
		}
		// The gang resolved concurrently with the deadline firing; the
		// delivered result stands.
		<-m.done
		return m.status, m.body
	}
}

// runGang dispatches one closed batch: the still-pending members run
// as a single gang work unit under the worker-pool semaphore, and
// each receives the response body it would have gotten solo. Members
// abandoned in the window are skipped — their flights already
// answered 504 — and a member whose deadline fires mid-run abandons
// itself without cutting the gang short for the others (the gang's
// own deadline is the furthest member deadline). Panics are contained
// exactly as on the solo path: every pending member answers 500 and
// the server keeps serving.
func (s *Server) runGang(b *batch) {
	now := s.clk.Now()
	var live []*member
	latest := now
	for _, m := range b.members {
		if m.state.Load() != memberPending {
			continue // abandoned in the window: already answered 504
		}
		live = append(live, m)
		if m.deadline.After(latest) {
			latest = m.deadline
		}
	}
	if len(live) == 0 {
		return
	}
	defer func() {
		if p := recover(); p != nil {
			s.logf("wheretimed: gang worker panic: %v", p)
			s.resolveGang(live, http.StatusInternalServerError,
				fmt.Sprintf("internal: worker panic: %v", p))
		}
	}()
	s.batch.gangs.Add(1)
	s.batch.gangMembers.Add(int64(len(live)))

	ctx, cancel := s.clk.WithTimeout(s.base, latest.Sub(now))
	defer cancel()
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.resolveGang(live, http.StatusGatewayTimeout, "deadline exceeded waiting for a worker")
		return
	}
	defer func() { <-s.sem }()
	if err := s.inj.Apply(faults.OpWorker, b.gangKey); err != nil {
		s.resolveGang(live, http.StatusInternalServerError, "internal: "+err.Error())
		return
	}
	s.simulations.Add(1)
	specs := make([]harness.CellSpec, 0, len(live))
	seen := make(map[harness.CellSpec]bool, len(live))
	for _, m := range live {
		if !seen[m.spec] {
			seen[m.spec] = true
			specs = append(specs, m.spec)
		}
	}
	res, err := harness.MeasureGangContext(ctx, s.opts, specs)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.resolveGang(live, http.StatusGatewayTimeout, "deadline exceeded: "+err.Error())
			return
		}
		s.logf("wheretimed: measuring gang of %d x %s: %v", len(specs), specs[0], err)
		s.resolveGang(live, http.StatusInternalServerError, "internal: "+err.Error())
		return
	}
	for _, m := range live {
		m.resolve(s.cellBody(m.key, m.spec, res))
	}
}

// resolveGang answers every still-pending member of a failed gang
// with one shared error body.
func (s *Server) resolveGang(live []*member, status int, msg string) {
	body := errBody(msg)
	for _, m := range live {
		if m.resolve(status, body) {
			s.failures.Add(1)
		}
	}
}
