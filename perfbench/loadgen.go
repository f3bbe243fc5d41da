package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync"
	"time"
)

// lateLimit is how late (p99 of arrival dispatch behind its due time)
// the load generator may run before a run is marked invalid: past it,
// the offered load was not the stated load.
const lateLimit = 50 * time.Millisecond

// arrival is one scheduled event of an open loop: the requests in it
// are sent together at its due time, whatever is still outstanding.
type arrival struct {
	due  time.Duration
	reqs []int // indexes into the request bodies
	// class is the expected warm-start depth, when the workload models
	// one ("cold", "trace", "tally").
	class string
}

// sample is one request's outcome.
type sample struct {
	arrival, req int
	latency      time.Duration // from due to response
	status       int
	body         []byte
	err          error
}

// loadResult is what one open-loop run observed.
type loadResult struct {
	samples  []sample
	late     []float64     // per-arrival dispatch lateness, ms
	backlog  int           // requests still outstanding when the last arrival was due
	offered  time.Duration // how long load was offered: the run length
	lastDone time.Duration
}

// openLoop sends the arrivals on schedule over at most conns
// connections, offering load for dur (at least until the last
// arrival). Every request is timed from its due time, so a request that
// waited for a connection or behind a stalled generator is charged the
// wait.
func openLoop(base string, bodies [][]byte, arrivals []arrival, conns int, dur time.Duration, tr *tracer) loadResult {
	transport := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	defer transport.CloseIdleConnections()
	// The daemon answers 504 after its own 60 s deadline; a response
	// later than that means the connection is stuck.
	client := &http.Client{Transport: transport, Timeout: 70 * time.Second}

	res := loadResult{samples: make([]sample, 0, 2*len(arrivals))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	outstanding := 0
	t0 := time.Now()
	for ai, a := range arrivals {
		due := t0.Add(a.due)
		time.Sleep(time.Until(due))
		sent := time.Now()
		res.late = append(res.late, float64(sent.Sub(due))/1e6)
		for _, ri := range a.reqs {
			mu.Lock()
			outstanding++
			mu.Unlock()
			wg.Add(1)
			go func(ai, ri int) {
				defer wg.Done()
				s := post(client, base, bodies[ri], due, sent, tr, ai)
				s.arrival, s.req = ai, ri
				mu.Lock()
				outstanding--
				res.samples = append(res.samples, s)
				if d := time.Since(t0); d > res.lastDone {
					res.lastDone = d
				}
				mu.Unlock()
			}(ai, ri)
		}
	}
	mu.Lock()
	res.backlog = outstanding
	mu.Unlock()
	time.Sleep(time.Until(t0.Add(dur)))
	res.offered = time.Since(t0)
	wg.Wait()
	return res
}

// post sends one request and times it from due. In a traced run it
// records the request span and three children: the generator's own
// lateness, the wait for a connection, and the round trip to the
// server.
func post(client *http.Client, base string, body []byte, due, sent time.Time, tr *tracer, unit int) sample {
	var gotConn time.Time
	req, err := http.NewRequest(http.MethodPost, base+"/v1/cells", bytes.NewReader(body))
	if err != nil {
		return sample{err: err}
	}
	if tr != nil {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotConn: func(httptrace.GotConnInfo) { gotConn = time.Now() },
		}))
	}
	resp, err := client.Do(req)
	var out []byte
	status := 0
	if err == nil {
		out, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	done := time.Now()
	if tr != nil {
		root := tr.add("request", 0, unit, due, done)
		tr.add("loadgen.dispatch", root, unit, due, sent)
		if !gotConn.IsZero() {
			tr.add("client.conn_wait", root, unit, sent, gotConn)
			tr.add("server.round_trip", root, unit, gotConn, done)
		}
	}
	return sample{latency: done.Sub(due), status: status, body: out, err: err}
}
