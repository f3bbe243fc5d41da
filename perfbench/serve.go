package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"wheretime/internal/engine"
	"wheretime/internal/harness"
)

// Load shapes of the two service workloads. warmRate is about half the
// tally-hit capacity of the daemon over two connections on a 2-CPU host
// (README.md); the sweep's heavy gap keeps its cold and trace work under
// half of one worker slot.
const (
	warmRate  = 60.0 // requests/s
	warmLimit = 100 * time.Millisecond
	sweepRate = 4.5 // candidate pair arrivals/s, before the depth rules
	// sweepPairRate caps the pairs kept: candidates the depth rules drop
	// vary by seed, so a run keeps only the first sweepPairRate x run
	// length of the rest, and every seed offers the same load.
	sweepPairRate = 2.5
	sweepLimit    = 2 * time.Second
	sweepSpacing  = 1500 * time.Millisecond // minimum gap between arrivals of one workload
	serveConns    = 2                       // the nproc of the host the loads were sized on
	daemonStarts  = 5                       // set-up repetitions; the median start counts
	// sweepHeavyGap is the minimum gap between cold or trace arrivals.
	sweepHeavyGap = 800 * time.Millisecond
)

// cellReq is the wire shape of a POST /v1/cells body.
type cellReq struct {
	Kind        string   `json:"kind"`
	System      string   `json:"system"`
	Query       string   `json:"query,omitempty"`
	Selectivity *float64 `json:"selectivity,omitempty"`
	RecordSize  int      `json:"recordSize,omitempty"`
	Txns        int      `json:"txns,omitempty"`
	L2KB        int      `json:"l2kb,omitempty"`
	BTB         int      `json:"btb,omitempty"`
}

func micro(sys, q string) cellReq { return cellReq{Kind: "micro", System: sys, Query: q} }

// warmSpecs is serve-warm's spec set: the grid's cheap non-join micro
// cells, record-size and selectivity variants of System D's SRS (a
// record-size variant builds a sub-environment even on a tally hit),
// and TPC-C(400) on System C.
func warmSpecs() []cellReq {
	var s []cellReq
	for _, sys := range []string{"A", "B", "C", "D"} {
		s = append(s, micro(sys, "SRS"))
	}
	for _, q := range []string{"IRS", "BRS"} {
		for _, sys := range []string{"B", "C", "D"} {
			s = append(s, micro(sys, q))
		}
	}
	s = append(s, micro("D", "SAG"))
	for _, size := range []int{48, 152} {
		r := micro("D", "SRS")
		r.RecordSize = size
		s = append(s, r)
	}
	for _, sel := range []float64{0.01, 0.05} {
		r := micro("D", "SRS")
		r.Selectivity = &sel
		s = append(s, r)
	}
	return append(s, cellReq{Kind: "tpcc", System: "C", Txns: 400})
}

// sweepKey is one serve-sweep workload (a gang key): a spec without
// platform, and how many trace files its capture writes.
type sweepKey struct {
	req   cellReq
	files int
}

// sweepKeys are the 6 micro and TPC-C(100) workloads serve-sweep draws
// from, hottest first: the indexed range selection on the systems that
// have an index, and TPC-C(100) on A-C, each 0.13-0.3 s cold. Their 12
// cold and trace visits keep the worker busy for under a tenth of the
// run, so the median stays a tally hit even on a host slowed twofold.
// TPC-D, the joins and the full scans are left out: their cold cells
// cost 0.3-10 s each and would set the tail alone.
func sweepKeys() []sweepKey {
	var k []sweepKey
	for _, sys := range []string{"B", "C", "D"} {
		k = append(k, sweepKey{micro(sys, "IRS"), 1})
	}
	for _, sys := range []string{"A", "B", "C"} {
		k = append(k, sweepKey{cellReq{Kind: "tpcc", System: sys, Txns: 100}, 2})
	}
	return k
}

// sweepPlatforms are the paper's platform and the two variants a pair
// may request.
var sweepPlatforms = [3]struct{ l2kb, btb int }{{0, 0}, {2048, 0}, {0, 16384}}

// storeExpect is the store traffic a schedule must cause, predicted
// from the warm-start depth of each arrival.
type storeExpect struct{ entryHits, traceHits, tracesWritten int64 }

// sweepSchedule draws serve-sweep's arrivals: Poisson pair arrivals,
// each for a Zipf-drawn workload not requested in the last
// sweepSpacing. A first visit is a pair of two platforms (cold, one
// gang of two). The next heavy visit is an exact duplicate of the
// remaining platform (trace: the stored capture is replayed once, the
// duplicate coalesces). Every other visit is a pair of two measured
// platforms (tally). Heavy (cold or trace) arrivals are at least
// sweepHeavyGap apart and, while a workload still needs one, every
// arrival that may be heavy is: so each run does every workload's cold
// and trace visit once, in a seeded order, and its latency mix does not
// hinge on how many rare workloads a seed happens to draw. Pairs never
// mix measured and unmeasured platforms, so each arrival's depth, and
// the store traffic it causes, follows from the schedule alone.
func sweepSchedule(seed int64, dur time.Duration) ([]cellReq, []arrival, storeExpect) {
	keys := sweepKeys()
	rng := newRand(seed, 2)
	last := make([]time.Duration, len(keys))
	index := make(map[int]int) // key*3+platform -> body index
	var bodies []cellReq
	var arrivals []arrival
	var exp storeExpect
	bodyFor := func(k, p int) int {
		if i, ok := index[k*3+p]; ok {
			return i
		}
		r := keys[k].req
		r.L2KB, r.BTB = sweepPlatforms[p].l2kb, sweepPlatforms[p].btb
		bodies = append(bodies, r)
		index[k*3+p] = len(bodies) - 1
		return len(bodies) - 1
	}
	platforms := make([][]int, len(keys)) // measured platforms, in order
	lastHeavy := -sweepHeavyGap
	pairs := int(sweepPairRate * dur.Seconds())
	for _, t := range poissonSchedule(seed, 1, int(sweepRate*dur.Seconds()), dur) {
		if len(arrivals) == pairs {
			break
		}
		// eligible lists the workloads this arrival may request: ones
		// that still need a heavy visit, or ones with two measured
		// platforms to pair.
		eligible := func(heavy bool) []int {
			var c []int
			for k := range keys {
				m := len(platforms[k])
				if m > 0 && t-last[k] < sweepSpacing {
					continue
				}
				if heavy && m < 3 || !heavy && m >= 2 {
					c = append(c, k)
				}
			}
			return c
		}
		var cands []int
		heavy := false
		if t-lastHeavy >= sweepHeavyGap {
			cands = eligible(true)
			heavy = len(cands) > 0
		}
		if !heavy {
			cands = eligible(false)
		}
		if len(cands) == 0 {
			continue // nothing may be requested now: no arrival
		}
		k := zipfDraw(rng, cands)
		last[k] = t
		var plats []int
		var class string
		switch {
		case len(platforms[k]) == 0:
			perm := rng.Perm(3)
			plats, class = perm[:2], "cold"
			platforms[k] = append(platforms[k], perm[0], perm[1])
			exp.tracesWritten += int64(keys[k].files)
			lastHeavy = t
		case heavy:
			fresh := 3 - platforms[k][0] - platforms[k][1]
			plats, class = []int{fresh, fresh}, "trace"
			platforms[k] = append(platforms[k], fresh)
			exp.entryHits++ // the trace reference
			exp.traceHits += int64(keys[k].files)
			lastHeavy = t
		case len(platforms[k]) == 2:
			plats, class = platforms[k][:2], "tally"
			exp.entryHits += 2
		default:
			perm := rng.Perm(3)
			plats, class = perm[:2], "tally"
			exp.entryHits += 2
		}
		a := arrival{due: t, class: class}
		for _, p := range plats {
			a.reqs = append(a.reqs, bodyFor(k, p))
		}
		arrivals = append(arrivals, a)
	}
	return bodies, arrivals, exp
}

// warmSchedule draws serve-warm's arrivals: Poisson single requests,
// each for a uniformly drawn spec of the primed set.
func warmSchedule(seed int64, dur time.Duration, n int) []arrival {
	rng := newRand(seed, 2)
	var a []arrival
	for _, t := range poissonSchedule(seed, 1, int(warmRate*dur.Seconds()), dur) {
		a = append(a, arrival{due: t, reqs: []int{rng.IntN(n)}, class: "tally"})
	}
	return a
}

// spec converts a request to the harness cell spec the daemon measures
// for it, defaults resolved the way the daemon resolves them.
func (c cellReq) spec(opts harness.Options) (harness.CellSpec, error) {
	var spec harness.CellSpec
	found := false
	for _, s := range engine.Systems() {
		if s.String() == c.System {
			spec.System, found = s, true
		}
	}
	if !found {
		return spec, fmt.Errorf("unknown system %q", c.System)
	}
	switch c.Kind {
	case "micro":
		spec.Kind = harness.CellMicro
		found = false
		for q := harness.SRS; q <= harness.IXJ; q++ {
			if q.String() == c.Query {
				spec.Query, found = q, true
			}
		}
		if !found {
			return spec, fmt.Errorf("unknown query %q", c.Query)
		}
		spec.Selectivity, spec.RecordSize = opts.Selectivity, opts.RecordSize
		if c.Selectivity != nil {
			spec.Selectivity = *c.Selectivity
		}
		if c.RecordSize != 0 {
			spec.RecordSize = c.RecordSize
		}
	case "tpcc":
		spec.Kind, spec.Txns = harness.CellTPCC, c.Txns
	default:
		return spec, fmt.Errorf("unknown kind %q", c.Kind)
	}
	spec.Config = opts.Config
	if c.L2KB != 0 {
		spec.Config.L2SizeKB = c.L2KB
	}
	if c.BTB != 0 {
		spec.Config.BTBEntries = c.BTB
	}
	return spec, nil
}

// checker verifies service responses: a 200 whose key is the harness
// tally key of the requested spec and whose total is positive, and
// whose bytes equal every other response for the same request, in this
// run, in earlier runs of the same daemon binary, and at every
// warm-start depth.
type checker struct {
	e      *env
	bodies [][]byte
	keys   []string
	names  []string
	seen   map[int][]byte
}

func newChecker(e *env, reqs []cellReq) (*checker, error) {
	id, err := fileDigest(e.daemon)
	if err != nil {
		return nil, err
	}
	opts := harness.DefaultOptions()
	c := &checker{e: e, seen: make(map[int][]byte)}
	for _, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		spec, err := r.spec(opts)
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(b)
		c.bodies = append(c.bodies, b)
		c.keys = append(c.keys, harness.TallyKey(opts, spec))
		c.names = append(c.names, "cell-"+id+"-"+hex.EncodeToString(sum[:8]))
	}
	return c, nil
}

// check returns "" for a correct response, else what is wrong.
func (c *checker) check(s sample) (string, error) {
	switch {
	case s.err != nil:
		return s.err.Error(), nil
	case s.status != 200:
		return fmt.Sprintf("status %d: %s", s.status, strings.TrimSpace(string(s.body))), nil
	}
	var resp struct {
		Key         string  `json:"key"`
		TotalCycles float64 `json:"totalCycles"`
	}
	if err := json.Unmarshal(s.body, &resp); err != nil {
		return "undecodable body: " + err.Error(), nil
	}
	if resp.Key != c.keys[s.req] || resp.TotalCycles <= 0 {
		return fmt.Sprintf("response key %s / total %g for a request with key %s", resp.Key, resp.TotalCycles, c.keys[s.req]), nil
	}
	if first, ok := c.seen[s.req]; ok {
		if !bytes.Equal(first, s.body) {
			return "body differs from an earlier response to the same request", nil
		}
		return "", nil
	}
	c.seen[s.req] = s.body
	same, err := checkReference(c.e, c.names[s.req], s.body)
	if err != nil || same {
		return "", err
	}
	return "body differs from an earlier run's response to the same request", nil
}

// serveRun is one measured phase against a fresh daemon.
type serveRun struct {
	setup   float64
	res     loadResult
	h0, h1  health
	rss     float64
	classes []string // per sample
	okay    []bool   // per sample
}

// runServe sets the daemon up, runs the open loop for dur and checks
// every response. With prime set, a first daemon answers every request
// once and drains, which flushes its store; then the daemon is started
// daemonStarts times on that store and the last one is kept, so the
// measured process never held the priming's cold work.
func runServe(e *env, name string, reqs []cellReq, prime bool, arrivals []arrival, dur time.Duration, tr *tracer, o *outcome) (*serveRun, error) {
	ck, err := newChecker(e, reqs)
	if err != nil {
		return nil, err
	}
	store := filepath.Join(e.work, fmt.Sprintf("%s-store-%d", name, time.Now().UnixNano()))
	r := &serveRun{}
	if prime {
		start := time.Now()
		d, _, err := startDaemon(e, store)
		if err != nil {
			return nil, err
		}
		var all []arrival
		for i := range reqs {
			all = append(all, arrival{reqs: []int{i}})
		}
		pr := openLoop(d.base, ck.bodies, all, serveConns, 0, nil)
		if err := d.stop(); err != nil {
			return nil, err
		}
		for _, s := range pr.samples {
			o.attempted++
			msg, err := ck.check(s)
			if err != nil {
				return nil, err
			}
			if msg != "" {
				o.fail(e, "priming %s: %s", ck.bodies[s.req], msg)
			}
		}
		r.setup = time.Since(start).Seconds()
	}

	var ready []float64
	var d *daemon
	for i := range daemonStarts {
		dd, t, err := startDaemon(e, store)
		if err != nil {
			return nil, err
		}
		ready = append(ready, t.Seconds())
		if i < daemonStarts-1 {
			if err := dd.stop(); err != nil && !errors.Is(err, errUndrained) {
				return nil, err
			}
			continue
		}
		d = dd
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	r.setup += median(ready)

	if r.h0, err = d.health(); err != nil {
		return nil, err
	}
	rss := sampleRSS(d.pid())
	r.res = openLoop(d.base, ck.bodies, arrivals, serveConns, dur, tr)
	if r.rss, err = rss.peak(); err != nil {
		return nil, err
	}
	if r.h1, err = d.health(); err != nil {
		return nil, err
	}
	stopped = true
	if err := d.stop(); err != nil {
		o.fail(e, "%v", err)
	}
	for _, s := range r.res.samples {
		o.attempted++
		msg, err := ck.check(s)
		if err != nil {
			return nil, err
		}
		if msg != "" {
			o.fail(e, "%s: %s", ck.bodies[s.req], msg)
		}
		r.okay = append(r.okay, msg == "")
		r.classes = append(r.classes, arrivals[s.arrival].class)
	}
	return r, nil
}

// endToEnd fills the end-to-end metrics of a service run.
func (r *serveRun) endToEnd(e *env, limit time.Duration, m map[string]float64, o *outcome) {
	var lat []float64
	good := 0
	for i, s := range r.res.samples {
		ms := float64(s.latency) / 1e6
		lat = append(lat, ms)
		if r.okay[i] && s.latency <= limit {
			good++
		}
	}
	p, beyond := tailRule(len(lat))
	late := percentile(r.res.late, 99)
	fmt.Fprintf(e.out, "requests %d, p50 %.3f ms, p%g %.3f ms (%d samples beyond), within %v: %d\n",
		len(lat), median(lat), p, percentile(lat, p), beyond, limit, good)
	fmt.Fprintf(e.out, "load generator: late p99 %.3f ms (limit %v), backlog at end %d, offered %.3f s\n",
		late, lateLimit, r.res.backlog, r.res.offered.Seconds())
	if late > float64(lateLimit)/1e6 {
		o.invalid = true
		fmt.Fprintf(e.out, "INVALID: the load generator ran %.3f ms late at p99\n", late)
	}
	m["setup_s"] = r.setup
	m["wall_s"] = max(r.res.lastDone, r.res.offered).Seconds()
	m["latency_p50_ms"] = median(lat)
	m["latency_tail_ms"] = percentile(lat, p)
	m["goodput_rps"] = float64(good) / r.res.offered.Seconds()
}

// layers fills the per-layer metrics a service run observes from
// outside: /healthz deltas, latency by depth, generator lateness.
func (r *serveRun) layers(m map[string]float64) {
	serverMetrics(r.h0, r.h1, m)
	m["peak_rss_mb"] = r.rss
	by := map[string][]float64{}
	for i, s := range r.res.samples {
		by[r.classes[i]] = append(by[r.classes[i]], float64(s.latency)/1e6)
	}
	n := float64(len(r.res.samples))
	for _, c := range []string{"cold", "trace", "tally"} {
		m["serve."+c+"_p50_ms"] = median(by[c])
		if n > 0 {
			m["harness.depth_share."+c] = float64(len(by[c])) / n
		}
	}
	m["loadgen.late_p99_ms"] = percentile(r.res.late, 99)
	m["loadgen.backlog"] = float64(r.res.backlog)
}

// warmPhase runs serve-warm for dur and checks that every request was
// answered from a stored tally.
func warmPhase(e *env, dur time.Duration, tr *tracer, o *outcome) (*serveRun, error) {
	reqs := warmSpecs()
	r, err := runServe(e, "serve-warm", reqs, true, warmSchedule(e.seed, dur, len(reqs)), dur, tr, o)
	if err != nil {
		return nil, err
	}
	o.attempted++
	st0, st1 := r.h0.Store, r.h1.Store
	if st1.EntryMisses != st0.EntryMisses || st1.TraceHits != st0.TraceHits || st1.TracesWritten != st0.TracesWritten {
		o.fail(e, "serve-warm requests were not all tally hits: store deltas misses %d, trace hits %d, traces written %d",
			st1.EntryMisses-st0.EntryMisses, st1.TraceHits-st0.TraceHits, st1.TracesWritten-st0.TracesWritten)
	}
	return r, nil
}

// sweepPhase runs serve-sweep for dur and cross-checks the predicted
// depth of every arrival against the store's counters.
func sweepPhase(e *env, dur time.Duration, tr *tracer, o *outcome) (*serveRun, error) {
	reqs, arrivals, exp := sweepSchedule(e.seed, dur)
	r, err := runServe(e, "serve-sweep", reqs, false, arrivals, dur, tr, o)
	if err != nil {
		return nil, err
	}
	st0, st1 := r.h0.Store, r.h1.Store
	got := storeExpect{st1.EntryHits - st0.EntryHits, st1.TraceHits - st0.TraceHits, st1.TracesWritten - st0.TracesWritten}
	counts := map[string]int{}
	for _, a := range arrivals {
		counts[a.class]++
	}
	fmt.Fprintf(e.out, "serve-sweep: %d pair arrivals (cold %d, trace %d, tally %d); store expected %+v, /healthz %+v\n",
		len(arrivals), counts["cold"], counts["trace"], counts["tally"], exp, got)
	o.attempted++
	if got != exp {
		o.fail(e, "depth attribution disagrees with the store: expected %+v, /healthz deltas %+v", exp, got)
	}
	return r, nil
}

func runServeWarm(e *env) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	r, err := warmPhase(e, time.Duration(e.seconds)*time.Second, nil, o)
	if err != nil {
		return nil, err
	}
	r.endToEnd(e, warmLimit, o.metrics, o)
	return o, nil
}

func runServeSweep(e *env) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	r, err := sweepPhase(e, time.Duration(e.seconds)*time.Second, nil, o)
	if err != nil {
		return nil, err
	}
	r.endToEnd(e, sweepLimit, o.metrics, o)
	return o, nil
}

// tracedServe runs the phase untraced and traced, half the run length
// each on a fresh daemon, then the layer probe over the given cell
// kinds and, when slice names experiments, their grid unit by unit; the
// p50 difference of the two phases is the tracing overhead.
func tracedServe(e *env, name string, phase func(*env, time.Duration, *tracer, *outcome) (*serveRun, error), kinds, slice []string) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	half := time.Duration(e.seconds) * time.Second / 2
	plain, err := phase(e, half, nil, o)
	if err != nil {
		return nil, err
	}
	untraced := map[string]float64{}
	plain.endToEnd(e, time.Hour, untraced, o)

	tr := newTracer()
	traced, err := phase(e, half, tr, o)
	if err != nil {
		return nil, err
	}
	tracedE2E := map[string]float64{}
	traced.endToEnd(e, time.Hour, tracedE2E, o)
	traced.layers(o.metrics)
	live := liveBuffers()
	if err := runProbe(e, tr, kinds, o.metrics); err != nil {
		return nil, err
	}
	if len(slice) > 0 {
		exps, err := findExps(slice)
		if err != nil {
			return nil, err
		}
		opts := harness.DefaultOptions()
		if _, _, err := tracedGridPass(tr, opts, gridSpecs(opts, exps), o.metrics); err != nil {
			return nil, err
		}
	}
	o.metrics["trace.live_buffers_delta"] = float64(liveBuffers() - live)
	overhead := fmt.Sprintf("p50 traced %.3f ms - untraced %.3f ms = %+.3f ms",
		tracedE2E["latency_p50_ms"], untraced["latency_p50_ms"], tracedE2E["latency_p50_ms"]-untraced["latency_p50_ms"])
	return o, finishTrace(e, name, tr, overhead)
}

func tracedServeWarm(e *env) (*outcome, error) {
	return tracedServe(e, "serve-warm", warmPhase, []string{"micro", "tpcc"}, nil)
}

func tracedServeSweep(e *env) (*outcome, error) {
	return tracedServe(e, "serve-sweep", sweepPhase, []string{"micro", "tpcd", "tpcc"}, gridSlice)
}
