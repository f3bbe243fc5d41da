package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"wheretime/internal/engine"
	"wheretime/internal/harness"
	"wheretime/internal/sql"
	"wheretime/internal/storage"
	"wheretime/internal/trace"
	"wheretime/internal/tracestore"
	"wheretime/internal/workload"
	"wheretime/internal/xeon"
)

// timedSink times every batch a processor drains: ProcessBatch is the
// boundary between an emitter (engine, recorder, recording) and the
// layer below it, so the sink's busy time is the lower layer's share.
type timedSink struct {
	trace.BatchProcessor
	ns, events int64
}

func (t *timedSink) ProcessBatch(events []trace.Event) {
	start := time.Now()
	t.BatchProcessor.ProcessBatch(events)
	t.ns += time.Since(start).Nanoseconds()
	t.events += int64(len(events))
}

// probe accumulates the layer probe's sums across cell kinds.
type probe struct {
	tr     *tracer
	parent int
	m      map[string]float64

	events, emitNs, encodeNs        int64
	captures, overflows             int
	decodeEvents, decodeNs, drainNs int64
	gangNs, gangEvents              [4]int64
	recBytes, recEvents             int64
	snapUs, restoreUs               []float64
	recordings                      []*trace.Recording
}

// timed runs f inside a span and returns its duration.
func (p *probe) timed(name string, f func() error) (time.Duration, error) {
	id := p.tr.begin(name, p.parent, -1)
	start := time.Now()
	err := f()
	d := time.Since(start)
	p.tr.end(id)
	return d, err
}

// platforms are the gang probe's configurations: the paper's platform
// and the two variants the service sweep requests.
func platforms() []xeon.Config {
	base := xeon.DefaultConfig()
	l2, btb := base, base
	l2.L2SizeKB = 2048
	btb.BTBEntries = 16384
	return []xeon.Config{base, l2, btb}
}

// capture executes one cell kind's stream once through the recording
// path the harness uses (engine -> Recorder -> Pipeline), with a timing
// sink on each boundary: engine self time is the run minus the
// recorder's batches, encode time is the recorder's batches minus the
// pipeline's.
func (p *probe) capture(kind string, run func(trace.Processor) error) error {
	pipe := xeon.New(xeon.DefaultConfig())
	inner := &timedSink{BatchProcessor: pipe}
	rec := trace.NewRecorder(inner, harness.DefaultMaxRecordedEvents)
	outer := &timedSink{BatchProcessor: rec}
	d, err := p.timed("engine.Run."+kind, func() error { return run(outer) })
	if err != nil {
		return fmt.Errorf("probe %s: %w", kind, err)
	}
	p.events += outer.events
	p.emitNs += d.Nanoseconds() - outer.ns
	p.encodeNs += outer.ns - inner.ns
	p.captures++
	if rec.Overflowed() {
		p.overflows++
		return nil
	}
	r := rec.Recording()
	p.recordings = append(p.recordings, r)
	p.recBytes += int64(r.Bytes())
	p.recEvents += int64(r.Len())
	return p.replay(kind, r)
}

// replay drains a recording into a fresh pipeline (K=1) and into
// multi-config gangs of K=2 and K=3, and times snapshot and restore of
// the drained pipeline.
func (p *probe) replay(kind string, r *trace.Recording) error {
	cfgs := platforms()
	pipe := xeon.New(cfgs[0])
	sink := &timedSink{BatchProcessor: pipe}
	d, _ := p.timed("trace.Drain."+kind, func() error { r.Drain(sink); return nil })
	p.decodeEvents += sink.events
	p.decodeNs += d.Nanoseconds() - sink.ns
	p.drainNs += sink.ns
	for k := 2; k <= 3; k++ {
		gang := &timedSink{BatchProcessor: xeon.NewMulti(cfgs[:k])}
		p.timed(fmt.Sprintf("xeon.MultiPipeline.k%d.%s", k, kind), func() error { r.Drain(gang); return nil })
		p.gangNs[k] += gang.ns
		p.gangEvents[k] += gang.events * int64(k)
	}
	var st *xeon.State
	for range 5 {
		d, _ := p.timed("xeon.Snapshot", func() error { st = pipe.Snapshot(st); return nil })
		p.snapUs = append(p.snapUs, float64(d)/1e3)
	}
	other := xeon.New(cfgs[0])
	for range 5 {
		d, err := p.timed("xeon.Restore", func() error { return other.Restore(st) })
		if err != nil {
			return err
		}
		p.restoreUs = append(p.restoreUs, float64(d)/1e3)
	}
	return nil
}

// runProbe times one call into each layer's public functions outside
// any harness scheduling: dataset builds, planning, the capture and
// replay of one stream per cell kind, pipeline snapshots, trace-store
// I/O, and one warm hit through the harness. kinds picks the cell kinds
// ("micro", "tpcd", "tpcc").
func runProbe(e *env, tr *tracer, kinds []string, m map[string]float64) error {
	p := &probe{tr: tr, m: m}
	p.parent = tr.begin("probe", 0, -1)
	defer tr.end(p.parent)

	opts := harness.DefaultOptions()
	dims := opts.Dims()
	var nsm *workload.Database
	var builds []float64
	for range 3 {
		d, err := p.timed("workload.Build", func() error {
			for _, layout := range []storage.Layout{storage.NSM, storage.PAX} {
				db, err := workload.Build(dims, layout)
				if err != nil {
					return err
				}
				if err := db.BuildIndexes(); err != nil {
					return err
				}
				if layout == storage.NSM {
					nsm = db
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		builds = append(builds, float64(d)/1e6)
	}
	m["workload.build_ms"] = median(builds)

	envMs := []float64{}
	for range 3 {
		d, err := p.timed("harness.NewEnv", func() error {
			env, err := harness.NewEnv(opts)
			if err == nil {
				env.Close()
			}
			return err
		})
		if err != nil {
			return err
		}
		envMs = append(envMs, float64(d)/1e6)
	}
	if m["harness.env_build_ms"] == 0 { // grid-cold's traced workers measured their own
		m["harness.env_build_ms"] = median(envMs)
	}

	eng := engine.New(engine.SystemD, nsm.Catalog)
	planOpts := eng.PlanOptions()
	planOpts.UseIndex = false
	srs := dims.QuerySRS(opts.Selectivity)
	const prepares = 200
	var plan *sql.Plan
	d, err := p.timed("sql.Prepare", func() error {
		for range prepares {
			var err error
			if plan, err = sql.Prepare(nsm.Catalog, srs, planOpts); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["sql.prepare_us"] = float64(d) / 1e3 / prepares

	for _, kind := range kinds {
		var err error
		switch kind {
		case "micro":
			err = p.capture(kind, func(proc trace.Processor) error {
				eng.ResetState()
				_, err := eng.Run(plan, proc)
				return err
			})
		case "tpcd":
			tpcd := engine.New(engine.SystemD, nsm.Catalog)
			err = p.capture(kind, func(proc trace.Processor) error {
				for _, q := range dims.TPCDQueries() {
					if _, err := tpcd.Query(q, proc); err != nil {
						return err
					}
				}
				return nil
			})
		case "tpcc":
			var db *workload.TPCC
			var ms []float64
			for range 3 {
				d, err := p.timed("workload.BuildTPCC", func() error {
					var err error
					db, err = workload.BuildTPCC(workload.DefaultTPCCDims())
					return err
				})
				if err != nil {
					return err
				}
				ms = append(ms, float64(d)/1e6)
			}
			m["workload.tpcc_build_ms"] = median(ms)
			oltp := engine.New(engine.SystemC, db.Catalog)
			err = p.capture(kind, func(proc trace.Processor) error {
				_, err := workload.RunTPCC(db, oltp, proc, 400)
				return err
			})
		}
		if err != nil {
			return err
		}
	}
	if err := p.storeProbe(e); err != nil {
		return err
	}
	if err := p.warmHit(e); err != nil {
		return err
	}
	for _, r := range p.recordings {
		r.Release()
	}

	perEvent := func(ns, events int64) float64 {
		if events == 0 {
			return 0
		}
		return float64(ns) / float64(events)
	}
	m["engine.events"] = float64(p.events)
	m["engine.emit_ns_per_event"] = perEvent(p.emitNs, p.events)
	m["trace.encode_ns_per_event"] = perEvent(p.encodeNs, p.events)
	m["trace.decode_ns_per_event"] = perEvent(p.decodeNs, p.decodeEvents)
	m["trace.overflow_share"] = float64(p.overflows) / float64(p.captures)
	m["trace.bytes_per_event"] = perEvent(p.recBytes, p.recEvents)
	m["xeon.drain_ns_per_event"] = perEvent(p.drainNs, p.decodeEvents)
	m["xeon.gang_ns_per_event_per_config.k2"] = perEvent(p.gangNs[2], p.gangEvents[2])
	m["xeon.gang_ns_per_event_per_config.k3"] = perEvent(p.gangNs[3], p.gangEvents[3])
	m["xeon.snapshot_us"] = median(p.snapUs)
	m["xeon.restore_us"] = median(p.restoreUs)
	return nil
}

// storeProbe writes and reads back the probe's recordings through a
// fresh trace store, then stages entries and flushes the index.
func (p *probe) storeProbe(e *env) error {
	dir := filepath.Join(e.work, "probe-store")
	store, err := tracestore.Open(dir)
	if err != nil {
		return err
	}
	var put, get []float64
	var disk, events int64
	for _, r := range p.recordings {
		var digest string
		d, err := p.timed("tracestore.PutTrace", func() error {
			var err error
			digest, err = store.PutTrace(r)
			return err
		})
		if err != nil {
			return err
		}
		put = append(put, float64(d)/1e6)
		fi, err := os.Stat(filepath.Join(dir, "tr-"+digest+".trace"))
		if err != nil {
			return err
		}
		disk += fi.Size()
		events += int64(r.Len())
		var back *trace.Recording
		d, err = p.timed("tracestore.GetTrace", func() error {
			var err error
			back, err = store.GetTrace(digest)
			return err
		})
		if err != nil {
			return err
		}
		if back == nil || !back.Equal(r) {
			return fmt.Errorf("trace store returned a different recording for %s", digest)
		}
		back.Release()
		get = append(get, float64(d)/1e6)
	}
	const entries = 256
	blob := make([]byte, 512)
	for i := range entries {
		store.PutEntry(fmt.Sprintf("probe-%d", i), blob)
	}
	d, err := p.timed("tracestore.Flush", store.Flush)
	if err != nil {
		return err
	}
	p.m["tracestore.put_trace_ms"] = mean(put)
	p.m["tracestore.get_trace_ms"] = mean(get)
	p.m["tracestore.flush_ms"] = float64(d) / 1e6
	if events > 0 {
		p.m["tracestore.disk_bytes_per_event"] = float64(disk) / float64(events)
	}
	return nil
}

// warmHit primes a store with one cell, then times MeasureContext of
// that cell against it (a tally hit: the request path of a warm
// service) and the store's entry lookup alone.
func (p *probe) warmHit(e *env) error {
	opts := harness.DefaultOptions()
	opts.StoreDir = filepath.Join(e.work, "warm-store")
	spec := harness.CellSpec{Kind: harness.CellMicro, System: engine.SystemB, Query: harness.SRS,
		Selectivity: opts.Selectivity, RecordSize: opts.RecordSize, Config: opts.Config}
	if _, err := p.timed("harness.Measure.prime", func() error {
		_, err := harness.Measure(opts, []harness.CellSpec{spec}, 1)
		return err
	}); err != nil {
		return err
	}
	store, err := tracestore.Open(opts.StoreDir)
	if err != nil {
		return err
	}
	opts.StoreDir, opts.Store = "", store
	var hits []float64
	for range 7 {
		d, err := p.timed("harness.MeasureContext.hit", func() error {
			res, err := harness.MeasureContext(context.Background(), opts, []harness.CellSpec{spec}, 1)
			if err == nil {
				_, err = res.Get(spec)
			}
			return err
		})
		if err != nil {
			return err
		}
		hits = append(hits, float64(d)/1e6)
	}
	if st := store.Stats(); st.EntryMisses != 0 || st.TracesWritten != 0 {
		return fmt.Errorf("warm-hit probe was not a tally hit: %+v", st)
	}
	key := harness.TallyKey(opts, spec)
	const lookups = 1000
	d, err := p.timed("tracestore.GetEntry", func() error {
		for range lookups {
			if _, ok := store.GetEntry(key); !ok {
				return fmt.Errorf("tally entry %s missing from the primed store", key)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.m["harness.warm_hit_ms"] = median(hits)
	p.m["tracestore.get_entry_us"] = float64(d) / 1e3 / lookups
	return nil
}
