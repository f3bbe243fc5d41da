package harness

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"

	"wheretime/internal/engine"
	"wheretime/internal/storage"
	"wheretime/internal/tracestore"
	"wheretime/internal/xeon"
)

// The warm-start contract, pinned from both ends: every shortcut —
// store-loaded replay, store-loaded tally — must reproduce the full
// Section 4.3 protocol exactly, and a warm store must actually be
// consulted.

// diffCellsExact fails unless two cells match on every counter, stall
// component, hardware rate and result bit. Floats compare as IEEE-754
// bits, so a NaN result matches itself and -0 never passes for +0.
func diffCellsExact(t *testing.T, name string, a, b Cell) {
	t.Helper()
	if a.Breakdown.Counts != b.Breakdown.Counts {
		t.Errorf("%s: counts differ:\n got %+v\nwant %+v", name, a.Breakdown.Counts, b.Breakdown.Counts)
	}
	for i := range a.Breakdown.Cycles {
		if math.Float64bits(a.Breakdown.Cycles[i]) != math.Float64bits(b.Breakdown.Cycles[i]) {
			t.Errorf("%s: stall cycles differ:\n got %v\nwant %v", name, a.Breakdown.Cycles, b.Breakdown.Cycles)
			break
		}
	}
	if packRates(a.Rates) != packRates(b.Rates) {
		t.Errorf("%s: hardware rates differ", name)
	}
	if math.Float64bits(a.Result.Value) != math.Float64bits(b.Result.Value) || a.Result.Rows != b.Result.Rows {
		t.Errorf("%s: result %+v != %+v", name, a.Result, b.Result)
	}
}

// TestStoreWarmHits runs the same small grid twice against one store
// directory and pins the store traffic of each unit exactly. The cold
// run writes one tally and one trace ref per spec, plus its trace; the
// warm run answers every cell from its tally (short-circuiting the
// simulation entirely) and reproduces the cold run's cells; a spec
// measured on a new platform misses its tally, replays the stored
// trace and adds only the new tally.
func TestStoreWarmHits(t *testing.T) {
	dir := t.TempDir()
	opts := replayTestOptions()
	specs := []CellSpec{
		microCell(opts, engine.SystemA, SRS),
		microCell(opts, engine.SystemB, IRS),
		microCell(opts, engine.SystemD, SJ),
	}
	// measure runs specs against a fresh handle on dir, flushes it, and
	// returns the results with the traffic they caused.
	measure := func(specs []CellSpec) (*Results, tracestore.Stats) {
		t.Helper()
		store, err := tracestore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		run := opts
		run.Store = store
		res, err := Measure(run, specs, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Flush(); err != nil {
			t.Fatal(err)
		}
		return res, store.Stats()
	}
	n := len(specs)
	want := func(phase string, got tracestore.Stats, entryHits, entryMisses, traceHits, written, added int) {
		t.Helper()
		if got.EntryHits != entryHits || got.EntryMisses != entryMisses || got.TraceHits != traceHits ||
			got.TracesWritten != written || got.EntriesAdded != added {
			t.Errorf("%s run: %+v, want entry hits=%d misses=%d, trace hits=%d written=%d, entries added=%d",
				phase, got, entryHits, entryMisses, traceHits, written, added)
		}
	}

	resCold, st := measure(specs)
	want("cold", st, 0, 2*n, 0, n, 2*n)
	resWarm, st := measure(specs)
	want("warm", st, n, 0, 0, 0, 0)
	for _, spec := range specs {
		a, err := resCold.Get(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := resWarm.Get(spec)
		if err != nil {
			t.Fatal(err)
		}
		diffCellsExact(t, spec.String(), b, a)
	}

	moved := specs[2]
	moved.Config.L2SizeKB = 2 * opts.Config.L2SizeKB
	_, st = measure([]CellSpec{moved})
	want("new-platform", st, 1, 1, 1, 0, 1)
}

// TestStoreDirOptionFlushes pins the Options.StoreDir path: Measure
// opens the store itself, and the entries survive to a reopened
// handle (the flush happened).
func TestStoreDirOptionFlushes(t *testing.T) {
	dir := t.TempDir()
	opts := replayTestOptions()
	opts.StoreDir = dir
	specs := []CellSpec{microCell(opts, engine.SystemA, SRS)}
	if _, err := Measure(opts, specs, 1); err != nil {
		t.Fatal(err)
	}
	s, err := tracestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A reopened handle must find the tally.
	reopened := replayTestOptions()
	reopened.Store = s
	if _, ok := LookupTally(reopened, specs[0]); !ok {
		t.Error("flushed store has no tally for the measured cell")
	}
}

// TestStoreColdWarmMatchesGoldens renders the full grid twice against
// one store directory — cold (populating) then warm (loading) — and
// diffs both against the committed goldens: persistence must be
// invisible to every figure, whichever temperature the store is at.
func TestStoreColdWarmMatchesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment grid in -short mode")
	}
	dir := t.TempDir()
	for _, leg := range []string{"cold", "warm"} {
		opts := goldenOptions()
		opts.StoreDir = dir
		got := renderGolden(t, opts)
		for _, e := range Experiments() {
			t.Run(leg+"/"+e.Name, func(t *testing.T) {
				want, err := os.ReadFile(goldenPath(e.Name))
				if err != nil {
					t.Fatalf("missing golden (run TestGoldenFiles with -update first): %v", err)
				}
				if got[e.Name] != string(want) {
					t.Errorf("%s-store output differs from golden for %s", leg, e.Name)
				}
			})
		}
	}
}

// storeMustMiss measures spec at first against a store directory, then
// at second against the same directory, and requires the second run to
// equal a storeless measurement at second: an entry written for a
// different measurement must never answer.
func storeMustMiss(t *testing.T, first, second Options, spec CellSpec) {
	t.Helper()
	first.StoreDir = t.TempDir()
	if _, err := Measure(first, []CellSpec{spec}, 1); err != nil {
		t.Fatal(err)
	}
	want, err := Measure(second, []CellSpec{spec}, 1)
	if err != nil {
		t.Fatal(err)
	}
	second.StoreDir = first.StoreDir
	got, err := Measure(second, []CellSpec{spec}, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := got.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := want.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	diffCellsExact(t, spec.String(), a, b)
}

// TestStoreKeyNamesScale: the dataset scale shapes every stream without
// being part of any spec, so a store filled at one scale must not
// answer a run at another.
func TestStoreKeyNamesScale(t *testing.T) {
	opts := replayTestOptions()
	bigger := opts
	bigger.Scale = 2 * opts.Scale
	storeMustMiss(t, opts, bigger, microCell(opts, engine.SystemD, SRS))
}

// TestStoreKeyNamesTPCDRecordSize: a TPC-D spec leaves the record size
// to the options, so its stored tally must be keyed by the record size
// the suite actually ran over.
func TestStoreKeyNamesTPCDRecordSize(t *testing.T) {
	if testing.Short() {
		t.Skip("three TPC-D suites in -short mode; make store-smoke runs it")
	}
	opts := replayTestOptions()
	wider := opts
	wider.RecordSize = 2 * opts.RecordSize
	storeMustMiss(t, opts, wider, CellSpec{Kind: CellTPCD, System: engine.SystemD, Config: opts.Config})
}

// TestLookupTallyMatchesMeasure pins TallyKey to the entry the
// protocol writes. Every case is measured into a fresh store and then
// answered by LookupTally alone, which must return the measured cell
// bit for bit — and miss once the scale or the warm-up count differs,
// or on the unbatched reference path. The wheretimed service answers repeat
// requests from this lookup and reports TallyKey as the response key,
// so no end-to-end byte comparison could catch a key that names the
// wrong entry.
func TestLookupTallyMatchesMeasure(t *testing.T) {
	opts := replayTestOptions()
	store, err := tracestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = store

	base := microCell(opts, engine.SystemD, SRS)
	zeroCfg := base
	zeroCfg.Config = xeon.Config{}
	explicit := base
	explicit.Config.L2SizeKB = 1024
	offRec := base
	offRec.RecordSize = 2*opts.RecordSize - storage.FieldSize
	offSel := base
	offSel.Selectivity = 0.05
	cases := []struct {
		name string
		spec CellSpec
	}{
		{"micro, base record size", base},
		{"micro, zero config", zeroCfg},
		{"micro, explicit platform", explicit},
		{"micro, off-base record size", offRec},
		{"micro, off-base selectivity", offSel},
		{"TPC-C", CellSpec{Kind: CellTPCC, System: engine.SystemC, Txns: 60}},
		// The suite runs over the options' dataset whatever the spec
		// says, so the spec's own record size must not leak into the key.
		{"TPC-D, spec record size off the options'",
			CellSpec{Kind: CellTPCD, System: engine.SystemD, RecordSize: 2 * opts.RecordSize}},
	}
	if testing.Short() {
		cases = cases[:len(cases)-1] // the TPC-D suite; make store-smoke runs it
	}
	specs := make([]CellSpec, len(cases))
	for i, c := range cases {
		specs[i] = c.spec
	}
	res, err := Measure(opts, specs, 1)
	if err != nil {
		t.Fatal(err)
	}

	otherScale, otherWarmup, unbatched := opts, opts, opts
	otherScale.Scale = 2 * opts.Scale
	otherWarmup.Warmup = opts.Warmup + 1
	unbatched.Unbatched = true
	for _, c := range cases {
		want, err := res.Get(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := LookupTally(opts, c.spec)
		if !ok {
			t.Errorf("%s: no stored tally under TallyKey", c.name)
			continue
		}
		diffCellsExact(t, c.name, got, want)
		if _, ok := LookupTally(otherScale, c.spec); ok {
			t.Errorf("%s: a tally measured at scale %g answers at %g", c.name, opts.Scale, otherScale.Scale)
		}
		if _, ok := LookupTally(otherWarmup, c.spec); ok {
			t.Errorf("%s: a tally measured at warm-up %d answers at %d", c.name, opts.Warmup, otherWarmup.Warmup)
		}
		if _, ok := LookupTally(unbatched, c.spec); ok {
			t.Errorf("%s: answered on the unbatched path, where Measure never consults the store", c.name)
		}
	}
}

// TestStoreHealsUndecodableEntries: an entry whose blob fails to decode
// — bit rot inside a valid index.json, or a layout version this build
// no longer reads — or a trace ref that cannot be replayed must not
// outlive the recompute. For each of the two kinds of entry the
// protocol reads (tally, trace ref), a bad blob is planted on disk
// under the exact key; one
// Measure must answer the right cell, quarantine the blob and stage the
// good one in its place, and the flushed index must hold the blob a
// fresh store holds, so the next process gets a tally hit. Under
// first-write-wins alone the bad blob stayed forever and every visit
// recomputed.
func TestStoreHealsUndecodableEntries(t *testing.T) {
	opts := replayTestOptions()
	spec := microCell(opts, engine.SystemD, SRS)
	traceKey := tracestore.KeyHash(keyMaterial("trace", unitKey(opts, spec), opts.Scale, nil, opts.Warmup))

	refStore, err := tracestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	refOpts := opts
	refOpts.Store = refStore
	refRes, err := Measure(refOpts, []CellSpec{spec}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refRes.Get(spec)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name, key string
		blob      []byte
	}{
		{"tally, bit rot", TallyKey(opts, spec), []byte("\x00rot")},
		{"tally, old version", TallyKey(opts, spec), []byte(`{"v":0}`)},
		{"trace ref", traceKey, []byte("\x00rot")},
		// Refs that decode but cannot be replayed: a digest naming no
		// file, and a malformed digest.
		{"trace ref, missing stream", traceKey, []byte(`{"v":1,"digest":"` + strings.Repeat("0", 64) + `"}`)},
		{"trace ref, malformed digest", traceKey, []byte(`{"v":1,"digest":"zz"}`)},
	} {
		t.Run(c.name, func(t *testing.T) {
			good, ok := refStore.GetEntry(c.key)
			if !ok {
				t.Fatal("the reference measurement wrote no entry under the key")
			}
			dir := t.TempDir()
			planted, err := tracestore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			planted.PutEntry(c.key, c.blob)
			if err := planted.Flush(); err != nil {
				t.Fatal(err)
			}

			store, err := tracestore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			run := opts
			run.Store = store
			res, err := Measure(run, []CellSpec{spec}, 1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := res.Get(spec)
			if err != nil {
				t.Fatal(err)
			}
			diffCellsExact(t, "recompute", got, want)
			if q := store.Stats().Quarantined; q != 1 {
				t.Errorf("quarantined = %d, want 1", q)
			}
			if b, _ := store.GetEntry(c.key); !bytes.Equal(b, good) {
				t.Errorf("after the recompute the store holds %q, want the fresh store's blob", b)
			}
			if err := store.Flush(); err != nil {
				t.Fatal(err)
			}

			reopened, err := tracestore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if b, _ := reopened.GetEntry(c.key); !bytes.Equal(b, good) {
				t.Errorf("flushed index.json holds %q, want the fresh store's blob", b)
			}
			next := opts
			next.Store = reopened
			if cell, ok := LookupTally(next, spec); !ok {
				t.Error("the next lookup is not a tally hit")
			} else {
				diffCellsExact(t, "next lookup", cell, want)
			}
		})
	}
}
