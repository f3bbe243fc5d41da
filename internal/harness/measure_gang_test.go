package harness

// Tests for the exported gang entry point (MeasureGang) and the
// batching-key contract (GangKey): the wheretimed batcher groups
// requests by GangKey and hands each group to MeasureGang, so this
// file pins the two halves of that hand-off — equal gang keys mean
// MeasureGang accepts the group and returns cells identical to solo
// measurement, and unequal emission keys are rejected rather than
// silently cross-batched.

import (
	"math"
	"testing"

	"wheretime/internal/engine"
	"wheretime/internal/xeon"
)

// TestMeasureGangMatchesMeasure: a gang of platform variants measured
// through the exported entry point is cell-for-cell identical to the
// same specs each measured as its own unit.
func TestMeasureGangMatchesMeasure(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.002
	configs := gangSweepConfigs()
	unit := make([]CellSpec, len(configs))
	for i, cfg := range configs {
		o := opts
		o.Config = cfg
		unit[i] = microCell(o, engine.SystemD, SRS)
	}

	gang, err := MeasureGang(opts, unit)
	if err != nil {
		t.Fatal(err)
	}
	solo := measureEach(t, opts, unit)
	for _, spec := range unit {
		g, err := gang.Get(spec)
		if err != nil {
			t.Fatal(err)
		}
		compareCells(t, spec, g, solo[spec])
	}
}

// TestMeasureGangValidation: mismatched emission keys are rejected,
// the unbatched pipeline is rejected, duplicates dedupe, and an empty
// gang is a no-op.
func TestMeasureGangValidation(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.002
	a := microCell(opts, engine.SystemD, SRS)
	b := microCell(opts, engine.SystemD, SJ) // different workload
	if _, err := MeasureGang(opts, []CellSpec{a, b}); err == nil {
		t.Error("MeasureGang accepted specs with different emission keys")
	}

	bad := opts
	bad.Unbatched = true
	if _, err := MeasureGang(bad, []CellSpec{a}); err == nil {
		t.Error("MeasureGang accepted the unbatched pipeline")
	}

	res, err := MeasureGang(opts, nil)
	if err != nil {
		t.Fatalf("empty gang: %v", err)
	}
	if res == nil {
		t.Error("empty gang returned nil results")
	}
	if _, err := res.Get(a); err == nil {
		t.Error("empty gang claims to hold a cell")
	}

	dup := a
	dup.Config = opts.Config // identical spec, listed twice
	res, err = MeasureGang(opts, []CellSpec{a, dup, a})
	if err != nil {
		t.Fatalf("duplicated gang: %v", err)
	}
	if _, err := res.Get(a); err != nil {
		t.Errorf("duplicated gang lost its cell: %v", err)
	}
}

// FuzzGangKeyCompat pins the batching-key contract from random spec
// pairs: two specs share a gang key exactly when they share an
// emission key (under one option set). The forward direction is the
// soundness the wheretimed batcher relies on — it groups requests by
// GangKey and MeasureGang re-validates on emission keys, so a gang
// key collision across workloads would turn bursts into 500s (or,
// worse, silently cross-batch streams). The reverse direction is
// completeness: compatible platform variants must never miss the
// batch over key trivia.
func FuzzGangKeyCompat(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(0), 0.10, 100, 0, uint16(512), uint16(512),
		uint8(0), uint8(1), uint8(0), 0.10, 100, 0, uint16(2048), uint16(512), uint8(1))
	f.Add(uint8(0), uint8(3), uint8(2), 0.05, 48, 0, uint16(512), uint16(512),
		uint8(0), uint8(3), uint8(3), 0.05, 48, 0, uint16(512), uint16(512), uint8(2))
	f.Add(uint8(1), uint8(0), uint8(0), 0.0, 0, 0, uint16(1024), uint16(4096),
		uint8(2), uint8(2), uint8(0), 0.0, 0, 40, uint16(1024), uint16(4096), uint8(0))
	// Regression shape: two TPC-D specs differing only in fields
	// CellSpec.String drops — the collision the injective keyMaterial
	// fixed.
	f.Add(uint8(1), uint8(1), uint8(1), 1.26, 100, 0, uint16(512), uint16(512),
		uint8(1), uint8(1), uint8(2), 0.259, 36, 81, uint16(512), uint16(512), uint8(1))
	// Regression shape: a platform pair whose selectivities are 0 and
	// -0, which compare equal and so must share one gang key (the key
	// material once hashed their distinct bits).
	f.Add(uint8(0), uint8(3), uint8(0), 0.0, 100, 0, uint16(512), uint16(512),
		uint8(0), uint8(3), uint8(0), math.Copysign(0, -1), 100, 0, uint16(2048), uint16(512), uint8(1))
	f.Fuzz(func(t *testing.T,
		kindA, sysA, qA uint8, selA float64, recA, txnsA int, l2A, btbA uint16,
		kindB, sysB, qB uint8, selB float64, recB, txnsB int, l2B, btbB uint16,
		warmup uint8) {
		// The request decoder never admits a NaN selectivity, and NaN
		// breaks the struct-equality half of the property by design
		// (NaN != NaN).
		if math.IsNaN(selA) || math.IsNaN(selB) {
			t.Skip()
		}
		mk := func(kind, sys, q uint8, sel float64, rec, txns int, l2, btb uint16) CellSpec {
			systems := []engine.System{engine.SystemA, engine.SystemB, engine.SystemC, engine.SystemD}
			cfg := xeon.DefaultConfig()
			cfg.L2SizeKB = int(l2)
			cfg.BTBEntries = int(btb)
			return CellSpec{
				Kind:        CellKind(kind % 3),
				System:      systems[sys%4],
				Query:       QueryKind(q % 8),
				Selectivity: sel,
				RecordSize:  rec,
				Txns:        txns,
				Config:      cfg,
			}
		}
		a := mk(kindA, sysA, qA, selA, recA, txnsA, l2A, btbA)
		b := mk(kindB, sysB, qB, selB, recB, txnsB, l2B, btbB)
		opts := DefaultOptions()
		opts.Warmup = int(warmup % 4)

		sameGang := GangKey(opts, a) == GangKey(opts, b)
		sameEmission := emissionKey(a) == emissionKey(b)
		if sameGang && !sameEmission {
			t.Fatalf("gang key collision across emission keys:\n a=%+v\n b=%+v", a, b)
		}
		if sameEmission && !sameGang {
			t.Fatalf("compatible specs got different gang keys:\n a=%+v\n b=%+v", a, b)
		}
	})
}
