package xeon

import "testing"

// TestSnapshotRestoreRoundTrip pins the snapshot contract: a fresh
// pipeline restored from a warm snapshot, measured over the same
// stream, produces the exact breakdown the warm original produces.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	warm := synthBatch(1 << 17)
	measured := synthBatch(1 << 16)

	orig := New(DefaultConfig())
	orig.ProcessBatch(warm)
	snap := orig.Snapshot(nil)
	orig.ResetStats()
	orig.ProcessBatch(measured)

	restored := New(DefaultConfig())
	if err := restored.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	restored.ResetStats()
	restored.ProcessBatch(measured)

	assertPipesEqual(t, "restored", restored, orig)
}

// TestSnapshotEqual pins State.Equal: equal states compare equal, and
// draining anything breaks equality.
func TestSnapshotEqual(t *testing.T) {
	p := New(DefaultConfig())
	p.ProcessBatch(synthBatch(1 << 12))
	a := p.Snapshot(nil)
	b := p.Snapshot(nil)
	if !a.Equal(b) {
		t.Fatal("two snapshots of the same state compare unequal")
	}
	p.ProcessBatch(synthBatch(64))
	c := p.Snapshot(nil)
	if a.Equal(c) {
		t.Fatal("snapshot unchanged after draining more events")
	}
	// Reusing a State as the Snapshot destination must fully overwrite it.
	d := p.Snapshot(a)
	if !d.Equal(c) {
		t.Fatal("snapshot into reused buffer differs from fresh snapshot")
	}
}

// TestRestoreGeometryMismatch: a snapshot from one configuration must
// refuse to restore into a pipeline with different structure sizes.
func TestRestoreGeometryMismatch(t *testing.T) {
	small := DefaultConfig()
	big := DefaultConfig()
	big.L2SizeKB = 2048
	snap := New(small).Snapshot(nil)
	if err := New(big).Restore(snap); err == nil {
		t.Fatal("restore into mismatched geometry succeeded")
	}
}
