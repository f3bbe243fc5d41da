package tracestore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"wheretime/internal/faults"
	"wheretime/internal/trace"
)

var errDisk = errors.New("injected disk error")

// TestRetryTransientRead: a read that fails twice and then succeeds
// is absorbed by the bounded retry loop — the caller sees a clean hit
// and the stats record the retries taken.
func TestRetryTransientRead(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rec := captureRecording(200)
	digest, err := s.PutTrace(rec)
	if err != nil {
		t.Fatalf("PutTrace: %v", err)
	}
	inj := faults.New()
	inj.FailN(faults.OpRead, retryAttempts-1, errDisk)
	s.SetFaults(inj)
	got, err := s.GetTrace(digest)
	if err != nil || got == nil {
		t.Fatalf("GetTrace after transient faults: %v (rec=%v)", err, got != nil)
	}
	got.Release()
	rec.Release()
	if st := s.Stats(); st.Retries < retryAttempts-1 {
		t.Errorf("Stats.Retries = %d, want >= %d", st.Retries, retryAttempts-1)
	}
	if s.ReadOnly() {
		t.Error("store went read-only on a read fault")
	}
}

// TestRetryTransientWrite: same shape on the write path — a flush that
// fails twice still lands, and the store stays writable.
func TestRetryTransientWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	inj := faults.New()
	inj.FailN(faults.OpWrite, retryAttempts-1, errDisk)
	s.SetFaults(inj)
	s.PutEntry("k", []byte("v"))
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush with transient faults: %v", err)
	}
	if s.ReadOnly() {
		t.Error("store went read-only after a recovered write")
	}
	// The flush really landed: a fresh store sees the entry.
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if b, ok := s2.GetEntry("k"); !ok || string(b) != "v" {
		t.Errorf("entry after retried flush = %q, %v", b, ok)
	}
}

// TestQuarantineCorruptTrace pins the quarantine cycle: a trace whose
// bytes rot on disk errors once, gets renamed aside, misses cleanly on
// the next lookup, and a recompute rewrites a good copy under the same
// digest. No trace buffers leak across the whole cycle.
func TestQuarantineCorruptTrace(t *testing.T) {
	c0, e0, b0 := trace.LiveBuffers()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rec := captureRecording(300)
	digest, err := s.PutTrace(rec)
	if err != nil {
		t.Fatalf("PutTrace: %v", err)
	}
	path := s.tracePath(digest)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read trace file: %v", err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("corrupt trace file: %v", err)
	}

	if _, err := s.GetTrace(digest); err == nil {
		t.Fatal("GetTrace returned nil error for a corrupt file")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("quarantined file missing: %v", err)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Errorf("Stats.Quarantined = %d, want 1", st.Quarantined)
	}

	// Quarantine turned the corruption into a miss ...
	if got, err := s.GetTrace(digest); err != nil || got != nil {
		t.Fatalf("GetTrace after quarantine = %v, %v; want miss", got, err)
	}
	// ... and the recompute path can rewrite the same digest.
	d2, err := s.PutTrace(rec)
	if err != nil || d2 != digest {
		t.Fatalf("re-put after quarantine: %s, %v; want %s", d2, err, digest)
	}
	got, err := s.GetTrace(digest)
	if err != nil || got == nil {
		t.Fatalf("GetTrace after rewrite: %v", err)
	}
	got.Release()
	rec.Release()
	if c, e, b := trace.LiveBuffers(); c != c0 || e != e0 || b != b0 {
		t.Errorf("leaked buffers: chunks %d->%d encBufs %d->%d blocks %d->%d", c0, c, e0, e, b0, b)
	}
}

// TestInjectedCorruptionQuarantines drives the same path through the
// injector's data hook instead of rewriting the file by hand.
func TestInjectedCorruptionQuarantines(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rec := captureRecording(150)
	defer rec.Release()
	digest, err := s.PutTrace(rec)
	if err != nil {
		t.Fatalf("PutTrace: %v", err)
	}
	inj := faults.New()
	inj.CorruptN(faults.OpRead, 1, func(b []byte) []byte {
		if len(b) > 0 {
			b[len(b)-1] ^= 0xff
		}
		return b
	})
	s.SetFaults(inj)
	if _, err := s.GetTrace(digest); err == nil {
		t.Fatal("GetTrace returned nil error for injected corruption")
	}
	if inj.Fired(faults.OpRead) != 1 {
		t.Errorf("corruption rule fired %d times, want 1", inj.Fired(faults.OpRead))
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Errorf("Stats.Quarantined = %d, want 1", st.Quarantined)
	}
}

// TestReadOnlyFallback: a write that exhausts its retries flips the
// store read-only — later writes fail fast with ErrReadOnly, reads and
// the in-memory entries keep serving, and the stats say what happened.
func TestReadOnlyFallback(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rec := captureRecording(100)
	defer rec.Release()
	digest, err := s.PutTrace(rec)
	if err != nil {
		t.Fatalf("PutTrace: %v", err)
	}

	inj := faults.New()
	inj.FailN(faults.OpWrite, -1, errDisk) // the directory is gone for good
	s.SetFaults(inj)
	s.PutEntry("k", []byte("v"))
	if err := s.Flush(); !errors.Is(err, errDisk) {
		t.Fatalf("Flush = %v, want the injected disk error", err)
	}
	if !s.ReadOnly() {
		t.Fatal("store not read-only after exhausted write retries")
	}
	if err := s.Flush(); !errors.Is(err, ErrReadOnly) {
		t.Errorf("second Flush = %v, want ErrReadOnly", err)
	}
	if _, err := s.PutTrace(rec); !errors.Is(err, ErrReadOnly) {
		t.Errorf("PutTrace on read-only store = %v, want ErrReadOnly", err)
	}

	// Reads keep serving.
	if b, ok := s.GetEntry("k"); !ok || string(b) != "v" {
		t.Errorf("in-memory entry lost in read-only mode: %q, %v", b, ok)
	}
	got, err := s.GetTrace(digest)
	if err != nil || got == nil {
		t.Fatalf("GetTrace in read-only mode: %v", err)
	}
	got.Release()

	st := s.Stats()
	if st.WriteFailures < 1 || !st.ReadOnly {
		t.Errorf("Stats = %+v, want WriteFailures>=1 and ReadOnly", st)
	}
}

// TestOpenRecovering: plain Open refuses a corrupt index; the
// recovering variant quarantines it and serves an empty store.
func TestOpenRecovering(t *testing.T) {
	dir := t.TempDir()
	idx := filepath.Join(dir, "index.json")
	if err := os.WriteFile(idx, []byte("{not json"), 0o644); err != nil {
		t.Fatalf("write corrupt index: %v", err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("Open = %v, want ErrCorruptIndex", err)
	}
	s, err := OpenRecovering(dir)
	if err != nil {
		t.Fatalf("OpenRecovering: %v", err)
	}
	if _, err := os.Stat(idx + ".corrupt"); err != nil {
		t.Errorf("quarantined index missing: %v", err)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Errorf("Stats.Quarantined = %d, want 1", st.Quarantined)
	}
	// The store is usable: a flush writes a fresh index.
	s.PutEntry("k", []byte("v"))
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush after recovery: %v", err)
	}
	if _, err := Open(dir); err != nil {
		t.Errorf("reopen after recovery: %v", err)
	}

	// On a healthy directory OpenRecovering is just Open.
	s2, err := OpenRecovering(dir)
	if err != nil {
		t.Fatalf("OpenRecovering on healthy dir: %v", err)
	}
	if b, ok := s2.GetEntry("k"); !ok || string(b) != "v" {
		t.Errorf("healthy OpenRecovering lost entry: %q, %v", b, ok)
	}
	if st := s2.Stats(); st.Quarantined != 0 {
		t.Errorf("healthy OpenRecovering counted %d quarantines", st.Quarantined)
	}
}

// TestDropEntryHeals: an entry the caller cannot decode — here one
// loaded from disk — is dropped and counted as quarantined, the next
// lookup misses, the replacement is staged instead of losing to
// first-write-wins, and Flush writes it over the bad blob on disk.
// Dropping an absent key changes nothing.
func TestDropEntryHeals(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.PutEntry("tally|k", []byte("rotten"))
	s.PutEntry("tally|other", []byte("fine"))
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	s2.DropEntry("tally|k")
	s2.DropEntry("absent")
	if st := s2.Stats(); st.Quarantined != 1 {
		t.Errorf("Stats.Quarantined = %d, want 1 (absent keys are not counted)", st.Quarantined)
	}
	if _, ok := s2.GetEntry("tally|k"); ok {
		t.Fatal("dropped entry still answers")
	}
	s2.PutEntry("tally|k", []byte("good"))
	if b, ok := s2.GetEntry("tally|k"); !ok || string(b) != "good" {
		t.Fatalf("after re-put: %q, %v; want the replacement", b, ok)
	}
	if err := s2.Flush(); err != nil {
		t.Fatalf("Flush after heal: %v", err)
	}

	s3, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after heal: %v", err)
	}
	for k, want := range map[string]string{"tally|k": "good", "tally|other": "fine"} {
		if b, ok := s3.GetEntry(k); !ok || string(b) != want {
			t.Errorf("on disk %s = %q, %v; want %q", k, b, ok, want)
		}
	}
}
