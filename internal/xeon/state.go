package xeon

import "fmt"

// State is a snapshot of a Pipeline's complete simulated machine
// state: the packed way words of every cache and TLB, the BTB's
// tag/metadata words and pattern tables, the fetch-page memo, the
// non-blocking-miss overlap window, and the interrupt phase. It is
// everything the next drained event can observe — capturing and
// restoring it is a handful of memcpys (~150 KB at the default
// geometry), orders of magnitude cheaper than re-draining a warm-up
// pass of a multi-million-event stream.
//
// A State deliberately excludes the measurement accumulators (stall
// cycles, event counts, per-structure hit/miss counters): those are
// what ResetStats zeroes between the warm-up passes and the measured
// run, so a snapshot taken after warm-up plus Restore plus ResetStats
// reproduces the paper's Section 4.3 protocol exactly.
type State struct {
	l1i, l1d, l2 []uint64
	itlb, dtlb   []uint64
	btbEnts      []uint64
	btbPattern   []uint8

	lastIPage        uint64
	haveIPage        bool
	refsSinceL2DMiss int
	inFlight         int

	// interruptPhase is nextInterrupt - grossCycles: the gross-cycle
	// distance to the next OS timer interrupt. Absolute deadlines keep
	// growing run over run, but only the distance affects future
	// evolution, so the snapshot stores (and Equal compares) the
	// relative form. Zero when interrupts are disabled.
	interruptPhase float64
}

// copyWords grows dst to len(src) reusing capacity, then copies.
func copyWords(dst, src []uint64) []uint64 {
	if cap(dst) < len(src) {
		dst = make([]uint64, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

// Snapshot captures the pipeline's simulated state into dst, reusing
// its buffers when large enough; pass nil to allocate a fresh State.
func (p *Pipeline) Snapshot(dst *State) *State {
	if dst == nil {
		dst = &State{}
	}
	dst.l1i = copyWords(dst.l1i, p.l1i.ents)
	dst.l1d = copyWords(dst.l1d, p.l1d.ents)
	dst.l2 = copyWords(dst.l2, p.l2.ents)
	dst.itlb = copyWords(dst.itlb, p.itlb.c.ents)
	dst.dtlb = copyWords(dst.dtlb, p.dtlb.c.ents)
	dst.btbEnts = copyWords(dst.btbEnts, p.bp.ents)
	if cap(dst.btbPattern) < len(p.bp.pattern) {
		dst.btbPattern = make([]uint8, len(p.bp.pattern))
	}
	dst.btbPattern = dst.btbPattern[:len(p.bp.pattern)]
	copy(dst.btbPattern, p.bp.pattern)
	dst.lastIPage = p.lastIPage
	dst.haveIPage = p.haveIPage
	dst.refsSinceL2DMiss = p.refsSinceL2DMiss
	dst.inFlight = p.inFlight
	if p.cfg.InterruptCycles > 0 {
		dst.interruptPhase = p.nextInterrupt - p.grossCycles
	} else {
		dst.interruptPhase = 0
	}
	return dst
}

// Restore overwrites the pipeline's simulated state with the
// snapshot. The measurement accumulators are left alone (callers
// running the warm-cache protocol ResetStats immediately after).
// Gross time restarts at zero with the snapshot's interrupt phase as
// the next deadline, which evolves identically to the snapshotted
// pipeline's absolute clock. Restoring into a pipeline whose
// configuration has different structure geometry is an error, checked
// before anything is copied — a failed Restore leaves the pipeline
// untouched.
func (p *Pipeline) Restore(s *State) error {
	if len(s.l1i) != len(p.l1i.ents) || len(s.l1d) != len(p.l1d.ents) ||
		len(s.l2) != len(p.l2.ents) ||
		len(s.itlb) != len(p.itlb.c.ents) || len(s.dtlb) != len(p.dtlb.c.ents) ||
		len(s.btbEnts) != len(p.bp.ents) || len(s.btbPattern) != len(p.bp.pattern) {
		return fmt.Errorf("xeon: snapshot geometry does not match pipeline configuration")
	}
	copy(p.l1i.ents, s.l1i)
	copy(p.l1d.ents, s.l1d)
	copy(p.l2.ents, s.l2)
	copy(p.itlb.c.ents, s.itlb)
	copy(p.dtlb.c.ents, s.dtlb)
	copy(p.bp.ents, s.btbEnts)
	copy(p.bp.pattern, s.btbPattern)
	p.lastIPage = s.lastIPage
	p.haveIPage = s.haveIPage
	p.refsSinceL2DMiss = s.refsSinceL2DMiss
	p.inFlight = s.inFlight
	p.grossCycles = 0
	if p.cfg.InterruptCycles > 0 {
		p.nextInterrupt = s.interruptPhase
	} else {
		p.nextInterrupt = p.cfg.InterruptCycles
	}
	return nil
}

func wordsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// Equal reports whether two snapshots describe the same simulated
// state: identical structure contents and identical forward dynamics
// (fetch-page memo, overlap window, interrupt phase). Two pipelines
// with equal states evolve identically under the same stream.
func (s *State) Equal(o *State) bool {
	if s == nil || o == nil {
		return s == o
	}
	if s.lastIPage != o.lastIPage || s.haveIPage != o.haveIPage ||
		s.refsSinceL2DMiss != o.refsSinceL2DMiss || s.inFlight != o.inFlight ||
		s.interruptPhase != o.interruptPhase {
		return false
	}
	if !wordsEqual(s.l1i, o.l1i) || !wordsEqual(s.l1d, o.l1d) || !wordsEqual(s.l2, o.l2) ||
		!wordsEqual(s.itlb, o.itlb) || !wordsEqual(s.dtlb, o.dtlb) ||
		!wordsEqual(s.btbEnts, o.btbEnts) {
		return false
	}
	if len(s.btbPattern) != len(o.btbPattern) {
		return false
	}
	for i, v := range s.btbPattern {
		if v != o.btbPattern[i] {
			return false
		}
	}
	return true
}
