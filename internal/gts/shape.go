// Package gts turns an ordered visit of the Test Pattern Graph — a minimum
// length Global Test Sequence — into a March test, reproducing the three
// rewrite phases of the paper's Section 4: reordering (choosing where each
// pattern's operations land relative to the March-element structure),
// minimisation (never emitting an operation the partial test already
// provides), and March test generation (assigning ⇑/⇓/⇕ addressing orders,
// the paper's Rules 1–5).
//
// The implementation expresses the rewrite system as a small beam search
// over canonical March constructions. The canonical family — an optional
// uniform initialisation element followed by elements that lead with a
// read-and-verify of the previous element's closing value — is exactly the
// family the paper's colored-symbol rules produce: the leading read of each
// element is the "red" observation boundary, the trailing writes are the
// "blue" excitation boundary. Every candidate the assembler returns is
// subsequently validated against the real fault machines by the caller, so
// the rewrite layer cannot silently produce an unsound test.
package gts

import (
	"fmt"

	"marchgen/fsm"
	"marchgen/internal/simd"
	"marchgen/march"
)

// shapeKind classifies test patterns by the rewrite templates that can
// realise them.
type shapeKind uint8

const (
	// shapeSingle: excitation and observation on the same cell (stuck-at,
	// transition, write/read-destructive, incorrect-read faults, …).
	shapeSingle shapeKind = iota
	// shapePair: a write on the aggressor cell, observation on the other
	// cell (coupling faults and the write-side of address faults).
	shapePair
	// shapeRetention: excitation is the wait symbol T.
	shapeRetention
)

// shape is the normalised form of a test pattern used by the assembler.
type shape struct {
	kind shapeKind
	// excite is the exciting operation translated to a March op (reads
	// carry their expected value). Unset when the pattern is observation-
	// only (hasExcite false).
	excite    march.Op
	hasExcite bool
	// a is the value the excited cell must hold immediately before the
	// excitation (X if unconstrained).
	a march.Bit
	// b is the value the observed cell must hold (and the value the
	// observing read expects).
	b march.Bit
	// aggLow is meaningful for shapePair: true when the aggressor is
	// cell i (the lower address).
	aggLow bool
	// cond constrains the non-excited cell of a single-cell pattern (X
	// when free); condLow says the constrained cell is cell i. Such
	// "conditioned" single-cell faults need the same order discipline as
	// pair faults: the condition cell must hold cond when the excitation
	// runs.
	cond    march.Bit
	condLow bool
	// pattern is the original test pattern.
	pattern fsm.Pattern
	// lut is the pattern's synthetic machine compiled into dense tables:
	// the coverage check of the minimisation phase runs on it.
	lut *simd.Compiled
}

// normalise classifies a pattern, rejecting shapes the rewrite templates
// cannot realise (such patterns only occur as discarded alternatives of
// equivalence classes; the caller then tries another class selection).
func normalise(p fsm.Pattern) (shape, error) {
	s := shape{pattern: p}
	obs := p.GoodObservation()
	if !obs.Known() {
		return s, fmt.Errorf("gts: pattern %s observes an unknown value", p)
	}
	s.b = obs
	switch len(p.Excite) {
	case 0:
		// Observation-only: realisable when no other cell is constrained;
		// a constrained second cell would need a mid-element mixed state.
		other := p.Observe.Cell.Other()
		if p.Init.Get(other).Known() {
			return s, fmt.Errorf("gts: observation-only pattern %s constrains both cells", p)
		}
		s.kind = shapeSingle
		s.a = p.Init.Get(p.Observe.Cell)
		return s, nil
	case 1:
		e := p.Excite[0]
		if e.IsWait() {
			s.kind = shapeRetention
			s.a = p.Init.Get(p.Observe.Cell)
			if !s.a.Known() {
				return s, fmt.Errorf("gts: retention pattern %s needs a concrete initial value", p)
			}
			return s, nil
		}
		s.hasExcite = true
		s.a = p.Init.Get(e.Cell)
		if e.IsRead() {
			exp := s.a
			if !exp.Known() {
				return s, fmt.Errorf("gts: read excitation of %s needs a concrete value", p)
			}
			s.excite = march.Op{Kind: march.Read, Data: exp}
		} else {
			s.excite = march.Op{Kind: march.Write, Data: e.Data}
		}
		if e.Cell == p.Observe.Cell {
			s.kind = shapeSingle
			other := e.Cell.Other()
			s.cond = p.Init.Get(other)
			s.condLow = other == fsm.CellI
			return s, nil
		}
		s.kind = shapePair
		s.aggLow = e.Cell == fsm.CellI
		return s, nil
	default:
		return s, fmt.Errorf("gts: pattern %s has a multi-operation excitation", p)
	}
}
