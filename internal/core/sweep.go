package core

import (
	"errors"

	"marchgen/fsm"
	"marchgen/internal/budget"
	"marchgen/internal/gts"
	"marchgen/internal/memo"
	"marchgen/internal/obs"
	"marchgen/internal/tpg"
	"marchgen/march"
)

// errSweepStop is fold's signal that the candidate budget ran out: the
// sweep stops and the run finishes from its incumbent.
var errSweepStop = errors.New("core: candidate budget exhausted")

// sweep is the state of one §5 selection sweep. GenerateCtx calls produce
// once per selection, in selection order; the work splits in two halves:
//
//   - produce is the selection-local work: reduce the selection, skip a
//     node set already seen, solve its ordering (warm-chained from the
//     previous selection) and assemble the candidates of each distinct
//     ordering;
//   - fold is the work that depends on the sweep so far: the candidate
//     budget, the incumbent prune, validation, shrinking and better().
type sweep struct {
	m       *budget.Meter
	classes []tpg.Class
	opts    Options
	cache   *memo.Cache
	degrade func(string)
	// stages records stage windows (nil-safe: nil records none).
	stages *obs.Stages

	// seen holds the node-set signatures already produced.
	seen map[string]bool
	// prevOrder is the warm chain: the previous selection's first
	// optimal ordering, the next exact solve's incumbent seed.
	prevOrder []fsm.Pattern
	// minSel is the cheapest exact visit cost seen (-1: none yet).
	minSel int
	// lastErr is the last soft pipeline error, reported when no
	// candidate validates.
	lastErr error

	// gen validates and shrinks candidates for fold.
	gen        *genContext
	prog       *obs.Progress
	best       *march.Test
	bestSel    solvedSel
	candidates int
}

// solvedSel is what the sweep keeps of the selection a candidate came
// from: its TPG node count and the ATSP visit cost of its ordering.
type solvedSel struct{ nodes, cost int }

func newSweep(m *budget.Meter, classes []tpg.Class, opts Options, cache *memo.Cache, degrade func(string)) *sweep {
	return &sweep{
		m:       m,
		classes: classes,
		opts:    opts,
		cache:   cache,
		degrade: degrade,
		seen:    map[string]bool{},
		minSel:  -1,
	}
}

// firstSeen marks a node-set signature seen and reports whether it was
// new: different selections can reduce to the same TPG, and only the
// first is worth solving.
func (s *sweep) firstSeen(sig string) bool {
	if s.seen[sig] {
		return false
	}
	s.seen[sig] = true
	return true
}

// soft passes a hard cancellation through; any other pipeline error only
// skips the current unit of work and is remembered in lastErr.
func (s *sweep) soft(err error) error {
	if budget.IsHard(err) {
		return err
	}
	s.lastErr = err
	return nil
}

// produce runs the selection-local half of the sweep on sel and folds
// each distinct ordering's assembled candidates, stopping at the first
// error fold returns. A node set already seen, or a solve that fails
// softly, contributes nothing.
func (s *sweep) produce(sel tpg.Selection) error {
	nodes := tpg.Reduce(s.classes, sel)
	if !s.firstSeen(nodeSignature(nodes)) {
		return nil
	}
	s.stages.Enter("atsp")
	patterns, cost, exactCost, err := s.order(nodes)
	if err != nil {
		return s.soft(err)
	}
	if exactCost && (s.minSel < 0 || cost < s.minSel) {
		s.minSel = cost
	}
	solved := solvedSel{nodes: len(nodes), cost: cost}
	seenOrder := map[string]bool{}
	for _, ordered := range patterns {
		if osig := orderSignature(ordered); seenOrder[osig] {
			continue
		} else {
			seenOrder[osig] = true
		}
		s.stages.Enter("assemble")
		cands, err := gts.AssembleMeter(s.m, ordered, s.opts.Beam)
		if err != nil {
			if err := s.soft(err); err != nil {
				return err
			}
			continue
		}
		if err := s.fold(solved, cands); err != nil {
			return err
		}
	}
	return nil
}

// fold runs the global half of the sweep over one batch of candidates
// from the selection sel, in order: count each against the candidate
// budget (its exhaustion returns errSweepStop), skip those too long to
// beat the incumbent even after shrinking, validate, shrink, and keep
// the better test. A non-nil error other than errSweepStop is a hard
// failure from validation.
func (s *sweep) fold(sel solvedSel, cands []*march.Test) error {
	for _, cand := range cands {
		if lim := s.opts.Budget.Candidates; lim > 0 && s.candidates >= lim {
			s.degrade("assemble")
			return errSweepStop
		}
		s.candidates++
		s.prog.Candidates(int64(s.candidates))
		if s.best != nil && cand.Complexity() >= s.best.Complexity()+2 {
			continue
		}
		s.stages.Enter("validate")
		ok := s.gen.complete(cand)
		if s.gen.err != nil {
			return s.gen.err
		}
		if !ok {
			continue
		}
		if !s.opts.DisableShrink {
			s.stages.Enter("shrink")
			cand = s.gen.shrink(cand)
			if s.gen.err != nil {
				return s.gen.err
			}
		}
		if better(cand, s.best) {
			s.best = cand
			s.bestSel = sel
			s.prog.Best(int64(cand.Complexity()))
		}
	}
	return nil
}
