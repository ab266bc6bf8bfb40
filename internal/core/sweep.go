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

// sweep is the state of one §5 selection sweep, split into the two halves
// every way of running the sweep shares:
//
//   - produce is the selection-local work: reduce the selection, skip a
//     node set already seen, solve its ordering (warm-chained from the
//     previous selection) and assemble the candidates of each distinct
//     ordering;
//   - fold is the work that depends on global sweep state: the candidate
//     budget, the incumbent prune, validation, shrinking and better().
//
// GenerateCtx's local loop runs produce then fold per selection; a shard
// (RunShardModels) runs only produce; the distributed replay runs only
// fold, over the shards' merged candidate streams.
type sweep struct {
	m       *budget.Meter
	classes []tpg.Class
	opts    Options
	workers int
	cache   *memo.Cache
	degrade func(string)
	// stages records stage windows (nil: none, as in a shard).
	stages *obs.Stages

	// seen holds the node-set signatures already produced or replayed.
	seen map[string]bool
	// prevOrder is the warm chain: the previous selection's first
	// optimal ordering, the next exact solve's incumbent seed.
	prevOrder []fsm.Pattern
	// minSel is the cheapest exact visit cost seen (-1: none yet).
	minSel int
	// lastErr is the last soft pipeline error, reported when no
	// candidate validates.
	lastErr error

	// gen validates and shrinks candidates; fold needs it, produce not.
	gen                 *genContext
	prog                *obs.Progress
	best                *march.Test
	bestNodes, bestCost int
	candidates          int
}

func newSweep(m *budget.Meter, classes []tpg.Class, opts Options, workers int, cache *memo.Cache, degrade func(string)) *sweep {
	return &sweep{
		m:       m,
		classes: classes,
		opts:    opts,
		workers: workers,
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

// solved folds a solved selection's exact cost into MinSelectionCost.
func (s *sweep) solved(sel *ShardSelection) {
	if sel.ExactCost && (s.minSel < 0 || sel.Cost < s.minSel) {
		s.minSel = sel.Cost
	}
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

// produce runs the selection-local half of the sweep on sel and hands
// each distinct ordering's assembled candidates to emit, stopping at the
// first error emit returns. It returns the selection's summary, or nil
// when the node set was already seen or its solve failed softly.
func (s *sweep) produce(sel tpg.Selection, emit func(*ShardSelection, []*march.Test) error) (*ShardSelection, error) {
	nodes := tpg.Reduce(s.classes, sel)
	sig := nodeSignature(nodes)
	if !s.firstSeen(sig) {
		return nil, nil
	}
	s.stages.Enter("atsp")
	patterns, cost, exactCost, err := s.order(nodes)
	if err != nil {
		return nil, s.soft(err)
	}
	out := &ShardSelection{Sig: sig, Nodes: len(nodes), Cost: cost, ExactCost: exactCost}
	s.solved(out)
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
				return nil, err
			}
			continue
		}
		if err := emit(out, cands); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fold runs the global half of the sweep over one batch of sel's
// candidates, in order: count each against the candidate budget (its
// exhaustion returns errSweepStop), skip those too long to beat the
// incumbent even after shrinking, validate, shrink, and keep the better
// test. A non-nil error other than errSweepStop is a hard failure from
// validation.
func (s *sweep) fold(sel *ShardSelection, cands []*march.Test) error {
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
			s.bestNodes, s.bestCost = sel.Nodes, sel.Cost
			s.prog.Best(int64(cand.Complexity()))
		}
	}
	return nil
}
