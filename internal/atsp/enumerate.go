package atsp

import (
	"fmt"

	"marchgen/internal/budget"
	"marchgen/internal/obs"
)

// OptimalPaths enumerates open paths of exactly the optimal cost (the same
// objective as Path with exact=true): different optimal visits can fold
// into March tests of different quality downstream, so the caller wants
// them all. At most limit paths are returned; the search is additionally
// capped at enumNodeCap nodes as a safety valve (the instances produced
// by Test Pattern Graphs are small).
func OptimalPaths(m Matrix, startCost []int, limit int) ([][]int, int, error) {
	return OptimalPathsOpt(nil, m, startCost, limit, PathOptions{})
}

// enumNodeCap is the enumeration's node safety valve. A search that hits
// it is incomplete: OptimalPathsOpt counts it as atsp.enum.capped and
// fails with an error wrapping budget.ErrBudgetExhausted, so the caller
// degrades visibly instead of losing the instance.
const enumNodeCap = 500000

// OptimalPathsOpt is OptimalPaths under a budget meter and PathOptions.
// Both the exact solve establishing the optimum and the enumeration
// charge the meter per search node, so the call aborts with a typed error
// on cancellation or node-budget exhaustion (nil meter: only the built-in
// enumNodeCap valve). The establishing solve can be warm-started and
// routed to the branch and bound, while the enumeration itself is
// untouched — its emission order feeds the rewrite engine, so the
// returned paths are byte-identical whatever the options. CostOnly is
// forced: only the optimal cost survives into the enumeration, so the
// establishing solve never needs the canonical tour.
func OptimalPathsOpt(mt *budget.Meter, m Matrix, startCost []int, limit int, opt PathOptions) ([][]int, int, error) {
	if limit <= 0 {
		limit = 16
	}
	opt.CostOnly = true
	_, best, err := PathOpt(mt, m, startCost, true, opt)
	if err != nil {
		return nil, 0, err
	}
	n := len(m)
	// minOut[v] is a simple admissible remainder bound: every unvisited
	// node except the last must be left through its cheapest arc.
	minOut := make([]int, n)
	for i := 0; i < n; i++ {
		minOut[i] = Inf
		for j := 0; j < n; j++ {
			if i != j && m[i][j] < minOut[i] {
				minOut[i] = m[i][j]
			}
		}
		if n == 1 {
			minOut[i] = 0
		}
	}
	var paths [][]int
	visited := make([]bool, n)
	cur := make([]int, 0, n)
	nodes := 0
	capped := false
	var recErr error
	var rec func(cost int)
	rec = func(cost int) {
		if recErr != nil || len(paths) >= limit || capped {
			return
		}
		if nodes > enumNodeCap {
			capped = true
			return
		}
		if err := mt.Node(); err != nil {
			recErr = err
			return
		}
		nodes++
		if len(cur) == n {
			if cost == best {
				paths = append(paths, append([]int(nil), cur...))
			}
			return
		}
		last := -1
		if len(cur) > 0 {
			last = cur[len(cur)-1]
		}
		for v := 0; v < n; v++ {
			if visited[v] {
				continue
			}
			step := 0
			if last < 0 {
				if startCost != nil {
					step = startCost[v]
				}
			} else {
				step = m[last][v]
			}
			// Admissible bound: the remaining unvisited nodes (minus the
			// final one) must each be exited once.
			lb := 0
			remaining := 0
			for w := 0; w < n; w++ {
				if !visited[w] && w != v {
					remaining++
					lb += minOut[w]
				}
			}
			if remaining > 0 {
				// The path's final node is not exited: refund the largest
				// of the counted minimal exits... a simpler sound bound is
				// to drop one arbitrary exit; dropping the maximum keeps
				// admissibility.
				maxDrop := 0
				for w := 0; w < n; w++ {
					if !visited[w] && w != v && minOut[w] > maxDrop {
						maxDrop = minOut[w]
					}
				}
				lb -= maxDrop
			}
			if cost+step+lb > best {
				continue
			}
			visited[v] = true
			cur = append(cur, v)
			rec(cost + step)
			cur = cur[:len(cur)-1]
			visited[v] = false
		}
	}
	rec(0)
	if run := obs.From(mt.Context()); run != nil {
		run.Counter("atsp.enum.nodes").Add(int64(nodes))
		if capped {
			run.Counter("atsp.enum.capped").Inc()
		}
		run.Progress().AddNodes(int64(nodes))
		run.StartUnder("atsp/enumerate").
			SetInt("n", int64(n)).
			SetInt("nodes", int64(nodes)).
			SetInt("paths", int64(len(paths))).
			End()
	}
	if recErr != nil {
		return nil, 0, recErr
	}
	if capped {
		return nil, 0, fmt.Errorf("atsp: optimal-path enumeration stopped at %d nodes (%d of %d paths): %w",
			enumNodeCap, len(paths), limit, budget.ErrBudgetExhausted)
	}
	if len(paths) == 0 {
		return nil, 0, fmt.Errorf("atsp: internal error: no path re-achieves the optimal cost %d", best)
	}
	return paths, best, nil
}
