package atsp

import "sort"

// NearestNeighbor builds a tour greedily from the given start node.
func NearestNeighbor(m Matrix, start int) ([]int, int) {
	n := len(m)
	visited := make([]bool, n)
	tour := make([]int, 0, n)
	cur := start
	visited[cur] = true
	tour = append(tour, cur)
	for len(tour) < n {
		next, bestC := -1, 0
		for j := 0; j < n; j++ {
			if visited[j] || j == cur {
				continue
			}
			if next < 0 || m[cur][j] < bestC {
				next, bestC = j, m[cur][j]
			}
		}
		visited[next] = true
		tour = append(tour, next)
		cur = next
	}
	return tour, m.TourCost(tour)
}

// GreedyEdge builds a tour by repeatedly committing the globally cheapest
// arc that keeps out-degrees, in-degrees and acyclicity valid, closing the
// Hamiltonian cycle with the last arc.
func GreedyEdge(m Matrix) ([]int, int) {
	n := len(m)
	type arc struct{ from, to, cost int }
	arcs := make([]arc, 0, n*n-n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				arcs = append(arcs, arc{i, j, m[i][j]})
			}
		}
	}
	sort.Slice(arcs, func(a, b int) bool { return arcs[a].cost < arcs[b].cost })
	next := make([]int, n)
	prev := make([]int, n)
	for i := range next {
		next[i], prev[i] = -1, -1
	}
	// find chain end starting from a node
	chainEnd := func(v int) int {
		for next[v] >= 0 {
			v = next[v]
		}
		return v
	}
	committed := 0
	for _, a := range arcs {
		if committed == n-1 {
			break
		}
		if next[a.from] >= 0 || prev[a.to] >= 0 {
			continue
		}
		if chainEnd(a.to) == a.from {
			continue // would close a short cycle
		}
		next[a.from] = a.to
		prev[a.to] = a.from
		committed++
	}
	// Close the cycle: exactly one node without successor remains.
	tour := make([]int, 0, n)
	start := 0
	for v := 0; v < n; v++ {
		if prev[v] < 0 {
			start = v
			break
		}
	}
	for v := start; len(tour) < n; v = next[v] {
		tour = append(tour, v)
		if next[v] < 0 {
			break
		}
	}
	if len(tour) != n {
		// Fall back defensively; should not happen.
		return NearestNeighbor(m, 0)
	}
	return tour, m.TourCost(tour)
}

// OrOpt improves a tour by relocating segments of length 1..3 to every
// other position, a direction-preserving local search suited to asymmetric
// instances (unlike 2-opt, it never reverses a segment). It repeats until
// no move improves the cost.
func OrOpt(m Matrix, tour []int) ([]int, int) {
	n := len(tour)
	cur := append([]int(nil), tour...)
	cost := m.TourCost(cur)
	// Scratch buffers, reused across moves: an improving candidate swaps
	// places with cur, so the search allocates nothing after this.
	cand := make([]int, 0, n)
	seg := make([]int, 0, 3)
	rest := make([]int, 0, n)
	improved := true
	for improved {
		improved = false
		for segLen := 1; segLen <= 3 && segLen < n; segLen++ {
			for i := 0; i < n; i++ {
				// Segment occupies positions i..i+segLen-1 (cyclically
				// contiguous); try reinserting after position k.
				if i+segLen > n {
					continue
				}
				seg = append(seg[:0], cur[i:i+segLen]...)
				rest = append(rest[:0], cur[:i]...)
				rest = append(rest, cur[i+segLen:]...)
				for k := 0; k <= len(rest); k++ {
					cand = append(cand[:0], rest[:k]...)
					cand = append(cand, seg...)
					cand = append(cand, rest[k:]...)
					if c := m.TourCost(cand); c < cost {
						cur, cand, cost = cand, cur, c
						improved = true
					}
				}
			}
		}
	}
	return cur, cost
}

// bestHeuristic returns the best tour among nearest-neighbour from every
// start and greedy-edge, each polished with or-opt.
func bestHeuristic(m Matrix) ([]int, int) {
	n := len(m)
	var best []int
	bestCost := 0
	consider := func(t []int, c int) {
		t, c = OrOpt(m, t)
		if best == nil || c < bestCost {
			best, bestCost = t, c
		}
	}
	for s := 0; s < n; s++ {
		t, c := NearestNeighbor(m, s)
		consider(t, c)
	}
	t, c := GreedyEdge(m)
	consider(t, c)
	return canonical(best), bestCost
}
