package atsp

import (
	"math/rand"
	"reflect"
	"testing"
)

// collectBounds runs a branch-and-bound solve with bbBoundHook installed and
// returns every (constrained matrix, assignment bound) pair the search
// computed, including the root. The hook clones the matrix: the solver
// mutates node matrices after bounding them.
func collectBounds(t *testing.T, m Matrix, opt SolveOptions) (tour []int, cost int, nodes []struct {
	w  Matrix
	lb int
}) {
	t.Helper()
	bbBoundHook = func(w Matrix, lb int) {
		nodes = append(nodes, struct {
			w  Matrix
			lb int
		}{w.Clone(), lb})
	}
	defer func() { bbBoundHook = nil }()
	tour, cost, err := BranchBoundOpt(nil, m, opt)
	if err != nil {
		t.Fatalf("BranchBoundOpt: %v", err)
	}
	return tour, cost, nodes
}

// TestAPBoundAdmissible is the property test behind the whole branch and
// bound: at every search node, warm-started or cold, the assignment
// relaxation must lower-bound the optimal cyclic tour of that node's
// constrained matrix. An inadmissible bound would prune optimal leaves and
// break both exactness and the warm/cold determinism contract.
func TestAPBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for iter := 0; iter < 16; iter++ {
		n := 4 + rng.Intn(6) // 4..9: bruteForce stays tractable per node
		m := randomMatrix(rng, n, 8)
		opt := bruteForce(m)
		warm, _ := Patch(m)
		for _, so := range []SolveOptions{{}, {WarmTour: warm}} {
			_, cost, nodes := collectBounds(t, m, so)
			if cost != opt {
				t.Fatalf("n=%d warm=%v: cost %d, brute force %d", n, so.WarmTour != nil, cost, opt)
			}
			if len(nodes) == 0 {
				t.Fatalf("n=%d warm=%v: hook observed no nodes", n, so.WarmTour != nil)
			}
			for _, nd := range nodes {
				if nd.lb >= Inf {
					continue // infeasible subproblem: pruned, bound vacuous
				}
				if bf := bruteForce(nd.w); nd.lb > bf {
					t.Errorf("n=%d warm=%v: inadmissible bound %d > optimum %d for\n%v",
						n, so.WarmTour != nil, nd.lb, bf, nd.w)
				}
			}
		}
	}
}

// TestMultiOptimaTieBreakDeterministic seeds tie-heavy instances (tiny cost
// range, so many co-optimal tours) and demands the exact same canonical
// tour from warm and cold solves, whatever the warm tour. Without strict
// pruning, a primed incumbent would prune co-optimal leaves a cold solve
// reaches, and the two could return different (equally optimal) tours.
// The cold tours are also pinned to tieBreakTours, so a change to the
// lex-min offer rule itself (say, keeping the first optimal leaf found,
// which is just as priming-independent) shows up here.
func TestMultiOptimaTieBreakDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 24; iter++ {
		n := 5 + rng.Intn(5)         // 5..9
		m := randomMatrix(rng, n, 3) // costs in {0,1,2}: heavy tie pressure
		want, wantCost, err := BranchBoundOpt(nil, m, SolveOptions{})
		if err != nil {
			t.Fatalf("cold solve: %v", err)
		}
		if !reflect.DeepEqual(want, tieBreakTours[iter]) {
			t.Fatalf("n=%d iter=%d: cold tour %v, pinned %v", n, iter, want, tieBreakTours[iter])
		}
		if bf := bruteForce(m); wantCost != bf {
			t.Fatalf("n=%d: cold cost %d, brute force %d", n, wantCost, bf)
		}
		patched, _ := Patch(m)
		for _, warm := range [][]int{patched, want} {
			got, gotCost, err := BranchBoundOpt(nil, m, SolveOptions{WarmTour: warm})
			if err != nil {
				t.Fatalf("warm %v: %v", warm, err)
			}
			if gotCost != wantCost || !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d warm %v: tour %v cost %d, cold returned %v cost %d",
					n, warm, got, gotCost, want, wantCost)
			}
		}
	}
}

// tieBreakTours are the tours BranchBoundOpt returns on the instances of
// TestMultiOptimaTieBreakDeterministic: the lex-min canonical tour among
// the optimal leaves the search reaches.
var tieBreakTours = [][]int{
	{0, 3, 1, 4, 5, 2}, {0, 6, 7, 3, 5, 1, 2, 4}, {0, 2, 4, 7, 5, 6, 3, 1},
	{0, 4, 2, 5, 1, 3}, {0, 1, 2, 3, 4}, {0, 3, 1, 2, 4},
	{0, 8, 1, 4, 3, 6, 5, 7, 2}, {0, 4, 1, 2, 3, 5}, {0, 4, 2, 3, 1, 5},
	{0, 1, 3, 5, 4, 2}, {0, 4, 1, 6, 5, 7, 2, 3}, {0, 1, 2, 4, 6, 8, 7, 5, 3},
	{0, 4, 5, 2, 1, 3, 6}, {0, 1, 7, 3, 8, 2, 5, 6, 4}, {0, 1, 2, 4, 3, 5},
	{0, 2, 4, 3, 1, 5}, {0, 1, 4, 3, 5, 2}, {0, 1, 4, 2, 3},
	{0, 5, 1, 4, 2, 6, 3}, {0, 3, 2, 1, 4}, {0, 1, 3, 4, 2, 5, 6, 8, 7},
	{0, 1, 3, 2, 6, 4, 5}, {0, 1, 4, 5, 2, 3}, {0, 5, 2, 4, 1, 3},
}

// FuzzWarmStartEquivalence feeds the solver randomized instances plus a
// single-arc mutation of each, and asserts the determinism contract end to
// end: a warm-started solve (primed with anything from a garbage permutation
// to the previous instance's exact tour) returns the byte-identical tour and
// cost of a cold solve, and the cost matches the independent Held–Karp
// dynamic program.
func FuzzWarmStartEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(3))
	f.Add(int64(42), uint8(0), uint8(250))
	f.Add(int64(-9), uint8(9), uint8(17))
	f.Add(int64(20260808), uint8(4), uint8(128))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mutRaw uint8) {
		n := 3 + int(nRaw%7) // 3..9
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(rng, n, 2+int(mutRaw%14))
		cold, coldCost, err := BranchBoundOpt(nil, m, SolveOptions{})
		if err != nil {
			t.Fatalf("cold solve: %v", err)
		}
		if _, hk, err := HeldKarp(m); err != nil || hk != coldCost {
			t.Fatalf("Held-Karp cost %d (err %v), branch and bound %d", hk, err, coldCost)
		}
		rot := make([]int, n) // a feasible but usually far-from-optimal tour
		for i := range rot {
			rot[i] = (i + int(mutRaw)) % n
		}
		patched, _ := Patch(m)
		for _, wt := range [][]int{rot, patched, cold} {
			got, gotCost, err := BranchBoundOpt(nil, m, SolveOptions{WarmTour: wt})
			if err != nil {
				t.Fatalf("warm solve: %v", err)
			}
			if gotCost != coldCost || !reflect.DeepEqual(got, cold) {
				t.Fatalf("warm %v: tour %v cost %d, cold %v cost %d",
					wt, got, gotCost, cold, coldCost)
			}
		}
		// The incremental scenario the warm sweep actually runs: mutate one
		// arc, warm-start the new instance with the old optimal tour.
		m2 := m.Clone()
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			m2[i][j] = int(mutRaw)
		}
		cold2, cold2Cost, err := BranchBoundOpt(nil, m2, SolveOptions{})
		if err != nil {
			t.Fatalf("mutated cold solve: %v", err)
		}
		warm2, warm2Cost, err := BranchBoundOpt(nil, m2, SolveOptions{WarmTour: cold})
		if err != nil {
			t.Fatalf("mutated warm solve: %v", err)
		}
		if warm2Cost != cold2Cost || !reflect.DeepEqual(warm2, cold2) {
			t.Fatalf("mutated: warm tour %v cost %d, cold %v cost %d",
				warm2, warm2Cost, cold2, cold2Cost)
		}
	})
}

// TestCompletePath checks the warm-path completion helper: the result is
// always a valid open path, keeps a sane partial prefix, and tolerates
// garbage (out-of-range, duplicate) partials.
func TestCompletePath(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 40; iter++ {
		n := 2 + rng.Intn(8)
		m := randomMatrix(rng, n, 10)
		starts := make([]int, n)
		for i := range starts {
			starts[i] = rng.Intn(3)
		}
		partials := [][]int{
			nil,
			{0},
			{n - 1, 0},
			{rng.Intn(n), rng.Intn(n), n + 3, -1}, // garbage tolerated
		}
		for _, partial := range partials {
			path := CompletePath(m, starts, partial)
			if len(path) != n {
				t.Fatalf("n=%d partial=%v: path %v misses nodes", n, partial, path)
			}
			seen := make([]bool, n)
			for _, v := range path {
				if v < 0 || v >= n || seen[v] {
					t.Fatalf("n=%d partial=%v: invalid path %v", n, partial, path)
				}
				seen[v] = true
			}
		}
	}
}
