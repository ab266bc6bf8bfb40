package atsp

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"marchgen/internal/budget"
)

// exhaustiveOpenPath enumerates every permutation and returns the optimal
// open-path cost under the start-cost convention of Path: the first node
// pays startCost, every hop pays the arc, the last node is not exited.
func exhaustiveOpenPath(m Matrix, startCost []int) int {
	n := len(m)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := Inf * 4
	var rec func(k, cost int)
	rec = func(k, cost int) {
		if cost >= best {
			return
		}
		if k == n {
			best = cost
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			step := 0
			if k == 0 {
				if startCost != nil {
					step = startCost[perm[0]]
				}
			} else {
				step = m[perm[k-1]][perm[k]]
			}
			rec(k+1, cost+step)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0, 0)
	return best
}

// TestDifferentialTourSolvers cross-checks three independent solvers on
// random asymmetric instances up to n = 10: exhaustive enumeration,
// Held–Karp and the branch and bound must all report the same optimal
// tour cost, and every returned tour must be a valid permutation achieving
// its reported cost.
func TestDifferentialTourSolvers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 2; n <= 10; n++ {
		trials := 6
		if n >= 9 {
			trials = 2 // exhaustive enumeration is (n-1)! per trial
		}
		for trial := 0; trial < trials; trial++ {
			m := randomMatrix(rng, n, 50)
			want := bruteForce(m)
			check := func(name string, tour []int, cost int, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("n=%d trial=%d %s: %v", n, trial, name, err)
				}
				if cost != want {
					t.Fatalf("n=%d trial=%d %s: cost %d, exhaustive says %d", n, trial, name, cost, want)
				}
				if !validTour(n, tour) {
					t.Fatalf("n=%d trial=%d %s: invalid tour %v", n, trial, name, tour)
				}
				if got := m.TourCost(tour); got != cost {
					t.Fatalf("n=%d trial=%d %s: tour %v costs %d, reported %d", n, trial, name, tour, got, cost)
				}
			}
			hkTour, hkCost, hkErr := HeldKarp(m)
			check("held-karp", hkTour, hkCost, hkErr)
			bbTour, bbCost, bbErr := BranchBound(m)
			check("branch-bound", bbTour, bbCost, bbErr)
		}
	}
}

// TestDifferentialOpenPath cross-checks the exact Path (the open-path
// reduction the generation pipeline actually runs) against exhaustive
// open-path enumeration, with and without start costs.
func TestDifferentialOpenPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 2; n <= 8; n++ {
		for trial := 0; trial < 5; trial++ {
			m := randomMatrix(rng, n, 40)
			var starts []int
			if trial%2 == 0 {
				starts = make([]int, n)
				for i := range starts {
					starts[i] = rng.Intn(10)
				}
			}
			want := exhaustiveOpenPath(m, starts)
			path, cost, err := Path(m, starts, true)
			if err != nil {
				t.Fatalf("n=%d trial=%d: %v", n, trial, err)
			}
			if cost != want {
				t.Fatalf("n=%d trial=%d: cost %d, exhaustive says %d", n, trial, cost, want)
			}
			if !validTour(n, path) {
				t.Fatalf("n=%d trial=%d: invalid path %v", n, trial, path)
			}
		}
	}
}

// twoCycleMatrix builds an instance the assignment relaxation cannot solve
// at the root: each half has one cheap Hamiltonian cycle, so the optimal
// assignment is two disjoint subtours and the branch-and-bound is forced
// to branch. This makes budget/cancellation tests deterministic — a random
// instance can terminate at the root with a single node charge.
func twoCycleMatrix(half int) Matrix {
	n := 2 * half
	m := make(Matrix, n)
	for i := range m {
		m[i] = make([]int, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = 60
			}
		}
	}
	for i := 0; i < half; i++ {
		m[i][(i+1)%half] = 1
		m[half+i][half+(i+1)%half] = 1
	}
	return m
}

// TestBranchBoundBudgetExhaustion checks that the meter's node budget
// aborts the branch and bound with the typed error. The two-cycle
// instance guarantees the root branches, so a budget of one node must be
// exhausted by the first child the search expands.
func TestBranchBoundBudgetExhaustion(t *testing.T) {
	m := twoCycleMatrix(6)
	mt := budget.NewMeter(context.Background(), budget.Budget{ATSPNodes: 1})
	_, _, err := BranchBoundOpt(mt, m, SolveOptions{})
	if !errors.Is(err, budget.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
}

// TestBranchBoundCancellation checks that a hard cancellation latched on
// the meter (as a pipeline stage boundary would via CheckNow) aborts the
// search with the typed error.
func TestBranchBoundCancellation(t *testing.T) {
	m := twoCycleMatrix(6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mt := budget.NewMeter(ctx, budget.Budget{})
	if err := mt.CheckNow(); !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("CheckNow = %v, want ErrCanceled", err)
	}
	_, _, err := BranchBoundOpt(mt, m, SolveOptions{})
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestSolveExactDispatch checks SolveExact against Held–Karp on both sides
// of its dispatch threshold: n = 6 takes the dynamic program, n = 14 the
// branch and bound.
func TestSolveExactDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{6, 14} {
		m := randomMatrix(rng, n, 25)
		_, want, err := HeldKarp(m)
		if err != nil {
			t.Fatal(err)
		}
		tour, got, err := SolveExact(m)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || !validTour(n, tour) || m.TourCost(tour) != got {
			t.Fatalf("n=%d: SolveExact tour %v cost %d, Held–Karp %d", n, tour, got, want)
		}
	}
}
