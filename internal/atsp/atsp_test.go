package atsp

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"marchgen/internal/budget"
	"marchgen/internal/obs"
)

// bruteForce computes the optimal cyclic tour by enumerating permutations.
func bruteForce(m Matrix) int {
	n := len(m)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := Inf * 4
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			if c := m.TourCost(perm); c < best {
				best = c
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(1) // fix node 0 first: tours are rotation-invariant
	return best
}

func randomMatrix(rng *rand.Rand, n, maxCost int) Matrix {
	m := make(Matrix, n)
	for i := range m {
		m[i] = make([]int, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = rng.Intn(maxCost)
			}
		}
	}
	return m
}

func TestValidate(t *testing.T) {
	if err := (Matrix{}).Validate(); err == nil {
		t.Error("empty matrix must fail")
	}
	if err := (Matrix{{0, 1}}).Validate(); err == nil {
		t.Error("non-square matrix must fail")
	}
	if err := (Matrix{{0, -1}, {1, 0}}).Validate(); err == nil {
		t.Error("negative cost must fail")
	}
	if err := (Matrix{{0, 1}, {1, 0}}).Validate(); err != nil {
		t.Errorf("valid matrix rejected: %v", err)
	}
}

func TestHeldKarpTiny(t *testing.T) {
	m := Matrix{
		{0, 1, 9},
		{9, 0, 1},
		{1, 9, 0},
	}
	tour, cost, err := HeldKarp(m)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 3 {
		t.Errorf("cost %d, want 3", cost)
	}
	if m.TourCost(tour) != cost {
		t.Errorf("tour %v does not match reported cost", tour)
	}
}

func TestHeldKarpSingleNode(t *testing.T) {
	tour, cost, err := HeldKarp(Matrix{{0}})
	if err != nil || cost != 0 || len(tour) != 1 {
		t.Errorf("single node: %v %d %v", tour, cost, err)
	}
}

func TestHeldKarpLimit(t *testing.T) {
	m := randomMatrix(rand.New(rand.NewSource(1)), heldKarpLimit+1, 10)
	if _, _, err := HeldKarp(m); err == nil {
		t.Error("oversize instance must be rejected")
	}
}

func TestAssignmentAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(5)
		m := randomMatrix(rng, n, 50)
		// Brute-force assignment (permutations, no cycle structure).
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		best := Inf
		var rec func(k int)
		rec = func(k int) {
			if k == n {
				c := 0
				for i, j := range perm {
					c += m[i][j]
				}
				if c < best {
					best = c
				}
				return
			}
			for i := k; i < n; i++ {
				perm[k], perm[i] = perm[i], perm[k]
				rec(k + 1)
				perm[k], perm[i] = perm[i], perm[k]
			}
		}
		rec(0)
		_, cost := assignment(m)
		if cost != best {
			t.Fatalf("trial %d: assignment cost %d, brute force %d\n%v", trial, cost, best, m)
		}
	}
}

func TestExactSolversAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(8)
		m := randomMatrix(rng, n, 30)
		want := bruteForce(m)
		hkTour, hkCost, err := HeldKarp(m)
		if err != nil {
			t.Fatal(err)
		}
		bbTour, bbCost, err := BranchBound(m)
		if err != nil {
			t.Fatal(err)
		}
		if hkCost != want || bbCost != want {
			t.Fatalf("trial %d (n=%d): brute %d, held-karp %d, b&b %d", trial, n, want, hkCost, bbCost)
		}
		if !validTour(n, hkTour) || m.TourCost(hkTour) != hkCost {
			t.Fatalf("held-karp tour invalid: %v", hkTour)
		}
		if !validTour(n, bbTour) || m.TourCost(bbTour) != bbCost {
			t.Fatalf("b&b tour invalid: %v", bbTour)
		}
	}
}

func TestBranchBoundLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		n := 14 + rng.Intn(5)
		m := randomMatrix(rng, n, 40)
		hkTour, hkCost, err := HeldKarp(m)
		if err != nil {
			t.Fatal(err)
		}
		bbTour, bbCost, err := BranchBound(m)
		if err != nil {
			t.Fatal(err)
		}
		if bbCost != hkCost {
			t.Fatalf("n=%d: b&b %d vs held-karp %d", n, bbCost, hkCost)
		}
		_ = hkTour
		if !validTour(n, bbTour) {
			t.Fatalf("invalid tour %v", bbTour)
		}
	}
}

func TestHeuristicsValidAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(7)
		m := randomMatrix(rng, n, 25)
		opt := bruteForce(m)
		for s := 0; s < n; s++ {
			tour, cost := NearestNeighbor(m, s)
			if !validTour(n, tour) || m.TourCost(tour) != cost || cost < opt {
				t.Fatalf("nearest neighbour from %d invalid: %v cost %d opt %d", s, tour, cost, opt)
			}
		}
		tour, cost := GreedyEdge(m)
		if !validTour(n, tour) || m.TourCost(tour) != cost || cost < opt {
			t.Fatalf("greedy edge invalid: %v cost %d opt %d", tour, cost, opt)
		}
		improved, ic := OrOpt(m, tour)
		if !validTour(n, improved) || ic > cost || ic < opt {
			t.Fatalf("or-opt broke tour: %v cost %d (was %d, opt %d)", improved, ic, cost, opt)
		}
	}
}

// orOptReference is the plain allocating or-opt OrOpt must match move for
// move: a fresh candidate per insertion point, adopted on improvement.
func orOptReference(m Matrix, tour []int) ([]int, int) {
	n := len(tour)
	cur := append([]int(nil), tour...)
	cost := m.TourCost(cur)
	for improved := true; improved; {
		improved = false
		for segLen := 1; segLen <= 3 && segLen < n; segLen++ {
			for i := 0; i+segLen <= n; i++ {
				seg := append([]int(nil), cur[i:i+segLen]...)
				rest := append(append([]int(nil), cur[:i]...), cur[i+segLen:]...)
				for k := 0; k <= len(rest); k++ {
					cand := append(append(append([]int(nil), rest[:k]...), seg...), rest[k:]...)
					if c := m.TourCost(cand); c < cost {
						cur, cost = cand, c
						improved = true
					}
				}
			}
		}
	}
	return cur, cost
}

// TestOrOptMatchesReference pins OrOpt's improvement sequence to the
// allocating reference and checks that it leaves its input alone and
// allocates only its four buffers.
func TestOrOptMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		m := randomMatrix(rng, n, 40)
		tour := rng.Perm(n)
		orig := append([]int(nil), tour...)
		got, gc := OrOpt(m, tour)
		want, wc := orOptReference(m, tour)
		if gc != wc || !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d tour %v: OrOpt %v (%d), reference %v (%d)", n, orig, got, gc, want, wc)
		}
		if !reflect.DeepEqual(tour, orig) {
			t.Fatalf("OrOpt modified its input: %v, was %v", tour, orig)
		}
	}
	m := randomMatrix(rng, 10, 40)
	tour := rng.Perm(10)
	if allocs := testing.AllocsPerRun(20, func() { OrOpt(m, tour) }); allocs > 4 {
		t.Errorf("OrOpt allocates %.0f objects per call, want at most 4", allocs)
	}
}

func TestPathTiny(t *testing.T) {
	// Path 2 -> 0 -> 1 costs 1+1 = 2; any cycle would pay the way back.
	m := Matrix{
		{0, 1, 9},
		{9, 0, 9},
		{1, 9, 0},
	}
	path, cost, err := Path(m, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 2 {
		t.Errorf("path cost %d, want 2: %v", cost, path)
	}
	if m.PathCost(path) != cost {
		t.Errorf("path %v cost mismatch", path)
	}
}

func TestPathStartCosts(t *testing.T) {
	m := Matrix{
		{0, 1},
		{1, 0},
	}
	// Starting at node 0 is expensive, so the path must start at 1.
	path, cost, err := Path(m, []int{10, 0}, true)
	if err != nil {
		t.Fatal(err)
	}
	if path[0] != 1 || cost != 1 {
		t.Errorf("path %v cost %d, want start=1 cost 1", path, cost)
	}
}

func TestPathHeuristicUpperBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(8)
		m := randomMatrix(rng, n, 30)
		sc := make([]int, n)
		for i := range sc {
			sc[i] = rng.Intn(4)
		}
		exactPath, exactCost, err := Path(m, sc, true)
		if err != nil {
			t.Fatal(err)
		}
		heurPath, heurCost, err := Path(m, sc, false)
		if err != nil {
			t.Fatal(err)
		}
		if !validTour(n, exactPath) || !validTour(n, heurPath) {
			t.Fatalf("invalid paths %v / %v", exactPath, heurPath)
		}
		if got := sc[exactPath[0]] + m.PathCost(exactPath); got != exactCost {
			t.Fatalf("exact path cost accounting: %d vs %d", got, exactCost)
		}
		if heurCost < exactCost {
			t.Fatalf("heuristic %d beat exact %d", heurCost, exactCost)
		}
	}
}

func TestPathErrors(t *testing.T) {
	if _, _, err := Path(Matrix{{0, 1}, {1, 0}}, []int{1}, true); err == nil {
		t.Error("mismatched startCost length must fail")
	}
	if _, _, err := Path(Matrix{}, nil, true); err == nil {
		t.Error("empty matrix must fail")
	}
}

func TestPathSingleNode(t *testing.T) {
	path, cost, err := Path(Matrix{{0}}, []int{5}, true)
	if err != nil || cost != 5 || len(path) != 1 {
		t.Errorf("single node path: %v %d %v", path, cost, err)
	}
}

func TestCloneIsolation(t *testing.T) {
	m := Matrix{{0, 1}, {2, 0}}
	c := m.Clone()
	c[0][1] = 99
	if m[0][1] != 1 {
		t.Error("Clone must not alias")
	}
}

func TestPatchProducesValidTours(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(10)
		m := randomMatrix(rng, n, 30)
		tour, cost := Patch(m)
		if !validTour(n, tour) {
			t.Fatalf("trial %d: invalid tour %v", trial, tour)
		}
		if m.TourCost(tour) != cost {
			t.Fatalf("trial %d: cost accounting %d vs %d", trial, m.TourCost(tour), cost)
		}
		opt := bruteForce(m)
		if cost < opt {
			t.Fatalf("trial %d: patching beat the optimum (%d < %d)", trial, cost, opt)
		}
	}
}

// TestPatchNearOptimal: on random instances Karp patching stays within a
// modest factor of the exact optimum (here: within 1.6x aggregate).
func TestPatchNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	totalPatch, totalOpt := 0, 0
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(6)
		m := randomMatrix(rng, n, 50)
		_, cost := Patch(m)
		totalPatch += cost
		totalOpt += bruteForce(m)
	}
	if float64(totalPatch) > 1.6*float64(totalOpt) {
		t.Errorf("patching aggregate %d vs optimum %d: gap too large", totalPatch, totalOpt)
	}
}

func TestOptimalPathsEnumerate(t *testing.T) {
	// The Figure-4-style instance has multiple optimal paths thanks to its
	// two zero-weight arcs; OptimalPaths must find more than one.
	m := Matrix{
		{0, 1, 2, 2},
		{1, 0, 2, 2},
		{2, 0, 0, 1},
		{0, 2, 1, 0},
	}
	starts := []int{2, 2, 1, 1}
	paths, cost, err := OptimalPaths(m, starts, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Errorf("expected several optimal paths, got %d", len(paths))
	}
	for _, p := range paths {
		if got := starts[p[0]] + m.PathCost(p); got != cost {
			t.Errorf("path %v costs %d, reported optimum %d", p, got, cost)
		}
	}
}

// TestOptimalPathsMatchBruteForce is the enumeration's byte-identity
// regression: the emitted optimal-path list — contents AND order — must
// equal the lexicographic brute-force enumeration of cost-optimal paths,
// whatever the bound pruned in the search tree.
func TestOptimalPathsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(20260810))
	for iter := 0; iter < 24; iter++ {
		n := 4 + rng.Intn(4) // 4..7
		m := randomMatrix(rng, n, 4)
		starts := make([]int, n)
		for i := range starts {
			starts[i] = rng.Intn(3)
		}
		// Brute force in lexicographic DFS order, the order rec emits in.
		var want [][]int
		best := Inf
		cur := make([]int, 0, n)
		used := make([]bool, n)
		var rec func(cost int)
		rec = func(cost int) {
			if len(cur) == n {
				if cost < best {
					best = cost
					want = want[:0]
				}
				if cost == best {
					want = append(want, append([]int(nil), cur...))
				}
				return
			}
			for v := 0; v < n; v++ {
				if used[v] {
					continue
				}
				step := starts[v]
				if len(cur) > 0 {
					step = m[cur[len(cur)-1]][v]
				}
				used[v] = true
				cur = append(cur, v)
				rec(cost + step)
				cur = cur[:len(cur)-1]
				used[v] = false
			}
		}
		rec(0)
		got, cost, err := OptimalPaths(m, starts, len(want)+8)
		if err != nil {
			t.Fatalf("OptimalPaths: %v", err)
		}
		if cost != best {
			t.Fatalf("n=%d: optimal cost %d, brute force %d", n, cost, best)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: emitted paths diverge from brute force\ngot:  %v\nwant: %v", n, got, want)
		}
	}
}

// TestOptimalPathsCapDegrades checks the enumeration's node cap fails
// visibly instead of losing the instance. Every node's cheapest exit is a
// free arc into hub 0, so the remainder bound stays near zero while the
// only optimal path, 1→2→…→13→0 over the cost-1 chain, starts at node 1:
// the hub-first subtree the DFS explores first holds far more than
// enumNodeCap cost-feasible prefixes and no optimal path. The call must
// return an error wrapping budget.ErrBudgetExhausted and count one cap hit.
func TestOptimalPathsCapDegrades(t *testing.T) {
	const n = 14
	m := make(Matrix, n)
	for i := range m {
		m[i] = make([]int, n)
		for j := range m[i] {
			switch {
			case i == j:
			case j == 0:
				m[i][j] = 0
			case j == i+1:
				m[i][j] = 1
			default:
				m[i][j] = 2
			}
		}
	}
	run := obs.NewRun()
	mt := budget.NewMeter(obs.Into(context.Background(), run), budget.Budget{})
	paths, _, err := OptimalPathsOpt(mt, m, nil, 8, PathOptions{})
	if !errors.Is(err, budget.ErrBudgetExhausted) {
		t.Fatalf("err = %v (%d paths), want ErrBudgetExhausted", err, len(paths))
	}
	if !strings.Contains(err.Error(), "(0 of 8 paths)") {
		t.Errorf("err = %v, want the cap hit before any optimal path", err)
	}
	snap := run.Snapshot()
	if got := snap["atsp.enum.capped"]; got != 1 {
		t.Errorf("atsp.enum.capped = %d, want 1", got)
	}
	if got := snap["atsp.enum.nodes"]; got != enumNodeCap+1 {
		t.Errorf("atsp.enum.nodes = %d, want %d", got, enumNodeCap+1)
	}
	// An enumeration that finishes below the cap counts nothing.
	run = obs.NewRun()
	mt = budget.NewMeter(obs.Into(context.Background(), run), budget.Budget{})
	if _, _, err := OptimalPathsOpt(mt, twoCycleMatrix(4), nil, 8, PathOptions{}); err != nil {
		t.Fatalf("uncapped enumeration: %v", err)
	}
	if got := run.Snapshot()["atsp.enum.capped"]; got != 0 {
		t.Errorf("uncapped enumeration: atsp.enum.capped = %d, want 0", got)
	}
}
