package core

import (
	"context"
	"reflect"
	"testing"

	"marchgen/fault"
	"marchgen/fsm"
	"marchgen/internal/atsp"
	"marchgen/internal/gts"
	"marchgen/internal/tpg"
)

// TestWarmChainMatchesColdSolve checks the sweep's exact solver against
// an independent reference. For every deduplicated selection of each
// fault-library singleton and each Table 3 list, in sweep order, the
// warm-chained ordering must return the same orderings and cost as a
// cold atsp.OptimalPaths solve (Held–Karp establishing the optimum, no
// warm path).
func TestWarmChainMatchesColdSolve(t *testing.T) {
	lists := append(fault.ModelNames(),
		"SAF,TF", "SAF,TF,ADF", "SAF,TF,ADF,CFin", "SAF,TF,ADF,CFin,CFid")
	opts := DefaultOptions()
	for _, list := range lists {
		models, err := fault.ParseList(list)
		if err != nil {
			t.Fatal(err)
		}
		classes := tpg.Classes(fault.Instances(models))
		sw := newSweep(nil, classes, opts, nil, func(stage string) {
			t.Fatalf("%s: unbudgeted solve degraded at %s", list, stage)
		})
		solved := 0
		for _, sel := range tpg.Selections(classes, opts.SelectionLimit) {
			nodes := tpg.Reduce(classes, sel)
			if !sw.firstSeen(nodeSignature(nodes)) {
				continue
			}
			got, cost, exact, err := sw.order(nodes)
			if err != nil || !exact {
				t.Fatalf("%s: warm solve: exact=%v err=%v", list, exact, err)
			}
			if len(nodes) == 1 {
				continue // one node, one ordering: nothing was solved
			}
			g, starts, total := tpgInstance(nodes)
			paths, want, err := atsp.OptimalPaths(atsp.Matrix(g.Weight), starts, 8)
			if err != nil {
				t.Fatalf("%s: cold solve: %v", list, err)
			}
			if cost != want+total {
				t.Fatalf("%s %s: warm cost %d, cold %d", list, nodeSignature(nodes), cost, want+total)
			}
			if !reflect.DeepEqual(got, orderings(nodes, paths)) {
				t.Fatalf("%s %s: warm orderings differ from the cold solve", list, nodeSignature(nodes))
			}
			solved++
		}
		t.Logf("%s: %d selections compared", list, solved)
	}
}

// enumerateBaseline replays the §5 sweep as an enumerate-only solver
// would: every deduplicated selection is ordered by a cold
// atsp.OptimalPaths solve (no warm chain, no priming), each distinct
// ordering is assembled and folded by the sweep's own fold, and the
// winner is relaxed as GenerateCtx finalises it. It returns the test
// and the minimum selection cost.
func enumerateBaseline(t *testing.T, list string) (string, int) {
	t.Helper()
	models, err := fault.ParseList(list)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	instances := fault.Instances(models)
	classes := tpg.Classes(instances)
	sw := newSweep(nil, classes, opts, nil, func(stage string) {
		t.Fatalf("%s: unbudgeted baseline degraded at %s", list, stage)
	})
	sw.gen = &genContext{
		ctx:       context.Background(),
		instances: instances,
		faultKey:  fault.Key(instances),
		verdict:   map[string]bool{},
		workers:   1,
	}
	minSel := -1
	for _, sel := range tpg.Selections(classes, opts.SelectionLimit) {
		nodes := tpg.Reduce(classes, sel)
		if !sw.firstSeen(nodeSignature(nodes)) {
			continue
		}
		g, starts, total := tpgInstance(nodes)
		orders := [][]fsm.Pattern{{nodes[0].Pattern}}
		cost := starts[0] + total
		if len(nodes) > 1 {
			paths, c, err := atsp.OptimalPaths(atsp.Matrix(g.Weight), starts, 8)
			if err != nil {
				t.Fatalf("%s: cold solve: %v", list, err)
			}
			orders, cost = orderings(nodes, paths), c+total
		}
		if minSel < 0 || cost < minSel {
			minSel = cost
		}
		seenOrder := map[string]bool{}
		for _, ordered := range orders {
			if osig := orderSignature(ordered); seenOrder[osig] {
				continue
			} else {
				seenOrder[osig] = true
			}
			cands, err := gts.AssembleMeter(nil, ordered, opts.Beam)
			if err != nil {
				continue
			}
			if err := sw.fold(solvedSel{nodes: len(nodes), cost: cost}, cands); err != nil {
				t.Fatalf("%s: fold: %v", list, err)
			}
		}
	}
	if sw.best == nil {
		t.Fatalf("%s: baseline found no valid test", list)
	}
	best := sw.gen.relaxOrders(sw.best)
	if sw.gen.err != nil {
		t.Fatal(sw.gen.err)
	}
	return best.String(), minSel
}

// TestSweepMatchesEnumerate checks the whole warm sweep end to end
// against an enumerate-only baseline (a cold optimal-path solve per
// selection): GenerateCtx must return the same test and the same
// MinSelectionCost, so the warm chain and its priming never change what
// callers observe.
func TestSweepMatchesEnumerate(t *testing.T) {
	for _, list := range []string{"SAF,TF,ADF", "SAF,TF,ADF,CFin", "CFin"} {
		enumTest, enumMin := enumerateBaseline(t, list)
		res := generate(t, list, DefaultOptions())
		if res.Test.String() != enumTest {
			t.Fatalf("%s: warm sweep %q != enumerate %q", list, res.Test, enumTest)
		}
		if res.MinSelectionCost != enumMin {
			t.Fatalf("%s: min selection cost %d != %d", list, res.MinSelectionCost, enumMin)
		}
	}
}
