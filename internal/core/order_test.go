package core

import (
	"reflect"
	"testing"

	"marchgen/fault"
	"marchgen/internal/atsp"
	"marchgen/internal/tpg"
)

// TestWarmChainMatchesColdSolve checks the sweep's exact solver against
// an independent reference. For every deduplicated selection of each
// fault-library singleton and each Table 3 list, in sweep order, the
// warm-chained ordering must return the same orderings and cost as a
// cold atsp.OptimalPaths solve (Held–Karp establishing the optimum, no
// warm path), at one worker and at four.
func TestWarmChainMatchesColdSolve(t *testing.T) {
	lists := append(fault.ModelNames(),
		"SAF,TF", "SAF,TF,ADF", "SAF,TF,ADF,CFin", "SAF,TF,ADF,CFin,CFid")
	opts := DefaultOptions()
	for _, workers := range []int{1, 4} {
		for _, list := range lists {
			models, err := fault.ParseList(list)
			if err != nil {
				t.Fatal(err)
			}
			classes := tpg.Classes(fault.Instances(models))
			sw := newSweep(nil, classes, opts, workers, nil, func(stage string) {
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
					t.Fatalf("%s [workers=%d]: warm solve: exact=%v err=%v", list, workers, exact, err)
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
					t.Fatalf("%s [workers=%d] %s: warm cost %d, cold %d", list, workers, nodeSignature(nodes), cost, want+total)
				}
				if !reflect.DeepEqual(got, orderings(nodes, paths)) {
					t.Fatalf("%s [workers=%d] %s: warm orderings differ from the cold solve", list, workers, nodeSignature(nodes))
				}
				solved++
			}
			t.Logf("%s [workers=%d]: %d selections compared", list, workers, solved)
		}
	}
}
