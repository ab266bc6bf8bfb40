// Package replay drives fault lists through the generator's layers by
// their exported entry points, in pipeline order, with a span around each
// call: fault.ParseList and fault.Instances, then tpg.Classes, Selections,
// Reduce and New, then atsp.OptimalPathsOpt (8 paths), then
// gts.AssembleMeter, then sim.EvaluateWorkers, then cover.RemovableOps.
//
// It imports the internal layer packages, so it is kept apart from the
// end-to-end benchmark: a changed layer signature breaks only the traced
// run.
//
// The replay is not the pipeline. It cannot reproduce core's unexported
// glue (warm-start chaining between selections, verdict deduplication,
// incumbent pruning, shrinking), so it evaluates every candidate gts
// assembles and audits every complete one with cover. The traced run
// reports core's own stage times beside the replay for that reason.
package replay

import (
	"context"
	"math"
	"runtime/metrics"
	"strings"

	"marchgen/fault"
	"marchgen/fsm"
	"marchgen/internal/atsp"
	"marchgen/internal/budget"
	"marchgen/internal/cover"
	"marchgen/internal/gts"
	"marchgen/internal/sim"
	"marchgen/internal/tpg"
	"marchgen/march"
	"marchgen/perfbench/span"
)

// SelectionLimit and Paths are the pipeline's defaults: the selection
// enumeration cap and the number of optimal visits the ATSP layer lists.
const (
	SelectionLimit = 64
	Paths          = 8
)

// Counts are the work counters gathered at the layer boundaries.
type Counts struct {
	Selections int // tpg selections enumerated
	Distinct   int // selections whose reduced node set was new
	Solves     int // atsp solves
	Nodes      int // atsp search nodes, read from the budget meter
	Candidates int // tests gts assembled
	Evals      int // sim evaluations
	Complete   int // evaluations that found the test complete
	CoverCalls int // cover audits
	// Allocs counts heap objects allocated during each layer's calls,
	// by layer name (traced replays only).
	Allocs map[string]uint64
}

// Replayer runs replays and adds up their counts. With a nil recorder it
// makes the same calls with no spans and no allocation reads.
type Replayer struct {
	Rec     *span.Recorder
	Workers int
	Counts  Counts
	sample  []metrics.Sample
}

// New returns a replayer recording into rec (nil: untraced) whose sim and
// atsp calls use workers goroutines.
func New(rec *span.Recorder, workers int) *Replayer {
	return &Replayer{
		Rec:     rec,
		Workers: workers,
		Counts:  Counts{Allocs: map[string]uint64{}},
		sample:  []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
}

// heapObjects reads the runtime's cumulative allocation count. The
// runtime settles it per span of memory, so a single small call's count
// is approximate; totals over many calls are not.
func (r *Replayer) heapObjects() uint64 {
	metrics.Read(r.sample)
	return r.sample[0].Value.Uint64()
}

// call runs f as one span of layer under parent.
func (r *Replayer) call(layer string, op, parent int, f func() error) error {
	if r.Rec == nil {
		return f()
	}
	a0 := r.heapObjects()
	id := r.Rec.Begin(layer, op, parent)
	err := f()
	r.Rec.End(id)
	r.Counts.Allocs[layer] += r.heapObjects() - a0
	return err
}

// Generate replays the generation of one fault list as operation op.
func (r *Replayer) Generate(ctx context.Context, op int, list string) error {
	root := r.Rec.Begin("replay", op, 0)
	defer r.Rec.End(root)
	instances, err := r.expand(op, root, list)
	if err != nil {
		return err
	}
	var classes []tpg.Class
	var sels []tpg.Selection
	_ = r.call("tpg", op, root, func() error {
		classes = tpg.Classes(instances)
		sels = tpg.Selections(classes, SelectionLimit)
		return nil
	})
	r.Counts.Selections += len(sels)
	// Unbounded node budget: the meter counts nodes only under a budget.
	atspMeter := budget.NewMeter(ctx, budget.Budget{ATSPNodes: math.MaxInt})
	gtsMeter := budget.NewMeter(ctx, budget.Budget{})
	seenNodes := map[string]bool{}
	for _, sel := range sels {
		var nodes []tpg.Node
		_ = r.call("tpg", op, root, func() error {
			nodes = tpg.Reduce(classes, sel)
			return nil
		})
		if sig := patternSig(nodes, nil); seenNodes[sig] {
			continue
		} else {
			seenNodes[sig] = true
		}
		r.Counts.Distinct++
		orders, err := r.order(op, root, atspMeter, nodes)
		if err != nil {
			return err
		}
		seenOrder := map[string]bool{}
		for _, ordered := range orders {
			if sig := patternSig(nil, ordered); seenOrder[sig] {
				continue
			} else {
				seenOrder[sig] = true
			}
			var cands []*march.Test
			if err := r.call("gts", op, root, func() (err error) {
				cands, err = gts.AssembleMeter(gtsMeter, ordered, gts.DefaultOptions())
				return err
			}); err != nil {
				continue // the pipeline skips orderings gts cannot realise
			}
			r.Counts.Candidates += len(cands)
			for _, t := range cands {
				if err := r.Audit(ctx, op, root, t, instances); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Verify replays a coverage check of t against list as operation op:
// the fault layer, then sim, then cover when the test is complete.
func (r *Replayer) Verify(ctx context.Context, op int, t *march.Test, list string) error {
	root := r.Rec.Begin("replay", op, 0)
	defer r.Rec.End(root)
	instances, err := r.expand(op, root, list)
	if err != nil {
		return err
	}
	return r.Audit(ctx, op, root, t, instances)
}

// Audit evaluates t on the two-cell simulator and, when it is complete,
// audits its operations with cover.
func (r *Replayer) Audit(ctx context.Context, op, parent int, t *march.Test, instances []fault.Instance) error {
	var cov sim.Coverage
	err := r.call("sim", op, parent, func() (err error) {
		cov, err = sim.EvaluateWorkers(ctx, t, instances, r.Workers)
		return err
	})
	r.Counts.Evals++
	if err != nil || !cov.Complete() {
		return budget.CtxErr(ctx) // an evaluation error means "not complete"
	}
	r.Counts.Complete++
	r.Counts.CoverCalls++
	return r.call("cover", op, parent, func() error {
		_, err := cover.RemovableOps(t, instances)
		return err
	})
}

func (r *Replayer) expand(op, parent int, list string) ([]fault.Instance, error) {
	var instances []fault.Instance
	err := r.call("fault", op, parent, func() error {
		models, err := fault.ParseList(list)
		instances = fault.Instances(models)
		return err
	})
	return instances, err
}

// order solves the open-path ATSP over the node set's TPG and returns
// every optimal visit, forward and reversed, as pattern orderings.
func (r *Replayer) order(op, parent int, m *budget.Meter, nodes []tpg.Node) ([][]fsm.Pattern, error) {
	if len(nodes) == 1 {
		return [][]fsm.Pattern{{nodes[0].Pattern}}, nil
	}
	var g *tpg.Graph
	starts := make([]int, len(nodes))
	_ = r.call("tpg", op, parent, func() error {
		g = tpg.New(nodes)
		for b := range nodes {
			starts[b] = g.StartCost(b)
		}
		return nil
	})
	var paths [][]int
	n0 := m.Nodes()
	err := r.call("atsp", op, parent, func() (err error) {
		paths, _, err = atsp.OptimalPathsOpt(m, atsp.Matrix(g.Weight), starts, Paths, atsp.PathOptions{Workers: r.Workers, PreferBB: true})
		return err
	})
	r.Counts.Solves++
	r.Counts.Nodes += m.Nodes() - n0
	if err != nil {
		return nil, err
	}
	var orders [][]fsm.Pattern
	for _, p := range paths {
		fwd := make([]fsm.Pattern, len(p))
		bwd := make([]fsm.Pattern, len(p))
		for k, v := range p {
			fwd[k] = nodes[v].Pattern
			bwd[len(p)-1-k] = nodes[v].Pattern
		}
		orders = append(orders, fwd, bwd)
	}
	return orders, nil
}

// patternSig fingerprints a node set or a pattern ordering.
func patternSig(nodes []tpg.Node, patterns []fsm.Pattern) string {
	var sb strings.Builder
	for _, n := range nodes {
		sb.WriteString(n.Pattern.String())
		sb.WriteByte(';')
	}
	for _, p := range patterns {
		sb.WriteString(p.String())
		sb.WriteByte(';')
	}
	return sb.String()
}
