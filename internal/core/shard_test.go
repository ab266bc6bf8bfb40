package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"marchgen/fault"
	"marchgen/fsm"
	"marchgen/internal/atsp"
	"marchgen/internal/budget"
	"marchgen/internal/gts"
	"marchgen/internal/obs"
	"marchgen/internal/tpg"
)

// localDistributor runs every shard in-process through RunShardModels —
// the purest possible distributor, so any output difference against the
// sequential sweep is the protocol's fault, not transport's.
type localDistributor struct {
	n    int
	runs atomic.Int64
}

func (d *localDistributor) Shards(total int) []SweepShard {
	if total < d.n {
		return nil
	}
	shards := make([]SweepShard, 0, d.n)
	lo := 0
	for i := 0; i < d.n; i++ {
		hi := lo + (total-lo)/(d.n-i)
		shards = append(shards, SweepShard{Lo: lo, Hi: hi})
		lo = hi
	}
	return shards
}

func (d *localDistributor) RunShard(ctx context.Context, models []fault.Model, opts Options, sh SweepShard) (*ShardOutcome, error) {
	d.runs.Add(1)
	return RunShardModels(ctx, models, opts, sh)
}

// warmOptions returns the configuration distribution is offered to:
// exact, warm-chained solves under an unlimited budget.
func warmOptions() Options {
	return DefaultOptions()
}

// TestDistributedSweepByteIdentical is the tentpole's correctness lock:
// for every Table 3 fault list whose sweep has more than one selection
// and several shard counts, the distributed sweep must reproduce the
// sequential result byte-for-byte — same test string,
// candidate count, minimum selection cost and winning selection stats.
// (SAF, SAF,TF and the five-fault list reduce to a single selection, so
// distribution correctly never engages for them — see
// TestSingleSelectionSweepNotDistributed.)
func TestDistributedSweepByteIdentical(t *testing.T) {
	lists := []string{"SAF,TF,ADF", "SAF,TF,ADF,CFin", "CFin"}
	for _, list := range lists {
		seq := generate(t, list, warmOptions())
		for _, n := range []int{2, 3, 5} {
			t.Run(fmt.Sprintf("%s/shards=%d", list, n), func(t *testing.T) {
				d := &localDistributor{n: n}
				run := obs.NewRun()
				opts := warmOptions()
				opts.Distributor = d
				opts.Obs = run
				dist := generate(t, list, opts)

				if got, want := dist.Test.String(), seq.Test.String(); got != want {
					t.Fatalf("distributed test %q != sequential %q", got, want)
				}
				if dist.Complexity != seq.Complexity {
					t.Fatalf("complexity %d != %d", dist.Complexity, seq.Complexity)
				}
				if dist.Candidates != seq.Candidates {
					t.Fatalf("candidates %d != %d", dist.Candidates, seq.Candidates)
				}
				if dist.MinSelectionCost != seq.MinSelectionCost {
					t.Fatalf("min selection cost %d != %d", dist.MinSelectionCost, seq.MinSelectionCost)
				}
				if dist.Nodes != seq.Nodes || dist.PathCost != seq.PathCost {
					t.Fatalf("winning selection (%d nodes, cost %d) != (%d, %d)",
						dist.Nodes, dist.PathCost, seq.Nodes, seq.PathCost)
				}
				snap := run.Snapshot()
				if snap["core.sweep.distributed"] != 1 {
					t.Fatalf("core.sweep.distributed = %d, want 1 (metrics %v)", snap["core.sweep.distributed"], snap)
				}
				if got := d.runs.Load(); got != int64(n) {
					t.Fatalf("distributor ran %d shards, want %d", got, n)
				}
			})
		}
	}
}

// TestSingleSelectionSweepNotDistributed locks the eligibility gate's
// other side: a sweep of one selection has nothing to distribute, so
// the distributor is never consulted and the result is the ordinary
// sequential one.
func TestSingleSelectionSweepNotDistributed(t *testing.T) {
	for _, list := range []string{"SAF", "SAF,TF", "SAF,TF,ADF,CFin,CFid"} {
		seq := generate(t, list, warmOptions())
		d := &localDistributor{n: 2}
		run := obs.NewRun()
		opts := warmOptions()
		opts.Distributor = d
		opts.Obs = run
		res := generate(t, list, opts)
		if res.Test.String() != seq.Test.String() {
			t.Fatalf("%s: %q != sequential %q", list, res.Test, seq.Test)
		}
		if got := d.runs.Load(); got != 0 {
			t.Fatalf("%s: distributor ran %d shards on a single-selection sweep", list, got)
		}
		if run.Snapshot()["core.sweep.distributed"] != 0 {
			t.Fatalf("%s: core.sweep.distributed non-zero", list)
		}
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
	sw := newSweep(nil, classes, opts, 1, nil, func(stage string) {
		t.Fatalf("%s: unbudgeted baseline degraded at %s", list, stage)
	})
	sw.gen = &genContext{
		ctx:       context.Background(),
		instances: instances,
		faultKey:  fault.Key(instances),
		verdict:   map[string]bool{},
		workers:   1,
	}
	for _, sel := range tpg.Selections(classes, opts.SelectionLimit) {
		nodes := tpg.Reduce(classes, sel)
		sig := nodeSignature(nodes)
		if !sw.firstSeen(sig) {
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
		out := &ShardSelection{Sig: sig, Nodes: len(nodes), Cost: cost, ExactCost: true}
		sw.solved(out)
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
			if err := sw.fold(out, cands); err != nil {
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
	return best.String(), sw.minSel
}

// TestDistributedMatchesEnumerate locks the cross-solver invariant the
// serve tier leans on: the distributed warm sweep equals not just the
// sequential warm sweep but an enumerate-only baseline too (cold
// optimal-path enumeration per selection), so replicas running the
// warm-chained solver never change what clients observe.
func TestDistributedMatchesEnumerate(t *testing.T) {
	for _, list := range []string{"SAF,TF,ADF", "SAF,TF,ADF,CFin"} {
		enumTest, enumMin := enumerateBaseline(t, list)
		opts := warmOptions()
		opts.Distributor = &localDistributor{n: 3}
		dist := generate(t, list, opts)
		if dist.Test.String() != enumTest {
			t.Fatalf("%s: distributed warm %q != enumerate %q", list, dist.Test, enumTest)
		}
		if dist.MinSelectionCost != enumMin {
			t.Fatalf("%s: min selection cost %d != %d", list, dist.MinSelectionCost, enumMin)
		}
	}
}

// decliningDistributor declines every partition request.
type decliningDistributor struct{}

func (decliningDistributor) Shards(total int) []SweepShard { return nil }
func (decliningDistributor) RunShard(ctx context.Context, models []fault.Model, opts Options, sh SweepShard) (*ShardOutcome, error) {
	return nil, fmt.Errorf("unreachable")
}

// badPartitionDistributor returns a gapped partition.
type badPartitionDistributor struct{}

func (badPartitionDistributor) Shards(total int) []SweepShard {
	return []SweepShard{{Lo: 0, Hi: 1}, {Lo: 2, Hi: total}}
}
func (badPartitionDistributor) RunShard(ctx context.Context, models []fault.Model, opts Options, sh SweepShard) (*ShardOutcome, error) {
	return nil, fmt.Errorf("unreachable")
}

// failingDistributor partitions correctly but fails one shard.
type failingDistributor struct{ inner localDistributor }

func (d *failingDistributor) Shards(total int) []SweepShard {
	d.inner.n = 3
	return d.inner.Shards(total)
}
func (d *failingDistributor) RunShard(ctx context.Context, models []fault.Model, opts Options, sh SweepShard) (*ShardOutcome, error) {
	if sh.Lo == 0 {
		return nil, fmt.Errorf("shard host down")
	}
	return RunShardModels(ctx, models, opts, sh)
}

// TestDistributedFallsBackSequential locks that declines, malformed
// partitions and shard failures all degrade to the ordinary sequential
// sweep with an unchanged result — the distributor is never a
// correctness dependency.
func TestDistributedFallsBackSequential(t *testing.T) {
	const list = "SAF,TF,ADF"
	seq := generate(t, list, warmOptions())
	cases := []struct {
		name    string
		d       SweepDistributor
		counter string
	}{
		{"decline", decliningDistributor{}, "core.sweep.local_fallback"},
		{"bad-partition", badPartitionDistributor{}, "core.sweep.bad_partition"},
		{"shard-error", &failingDistributor{}, "core.sweep.shard_errors"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := obs.NewRun()
			opts := warmOptions()
			opts.Distributor = tc.d
			opts.Obs = run
			res := generate(t, list, opts)
			if res.Test.String() != seq.Test.String() {
				t.Fatalf("fallback result %q != sequential %q", res.Test, seq.Test)
			}
			snap := run.Snapshot()
			if snap[tc.counter] == 0 {
				t.Fatalf("%s = 0, want non-zero (metrics %v)", tc.counter, snap)
			}
			if snap["core.sweep.distributed"] != 0 {
				t.Fatalf("core.sweep.distributed = %d after a failed distribution", snap["core.sweep.distributed"])
			}
		})
	}
}

// TestRunShardModelsRangeValidation locks the executor's usage errors:
// out-of-range and inverted shards are rejected with budget.ErrUsage so
// the serving layer maps them to HTTP 400.
func TestRunShardModelsRangeValidation(t *testing.T) {
	models, err := fault.ParseList("SAF,TF")
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range []SweepShard{{Lo: -1, Hi: 1}, {Lo: 0, Hi: 10000}, {Lo: 3, Hi: 3}, {Lo: 5, Hi: 2}} {
		_, err := RunShardModels(context.Background(), models, DefaultOptions(), sh)
		if !errors.Is(err, budget.ErrUsage) {
			t.Fatalf("shard %+v: err = %v, want a usage error", sh, err)
		}
	}
}
