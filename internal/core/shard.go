// Cross-process distribution of the §5 selection sweep.
//
// The division of labour is chosen so byte-identity with the sequential
// sweep is structural, not probabilistic. A shard performs only the
// expensive, selection-local work: reducing each selection's TPG,
// solving its exact ATSP (with a shard-local warm chain) and assembling
// the rewrite candidates. What it ships back is the ordered *candidate
// stream* — per selection, the node signature, node count, exact visit
// cost and every assembled candidate in March notation. The coordinator
// then replays the sequential sweep's fold over the concatenated
// streams in ascending selection order: global node-set deduplication,
// candidate counting, the incumbent prune, simulator validation,
// shrinking and the better() comparison all run in one place, on
// exactly the sequence of candidates the sequential loop would have
// seen.
//
// Two facts carry the byte-identity argument:
//
//   - the candidate stream is a pure function of the selection: the
//     exact solver's strict-prune + lexLess offer rule makes its
//     returned tour set warm/cold-invariant (see internal/atsp), so a
//     shard's restarted warm chain changes solver effort, never the
//     patterns — and assembly is deterministic in the patterns;
//   - everything whose outcome depends on *global* sweep state — the
//     incumbent prune (whose threshold tracks the best-so-far across
//     all earlier selections) and the first-seen tie-break in better()
//     — is not distributed at all; the coordinator replays it
//     sequentially over the merged stream. An earlier version let each
//     shard prune and validate against its own local incumbent; that
//     validated a superset of the sequential candidates and could
//     surface equal-complexity tests the sequential prune had dropped.
//
// Distribution is offered only where that argument holds wholesale:
// exact solves, unlimited budget, no selection truncation.
// Everything else — and every distribution failure — runs the ordinary
// sequential sweep. The distributor is infrastructure, never a
// correctness dependency.
package core

import (
	"context"
	"fmt"
	"sync"

	"marchgen/fault"
	"marchgen/internal/budget"
	"marchgen/internal/obs"
	"marchgen/internal/tpg"
	"marchgen/march"
)

// SweepShard is one contiguous slice [Lo,Hi) of the §5 selection index
// space.
type SweepShard struct {
	// Lo is the first selection index of the shard (inclusive).
	Lo int `json:"lo"`
	// Hi is the end of the shard (exclusive).
	Hi int `json:"hi"`
}

// ShardSelection is one deduplicated selection's solved output within a
// shard: the inputs the coordinator's replay needs, in selection order.
type ShardSelection struct {
	// Sig is the node-set signature (the sweep's deduplication key).
	Sig string `json:"sig"`
	// Nodes is the TPG node count after reduction.
	Nodes int `json:"nodes"`
	// Cost is the ATSP visit cost of the solved ordering; ExactCost
	// reports whether it is the proven optimum (it feeds
	// MinSelectionCost only when true).
	Cost      int  `json:"cost"`
	ExactCost bool `json:"exact_cost,omitempty"`
	// Candidates is the assembled candidate stream for this selection in
	// March notation, ordering-deduplicated, in assembly order.
	Candidates []string `json:"candidates,omitempty"`
}

// ShardOutcome is one executed sweep shard's report: the candidate
// streams of its selections, shard-locally deduplicated, in ascending
// selection order.
type ShardOutcome struct {
	// Shard echoes the executed index range.
	Shard SweepShard `json:"shard"`
	// Selections holds one entry per first-seen node signature.
	Selections []ShardSelection `json:"selections,omitempty"`
}

// SweepDistributor is the hook through which a serving layer offers the
// selection sweep for cross-process execution. The coordinator calls
// Shards once to partition the sweep, then RunShard once per shard
// (concurrently); implementations run shards wherever they like — the
// usual one ships each shard to a replica and falls back to calling
// RunShardModels in-process when the replica is unreachable. Any error
// from RunShard abandons distribution for the whole run and the
// ordinary sequential sweep takes over.
type SweepDistributor interface {
	// Shards partitions [0,total) into ascending contiguous shards, or
	// returns nil to decline (the sweep then runs sequentially).
	Shards(total int) []SweepShard
	// RunShard executes one shard of the sweep described by models and
	// opts and returns its outcome.
	RunShard(ctx context.Context, models []fault.Model, opts Options, sh SweepShard) (*ShardOutcome, error)
}

// RunShardModels executes one contiguous shard of the §5 selection
// sweep in-process: reduce, exact-solve and assemble every first-seen
// selection in [sh.Lo, sh.Hi), with a shard-local warm chain. No
// validation, pruning or shrinking happens here — those depend on
// global sweep state and run in the coordinator's replay. It is the
// executor behind the replica set's internal sweep endpoint and the
// local fallback for unreachable peers. The shard runs unbudgeted
// (distribution is only offered to unbudgeted runs); ctx cancellation
// still aborts it.
func RunShardModels(ctx context.Context, models []fault.Model, opts Options, sh SweepShard) (_ *ShardOutcome, err error) {
	if opts.SelectionLimit <= 0 {
		opts.SelectionLimit = 64
	}
	workers, err := budget.ParseWorkers(opts.Workers)
	if err != nil {
		return nil, err
	}
	run := opts.Obs
	if run != nil {
		ctx = obs.Into(ctx, run)
	} else {
		run = obs.From(ctx)
	}
	m := budget.NewMeter(ctx, budget.Budget{})
	instances := fault.Instances(models)
	if len(instances) == 0 {
		return nil, fmt.Errorf("core: empty fault list")
	}
	classes := tpg.Classes(instances)
	if opts.DisableEquivalence {
		classes = splitClasses(classes)
	}
	selections := tpg.Selections(classes, opts.SelectionLimit)
	if sh.Lo < 0 || sh.Hi > len(selections) || sh.Lo >= sh.Hi {
		return nil, fmt.Errorf("core: shard [%d,%d) outside the %d-selection sweep: %w", sh.Lo, sh.Hi, len(selections), budget.ErrUsage)
	}
	span := run.Start("shard")
	span.SetInt("lo", int64(sh.Lo)).SetInt("hi", int64(sh.Hi))
	defer span.End()

	// Distribution is offered to exact, unbudgeted sweeps only: a shard
	// solves exactly, and the exact solvers cannot soft-exhaust.
	opts.Exact = true
	sw := newSweep(m, classes, opts, workers, opts.Cache, func(string) {})
	keep := func(sel *ShardSelection, cands []*march.Test) error {
		for _, cand := range cands {
			sel.Candidates = append(sel.Candidates, cand.String())
		}
		return nil
	}
	out := &ShardOutcome{Shard: sh}
	for idx := sh.Lo; idx < sh.Hi; idx++ {
		if err := m.CheckNow(); err != nil {
			return nil, err
		}
		sel, err := sw.produce(selections[idx], keep)
		if err != nil {
			return nil, err
		}
		if sel != nil {
			out.Selections = append(out.Selections, *sel)
		}
	}
	run.Counter("core.sweep.shards_run").Inc()
	return out, nil
}

// distributeSweep offers the sweep to the distributor, then replays the
// sequential fold into sw over the merged candidate streams (see the
// package comment) and returns the shard count. ok is false — and the
// caller discards sw and runs the ordinary sequential sweep — when the
// distributor declines, returns a malformed partition, any shard fails,
// a candidate fails to parse, or no candidate validated. A non-nil err
// is a hard engine error from the replay's validation (context
// cancellation, simulator failure) and aborts the whole run, exactly as
// it would mid-loop sequentially.
func distributeSweep(ctx context.Context, d SweepDistributor, models []fault.Model, opts Options, total int, sw *sweep, run *obs.Run) (_ int, ok bool, err error) {
	shards := d.Shards(total)
	if len(shards) < 2 {
		return 0, false, nil
	}
	want := 0
	for _, sh := range shards {
		if sh.Lo != want || sh.Hi <= sh.Lo {
			run.Counter("core.sweep.bad_partition").Inc()
			return 0, false, nil
		}
		want = sh.Hi
	}
	if want != total {
		run.Counter("core.sweep.bad_partition").Inc()
		return 0, false, nil
	}
	outs := make([]*ShardOutcome, len(shards))
	errs := make([]error, len(shards))
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		completed int
	)
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = d.RunShard(ctx, models, opts, shards[i])
			if errs[i] == nil {
				// Aggregate live progress: the packed selection cell is
				// monotone, so "selections finished so far" is a safe
				// reading even while shards complete out of order.
				mu.Lock()
				completed += shards[i].Hi - shards[i].Lo
				sw.prog.Selection(int64(completed), int64(total))
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	for i := range shards {
		if errs[i] != nil || outs[i] == nil {
			run.Counter("core.sweep.shard_errors").Inc()
			return 0, false, nil
		}
	}

	// The replay: the sequential fold over the concatenated streams, in
	// ascending selection order, after the same global node-set dedup.
	for _, out := range outs {
		for _, sel := range out.Selections {
			if !sw.firstSeen(sel.Sig) {
				continue
			}
			sw.solved(&sel)
			cands := make([]*march.Test, len(sel.Candidates))
			for k, cs := range sel.Candidates {
				cand, perr := march.Parse(cs)
				if perr != nil {
					run.Counter("core.sweep.shard_errors").Inc()
					return 0, false, nil
				}
				cands[k] = cand
			}
			if err := sw.fold(&sel, cands); err != nil {
				return 0, false, err
			}
		}
	}
	if sw.best == nil {
		return 0, false, nil
	}
	return len(shards), true, nil
}
