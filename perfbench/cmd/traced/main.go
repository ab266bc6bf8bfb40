// Command traced is the benchmark's layer-traced run. It prints per-layer
// metrics as one JSON line; end-to-end metrics come from cmd/e2e only.
//
//	go run ./cmd/traced --workload table3-cold --seed 1 --seconds 10 --trace 1
//
// Every workload's traced run measures every layer on the workload's own
// inputs, in three parts:
//
//   - replay: each fault list driven through the layers' exported entry
//     points (package replay), with a span around every call; the engine
//     workloads alternate traced and untraced replay passes, which gives
//     the tracing overhead;
//   - pipeline: marchgen.GenerateCtx on the same lists, cold, for core's
//     own stage times (Stats.StageElapsed);
//   - serve: an in-process service behind a span-recording handler,
//     driven by the closed-loop clients. serve-mix uses its seeded mix
//     and alternates traced and untraced slices for the overhead; the
//     engine workloads ask for their own lists, cold first, then cached.
//
// Spans are kept in memory and written to --out when the run ends.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"marchgen"
	"marchgen/internal/serve"
	"marchgen/march"
	"marchgen/perfbench/bench"
	"marchgen/perfbench/replay"
	"marchgen/perfbench/span"
)

// stages are the pipeline stages reported as core.stage_ms.<stage>.
var stages = []string{"expand", "select", "atsp", "assemble", "validate", "shrink", "finalize"}

// slice is the length of one traced or untraced serve-mix slice.
const slice = 500 * time.Millisecond

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: table3-cold, simple-lists-cold or serve-mix")
	seed := flag.Int64("seed", 1, "seed for list order and the request stream")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 1, "must be 1 (the untraced run is cmd/e2e)")
	root := flag.String("root", ".", "repository root")
	out := flag.String("out", ".bench_build/perfbench", "directory for the span file")
	flag.Parse()
	if *trace != 1 || *seconds < 1 || !slices.Contains(bench.Workloads, *workload) {
		fmt.Fprintln(os.Stderr, "usage: traced --workload <table3-cold|simple-lists-cold|serve-mix> --seed N --seconds N --trace 1")
		return 2
	}
	t := &tracer{log: os.Stderr, rec: span.New(), workers: runtime.GOMAXPROCS(0), stage: map[string]time.Duration{}}
	t.st = &serveTracer{rec: t.rec, op: &t.op}
	d := time.Duration(*seconds) * time.Second
	var err error
	if *workload == "serve-mix" {
		err = t.serveMix(context.Background(), *root, *seed, d)
	} else {
		err = t.engine(context.Background(), *root, *workload, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *workload, err)
		return 1
	}
	if t.firstErr != nil {
		fmt.Fprintln(os.Stderr, "FAIL:", t.firstErr)
	}
	res, err := t.result()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *workload, err)
		return 1
	}
	if err := t.writeSpans(filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := res.Print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// tracer accumulates one traced run.
type tracer struct {
	log     io.Writer // diagnostics
	rec     *span.Recorder
	st      *serveTracer
	workers int
	op      atomic.Int64 // op ids, shared by every part of the run

	traced *replay.Replayer
	passes int // traced replay passes
	// on and off are the time spent in traced and untraced work, and
	// onOps and offOps the ops done in each: the tracing overhead.
	on, off       time.Duration
	onOps, offOps int

	stage      map[string]time.Duration
	corePasses int

	serve              bench.LoadRun // traced serve requests
	memoHit, memoEntry float64

	attempted, failed int
	firstErr          error
}

func (t *tracer) nextOp() int { return int(t.op.Add(1)) }

func (t *tracer) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// pipeline generates every list once with marchgen, checked, and adds up
// core's stage times.
func (t *tracer) pipeline(ctx context.Context, e *bench.Engine) {
	for _, l := range e.Lists {
		id := t.rec.Begin("core.generate", t.nextOp(), 0)
		res, err := bench.Generate(ctx, l)
		t.rec.End(id)
		t.attempted++
		if err := e.Check(l, res, err); err != nil {
			t.fail(err)
			continue
		}
		for s, v := range res.Stats.StageElapsed {
			t.stage[s] += v
		}
	}
	t.corePasses++
}

func (t *tracer) engine(ctx context.Context, root, workload string, seed int64, d time.Duration) error {
	e, err := bench.NewEngine(root, workload, seed)
	if err == nil {
		err = e.WarmUp(ctx)
	}
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	t.traced = replay.New(t.rec, t.workers)
	plain := replay.New(nil, t.workers)
	start := time.Now()
	for t.passes == 0 || time.Since(start) < d/2 {
		// Traced and untraced replays of each list run back to back, in
		// alternating order, so drift in machine speed cancels out.
		for i, l := range e.Lists {
			first, second := t.traced, plain
			if (t.passes+i)%2 == 1 {
				first, second = plain, t.traced
			}
			for _, r := range []*replay.Replayer{first, second} {
				t0 := time.Now()
				if err := r.Generate(ctx, t.nextOp(), l); err != nil {
					return fmt.Errorf("replay %s: %w", l, err)
				}
				if r == plain {
					t.off += time.Since(t0)
				} else {
					t.on += time.Since(t0)
				}
			}
		}
		t.passes++
		t.onOps += len(e.Lists)
		t.offOps += len(e.Lists)
		t.pipeline(ctx, e)
	}
	// Serve part: the workload's own lists over HTTP on an empty cache,
	// so each list's first request computes and the rest are hits.
	x, err := bench.NewExpect(e.Ref, nil, false)
	if err != nil {
		return err
	}
	marchgen.ResetCache()
	t.st.on.Store(true)
	srv, err := bench.StartServer(serve.DefaultConfig(), t.st.wrap)
	if err != nil {
		return err
	}
	m0 := marchgen.CacheSnapshot()
	t.serve = srv.Drive(ctx, bench.Load{
		Stream:     bench.Stream{Seed: seed, Generate: e.Lists},
		Duration:   d / 2,
		MinSamples: 100 * bench.MinBeyond,
		Expect:     x,
		Hook:       t.st.hook,
	})
	t.memo(m0, marchgen.CacheSnapshot())
	t.addServe(t.serve)
	return srv.Close()
}

func (t *tracer) serveMix(ctx context.Context, root string, seed int64, d time.Duration) error {
	sm, err := bench.SetupServeMix(ctx, root, seed, t.st.wrap)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	// Serve part: alternate traced and untraced slices of the stream.
	m0 := marchgen.CacheSnapshot()
	next, start := 0, time.Now()
	for traced := true; time.Since(start) < d/2 || t.onOps < 100*bench.MinBeyond; traced = !traced {
		t.st.on.Store(traced)
		lr := sm.Server.Drive(ctx, bench.Load{Stream: sm.Stream, First: next, Duration: slice, Expect: sm.Expect, Hook: t.st.hook})
		next = lr.Next
		t.addServe(lr)
		if traced {
			t.serve.Add(lr)
			t.on += lr.Elapsed
			t.onOps += len(lr.Samples)
		} else {
			t.off += lr.Elapsed
			t.offOps += len(lr.Samples)
		}
	}
	t.memo(m0, marchgen.CacheSnapshot())
	if err := sm.Server.Close(); err != nil {
		return err
	}
	t.cacheHitCost(ctx, sm.Stream.Generate)
	if err := t.noBatchWindow(ctx, sm); err != nil {
		return err
	}
	// Replay part: the stream's distinct lists, cold: its generate lists
	// through the whole layer pipeline, its verify lists through
	// fault, sim and cover as a verify request runs them.
	kt, _ := march.Known(bench.VerifyTest)
	t.traced = replay.New(t.rec, t.workers)
	start = time.Now()
	for t.passes == 0 || time.Since(start) < d/2 {
		for _, l := range sm.Stream.Generate {
			if err := t.traced.Generate(ctx, t.nextOp(), l); err != nil {
				return fmt.Errorf("replay %s: %w", l, err)
			}
		}
		for _, l := range sm.Stream.Verify {
			if err := t.traced.Verify(ctx, t.nextOp(), kt.Test, l); err != nil {
				return fmt.Errorf("replay verify %s: %w", l, err)
			}
		}
		t.passes++
		t.pipeline(ctx, sm.Engine)
	}
	return nil
}

// cacheHitCost reports on the log what a cache-hit generation costs
// inside the library, without the service around it.
func (t *tracer) cacheHitCost(ctx context.Context, lists []string) {
	var calls []time.Duration
	for i := 0; i < 100*bench.MinBeyond; i++ {
		t0 := time.Now()
		res, err := marchgen.GenerateCtx(ctx, lists[i%len(lists)])
		calls = append(calls, time.Since(t0))
		if err != nil || !res.Stats.FromCache {
			fmt.Fprintf(t.log, "  library cache hit: call %d was not served from the cache (%v)\n", i, err)
			return
		}
	}
	fmt.Fprintf(t.log, "  library cache hit: GenerateCtx p50 %.3f ms over %d calls\n", ms(bench.Median(calls)), len(calls))
}

// noBatchWindow reports on the log the request latencies of a service
// with its generate micro-batching turned off, driven like serve-mix for
// one slice: the test of the batch window as the cause of slow cache
// hits. The cache is still full, so every generate is a hit.
func (t *tracer) noBatchWindow(ctx context.Context, sm *bench.ServeMix) error {
	cfg := serve.DefaultConfig()
	cfg.BatchWindow = -1
	srv, err := bench.StartServer(cfg, nil)
	if err != nil {
		return err
	}
	lr := srv.Drive(ctx, bench.Load{Stream: sm.Stream, Duration: 2 * slice, MinSamples: 100 * bench.MinBeyond, Expect: sm.Expect})
	t.addServe(lr)
	for _, ep := range []string{"generate", "verify"} {
		fmt.Fprintf(t.log, "  no batch window: %-8s client p50 %.3f ms, %d requests\n", ep, ms(bench.Median(lr.PerEndpoint[ep])), len(lr.PerEndpoint[ep]))
	}
	return srv.Close()
}

func (t *tracer) addServe(lr bench.LoadRun) {
	t.attempted += lr.Attempted
	t.failed += lr.Failed
	if t.firstErr == nil {
		t.firstErr = lr.FirstErr
	}
}

func (t *tracer) memo(m0, m1 marchgen.CacheInfo) {
	hits, misses := float64(m1.Hits-m0.Hits), float64(m1.Misses-m0.Misses)
	if hits+misses > 0 {
		t.memoHit = hits / (hits + misses)
	}
	t.memoEntry = float64(m1.Entries)
}

func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.rec.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
