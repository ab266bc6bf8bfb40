// Package obs is the zero-dependency observability substrate of the
// generation engine: hierarchical spans recorded by a lock-sharded
// in-process recorder, a registry of atomic counters/gauges/histograms,
// and export sinks (JSONL span traces, Chrome trace_event conversion for
// flame views, and an opt-in net/http/pprof + expvar endpoint).
//
// The cardinal rule is that instrumentation is off by default and
// nil-safe everywhere: a nil *Run, *Span, *Counter, *Gauge, *Histogram
// or *Stages accepts every method as a no-op, so the pipeline threads
// observation handles unconditionally and pays only a nil check when
// observation is disabled (the disabled-path overhead is guarded by
// BenchmarkGenerateObsOff/On at the repository root).
//
// A Run travels with a generation run two ways: explicitly via
// core.Options.Obs (the library surface behind marchgen.WithMetrics /
// marchgen.WithTrace) and implicitly via the context (Into/From), which
// is how the deeper layers — the worker pool, the ATSP solvers, the
// simulator, the coverage analyser, diagnosis — find it without
// signature churn: they already carry a context.Context or a
// *budget.Meter (whose Context method exposes one).
//
// Enabled traces are deterministic modulo timestamps: span names,
// attributes and per-worker ordering depend only on the input (the
// sequence numbers of a single-worker run reproduce exactly), so two
// traces of the same run are diffable after normalising the time fields
// (see obstest.Normalize).
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Run is one observed pipeline run: a span recorder plus a metrics
// registry plus the attached sinks. The zero value is not used; a nil
// *Run disables all instrumentation.
type Run struct {
	t0  time.Time
	seq atomic.Uint64

	// phase is the current pipeline-stage span: deep layers (the ATSP
	// solvers, the simulator, the coverage analyser) parent their spans
	// to it via StartUnder without any span threading through their
	// signatures. Maintained by Stages.Enter/Close and WithPhase.
	phase atomic.Pointer[Span]

	rec recorder
	reg registry

	// progress is the run's live-progress cells (see progress.go):
	// last-write-wins atomics the engine's long loops update in place
	// and the serving layers snapshot on demand.
	progress Progress

	sink     sink
	deferred deferredTrace

	// observers are live span-completion callbacks (Notify): the async
	// job layer turns finished spans into streaming progress events and
	// checkpoint triggers without a sink round-trip through bytes.
	obsMu     sync.RWMutex
	observers []func(Event)

	// noEvents drops finished spans after the sink and the observers
	// have seen them, instead of keeping them for Events (NewMetricsRun).
	noEvents bool
}

// NewRun starts an observed run.
func NewRun() *Run {
	return &Run{t0: time.Now()}
}

// NewMetricsRun starts an observed run that keeps no finished spans:
// each one still reaches the streaming sink (StreamTo) and the Notify
// observers, but Events stays empty and "obs.spans" stays 0. It suits
// long-lived processes that read only the metrics, where a NewRun
// would hold up to 65,536 spans nobody asks for.
func NewMetricsRun() *Run {
	return &Run{t0: time.Now(), noEvents: true}
}

type ctxKey struct{}

// Into attaches the run to a context, making it visible to every
// pipeline layer below (From). A nil run returns ctx unchanged.
func Into(ctx context.Context, r *Run) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, r)
}

// From recovers the run attached to ctx, or nil when the run is
// unobserved (including a nil ctx). All downstream instrumentation is
// nil-safe, so callers use the result unconditionally.
func From(ctx context.Context) *Run {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(ctxKey{}).(*Run)
	return r
}

// WithPhase marks s as the current pipeline phase — the span that
// StartUnder parents to — and returns a restore func reinstating the
// previous phase. Nil-safe on both the run and the span.
func (r *Run) WithPhase(s *Span) func() {
	if r == nil {
		return func() {}
	}
	prev := r.phase.Swap(s)
	return func() { r.phase.Store(prev) }
}

// Notify registers fn to be invoked synchronously with every span the
// run finishes from now on, in End order, possibly from many goroutines
// at once. fn must be fast and must not call back into the run's span
// machinery; the job event layer uses it to stream stage/progress events
// and trigger durable checkpoints. Nil-safe.
func (r *Run) Notify(fn func(Event)) {
	if r == nil || fn == nil {
		return
	}
	r.obsMu.Lock()
	r.observers = append(r.observers, fn)
	r.obsMu.Unlock()
}

// notify fans a finished span out to the registered observers.
func (r *Run) notify(ev Event) {
	r.obsMu.RLock()
	fns := r.observers
	r.obsMu.RUnlock()
	for _, fn := range fns {
		fn(ev)
	}
}

// StartUnder opens a span parented to the current pipeline phase (the
// stage span entered last), or a root span when no phase is active.
// This is how the deep layers appear under generate/atsp,
// generate/validate etc. without threading spans through the
// pipeline's signatures.
func (r *Run) StartUnder(name string) *Span {
	if r == nil {
		return nil
	}
	if p := r.phase.Load(); p != nil {
		return p.Child(name)
	}
	return r.Start(name)
}
