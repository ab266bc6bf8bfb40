package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"time"

	"marchgen"
	"marchgen/internal/serve"
	"marchgen/march"
)

// SetupRuns is how many times a run repeats its set-up; setup_s is the
// median.
const SetupRuns = 3

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's output line.
type Result struct {
	// Workload is set only when one command runs several workloads.
	Workload  string            `json:"workload,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// NewResult starts a result from op counts.
func NewResult(attempted, failed int) Result {
	return Result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]Metric{}}
}

// Set records a metric.
func (r Result) Set(name string, v float64, unit string) { r.Metrics[name] = Metric{v, unit} }

// Print writes the result as one JSON line.
func (r Result) Print(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// perOp records the per-op cost metrics shared by every workload; cpu is
// the median CPU time of one op.
func (r Result) perOp(cpu time.Duration, u Usage, ops int) {
	r.Set("cpu_ms_per_op", ms(cpu), "ms")
	r.Set("allocs_per_op", float64(u.Allocs)/float64(ops), "count")
	r.Set("alloc_kb_per_op", float64(u.AllocBytes)/1024/float64(ops), "KiB")
	r.Set("max_rss_mb", MaxRSSMiB(), "MiB")
	r.Set("ok_ratio", 1-float64(r.Failed)/float64(r.Attempted), "ratio")
}

// EndToEnd runs one workload untraced and returns its end-to-end
// metrics. A set-up failure is an error; failed ops are counted in the
// result. Diagnostics go to log.
func EndToEnd(ctx context.Context, root, workload string, seed int64, d time.Duration, log io.Writer) (Result, error) {
	if workload == "serve-mix" {
		return serveE2E(ctx, root, seed, d, log)
	}
	return engineE2E(ctx, root, workload, seed, d, log)
}

func engineE2E(ctx context.Context, root, workload string, seed int64, d time.Duration, log io.Writer) (Result, error) {
	var e *Engine
	var setups []time.Duration
	for k := 0; k < SetupRuns; k++ {
		sw := StartStopwatch()
		next, err := NewEngine(root, workload, seed)
		if err == nil {
			err = next.WarmUp(ctx)
		}
		if err != nil {
			return Result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, sw.Run())
		if e != nil && !maps.Equal(e.Ref, next.Ref) {
			return Result{}, fmt.Errorf("set-up %d generated other tests than set-up 1", k+1)
		}
		e = next
	}
	run := e.RunEngine(ctx, d)
	if run.FirstErr != nil {
		fmt.Fprintln(log, "FAIL:", run.FirstErr)
	}
	times := run.ListTimes(e.Lists)
	res := NewResult(run.Attempted, run.Failed)
	res.Set("ops_per_s", run.OpsPerSecond(), "1/s")
	res.Set("call_ms_median", ms(Median(times)), "ms")
	res.Set("call_ms_tail", ms(slices.Max(times)), "ms")
	res.perOp(Median(run.PassCPU), run.Usage, run.Passes)
	res.Set("march_ops_total", float64(e.OpsTotal), "count")
	res.Set("setup_s", Median(setups).Seconds(), "s")
	fmt.Fprintf(log, "%s: %d passes of %d lists, pass times %v (steal excluded), steal %v, setups %v (steal excluded)\n", workload, run.Passes, len(e.Lists), run.PassRun, run.Steal, setups)
	for i, l := range e.Lists {
		calls := run.PerList[l]
		wall := make([]time.Duration, len(calls))
		for k, c := range calls {
			wall[k] = c.Wall
		}
		fmt.Fprintf(log, "  %-22s mean %8.3f ms steal excluded, median wall %8.3f ms, over %d calls\n", l, ms(times[i]), ms(Median(wall)), len(calls))
	}
	return res, nil
}

// ServeMix is the serve-mix workload after set-up: a running service
// whose cache holds every Table 3 list, the seeded request stream and the
// expected responses.
type ServeMix struct {
	Server *Server
	Stream Stream
	Expect *Expect
	// Engine holds the Table 3 lists and the reference tests the
	// service computed for them in set-up.
	Engine *Engine
	seed   int64
}

// SetupServeMix starts a service on an empty cache and fills the cache
// with one cold generate per Table 3 list, checking each answer like an
// engine op. wrap is passed to StartServer.
func SetupServeMix(ctx context.Context, root string, seed int64, wrap func(h http.Handler) http.Handler) (*ServeMix, error) {
	e, err := NewEngine(root, "table3-cold", seed)
	if err != nil {
		return nil, err
	}
	marchgen.ResetCache()
	srv, err := StartServer(serve.DefaultConfig(), wrap)
	if err != nil {
		return nil, err
	}
	sm := &ServeMix{Server: srv, Engine: e, seed: seed}
	if err := sm.prewarm(ctx); err != nil {
		srv.Close()
		return nil, err
	}
	return sm, nil
}

func (sm *ServeMix) prewarm(ctx context.Context) error {
	e := sm.Engine
	for _, l := range e.Lists {
		status, body, err := sm.Server.Post(ctx, Request{List: l})
		if err != nil {
			return err
		}
		var resp serve.GenerateResponse
		if status != http.StatusOK {
			return fmt.Errorf("pre-warm %s: status %d: %s", l, status, body)
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("pre-warm %s: %w", l, err)
		}
		t, err := march.Parse(resp.Test)
		if err != nil {
			return fmt.Errorf("pre-warm %s: %w", l, err)
		}
		got := &marchgen.Result{Test: t, Complexity: resp.Complexity}
		got.Stats.Degraded = resp.Degraded
		if err := e.Check(l, got, nil); err != nil {
			return fmt.Errorf("pre-warm: %w", err)
		}
	}
	simple := Shuffled(SimpleLists(), sm.seed)
	x, err := NewExpect(e.Ref, simple, true)
	if err != nil {
		return err
	}
	sm.Expect = x
	sm.Stream = Stream{Seed: sm.seed, Generate: e.Lists, Verify: simple, VerifyShare: VerifyShare}
	return nil
}

func serveE2E(ctx context.Context, root string, seed int64, d time.Duration, log io.Writer) (Result, error) {
	var sm *ServeMix
	var setups []time.Duration
	for k := 0; k < SetupRuns; k++ {
		if sm != nil {
			if err := sm.Server.Close(); err != nil {
				return Result{}, err
			}
		}
		sw := StartStopwatch()
		var err error
		if sm, err = SetupServeMix(ctx, root, seed, nil); err != nil {
			return Result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, sw.Run())
	}
	defer sm.Server.Close()
	run := sm.Server.Drive(ctx, Load{Stream: sm.Stream, Duration: d, MinSamples: 100 * MinBeyond, Expect: sm.Expect})
	if run.FirstErr != nil {
		fmt.Fprintln(log, "FAIL:", run.FirstErr)
	}
	if len(run.Windows) == 0 {
		return Result{}, fmt.Errorf("only %d responses: not one window of %d", len(run.Samples), WindowSize)
	}
	var rate, cpu, p75 []time.Duration // rate as time per WindowSize responses
	for _, w := range run.Windows {
		p, _ := Percentile(w.Samples, 75)
		p75 = append(p75, p)
		rate = append(rate, w.Run())
		cpu = append(cpu, w.CPU/WindowSize)
	}
	n := len(run.Samples)
	res := NewResult(run.Attempted, run.Failed)
	res.Set("ops_per_s", WindowSize/Median(rate).Seconds(), "1/s")
	res.Set("call_ms_median", ms(Median(run.Samples)), "ms")
	res.Set("call_ms_tail", ms(Median(p75)), "ms")
	res.perOp(Median(cpu), run.Usage, n)
	res.Set("march_ops_total", float64(sm.Engine.OpsTotal), "count")
	res.Set("setup_s", Median(setups).Seconds(), "s")
	fmt.Fprintf(log, "serve-mix: %d responses in %v, %d windows (%d from cache, %d shed), setups %v (steal excluded)\n", n, run.Elapsed, len(run.Windows), run.FromCache, run.Shed, setups)
	for _, endpoint := range []string{"", "generate", "verify"} {
		all := run.PerEndpoint[endpoint]
		if endpoint == "" {
			endpoint, all = "all", run.Samples
		}
		p75, _ := Percentile(all, 75)
		p90, _ := Percentile(all, 90)
		p99, _ := Percentile(all, 99) // zero when dropped
		fmt.Fprintf(log, "  %-8s p50 %.3f p75 %.3f p90 %.3f p99 %.3f ms over %d responses\n", endpoint, ms(Median(all)), ms(p75), ms(p90), ms(p99), len(all))
	}
	return res, nil
}
