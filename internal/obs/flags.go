package obs

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// Flags is the shared CLI observability surface: every command binds
// the same -trace/-chrome/-metrics/-pprof/-progress flags and drives
// them with Start/finish, so observability behaves identically across
// tools.
type Flags struct {
	Trace    string // write a JSONL span trace to this file
	Chrome   string // write a Chrome trace_event file to this file
	Metrics  bool   // dump the metric snapshot as JSON on exit
	Pprof    string // serve net/http/pprof + expvar + /metrics on this address
	Progress bool   // log live engine progress lines to stderr
}

// BindFlags registers the observability flags on fs.
func BindFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Trace, "trace", "", "write a JSONL span trace to `file`")
	fs.StringVar(&f.Chrome, "chrome-trace", "", "write a Chrome trace_event file to `file` (load in chrome://tracing or Perfetto)")
	fs.BoolVar(&f.Metrics, "metrics", false, "dump the metrics snapshot as JSON to stderr on exit")
	fs.StringVar(&f.Pprof, "pprof", "", "serve net/http/pprof, expvar and /metrics on `addr` (e.g. localhost:6060)")
	fs.BoolVar(&f.Progress, "progress", false, "log live engine progress (stage, fraction, incumbent/bound, ETA) to stderr")
	return f
}

// Enabled reports whether any observability output was requested.
func (f *Flags) Enabled() bool {
	return f != nil && (f.Trace != "" || f.Chrome != "" || f.Metrics || f.Pprof != "" || f.Progress)
}

// Start materialises the requested observability: returns the run to
// thread into the pipeline (nil when nothing was requested — the whole
// instrumentation layer then short-circuits) and a finish func that
// flushes traces, dumps metrics to errw and stops the debug server.
// Only -trace and -chrome-trace read finished spans, so without them the
// run keeps none (NewMetricsRun). finish is safe to call exactly once,
// typically via defer after restructuring main as
// func main() { os.Exit(run()) }.
func (f *Flags) Start(errw io.Writer) (*Run, func(), error) {
	if !f.Enabled() {
		return nil, func() {}, nil
	}
	run := NewMetricsRun()
	if f.Trace != "" || f.Chrome != "" {
		run = NewRun()
	}
	var closers []func()
	fail := func(err error) (*Run, func(), error) {
		for _, c := range closers {
			c()
		}
		return nil, nil, err
	}

	var traceFile *os.File
	if f.Trace != "" {
		file, err := os.Create(f.Trace)
		if err != nil {
			return fail(fmt.Errorf("obs: create trace file: %w", err))
		}
		traceFile = file
		closers = append(closers, func() { _ = file.Close() })
		run.DeferTrace(file)
	}
	var stopProgress func()
	if f.Progress {
		stopProgress = startProgressLog(run, errw)
	}
	var stopDebug func()
	if f.Pprof != "" {
		addr, stop, err := run.ServeDebug(f.Pprof)
		if err != nil {
			return fail(fmt.Errorf("obs: pprof endpoint: %w", err))
		}
		stopDebug = stop
		fmt.Fprintf(errw, "obs: debug endpoint on http://%s/debug/pprof/\n", addr)
	}

	finish := func() {
		if stopProgress != nil {
			stopProgress()
		}
		if err := run.Flush(); err != nil {
			fmt.Fprintf(errw, "obs: flush trace: %v\n", err)
		}
		if traceFile != nil {
			_ = traceFile.Close()
		}
		if f.Chrome != "" {
			file, err := os.Create(f.Chrome)
			if err == nil {
				err = WriteChromeTrace(file, run.Events())
				if cerr := file.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(errw, "obs: chrome trace: %v\n", err)
			}
		}
		if f.Metrics {
			enc := json.NewEncoder(errw)
			enc.SetIndent("", "  ")
			if err := enc.Encode(run.Snapshot()); err != nil {
				fmt.Fprintf(errw, "obs: metrics dump: %v\n", err)
			}
		}
		if stopDebug != nil {
			stopDebug()
		}
	}
	return run, finish, nil
}

// progressLogEvery is the sampling interval of the -progress logger —
// human-paced, an order of magnitude slower than the probes' own
// update granularity.
const progressLogEvery = 200 * time.Millisecond

// startProgressLog samples the run's progress probes and writes one
// line to errw whenever something material changed (time-derived
// fields alone do not trigger a line, so an idle engine stays quiet).
// The returned stop func flushes a final snapshot and joins the
// goroutine.
func startProgressLog(run *Run, errw io.Writer) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(progressLogEvery)
		defer tick.Stop()
		var prev ProgressSnapshot
		emit := func(final bool) {
			snap := run.ProgressSnapshot()
			if !snap.Changed(prev) && !final {
				return
			}
			prev = snap
			fmt.Fprintf(errw, "obs: progress %s\n", formatProgress(snap))
		}
		for {
			select {
			case <-tick.C:
				emit(false)
			case <-done:
				emit(true)
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// formatProgress renders a snapshot as a compact single-line summary,
// omitting fields the engine has not populated yet.
func formatProgress(s ProgressSnapshot) string {
	out := fmt.Sprintf("stage=%s", s.Stage)
	if s.Stage == "" {
		out = "stage=-"
	}
	if s.SelectionTotal > 0 {
		out += fmt.Sprintf(" selection=%d/%d (%.1f%%)", s.SelectionIndex, s.SelectionTotal, s.Fraction*100)
	}
	if s.Incumbent > 0 || s.Bound > 0 {
		out += fmt.Sprintf(" incumbent=%d bound=%d", s.Incumbent, s.Bound)
	}
	if s.Nodes > 0 {
		out += fmt.Sprintf(" nodes=%d (%d/s)", s.Nodes, s.NodesPerSec)
	}
	if s.CoverageTotal > 0 {
		out += fmt.Sprintf(" coverage=%d/%d", s.CoverageDetected, s.CoverageTotal)
	}
	if s.BestComplexity > 0 {
		out += fmt.Sprintf(" best=%dn", s.BestComplexity)
	}
	if s.ETAMS > 0 {
		out += fmt.Sprintf(" eta=%s", time.Duration(s.ETAMS)*time.Millisecond)
	}
	return out
}
