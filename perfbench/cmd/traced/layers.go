package main

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"marchgen/perfbench/bench"
	"marchgen/perfbench/span"
)

// Headers carrying a traced request's op id and client span to the
// handler wrapper.
const (
	opHeader   = "X-Bench-Op"
	spanHeader = "X-Bench-Span"
)

// serveTracer records a client span per request and a handler span
// inside it, while on is set.
type serveTracer struct {
	rec *span.Recorder
	op  *atomic.Int64
	on  atomic.Bool
}

// hook is a bench.Hook: it opens the request's client span and passes
// its ids to the handler in headers.
func (st *serveTracer) hook(hr *http.Request) func() {
	if !st.on.Load() {
		return nil
	}
	op := int(st.op.Add(1))
	id := st.rec.Begin("client", op, 0)
	hr.Header.Set(opHeader, strconv.Itoa(op))
	hr.Header.Set(spanHeader, strconv.Itoa(id))
	return func() { st.rec.End(id) }
}

// wrap records a "serve.handler <path>" span around Handler().ServeHTTP for every
// request that carries a client span.
func (st *serveTracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		if parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.Atoi(r.Header.Get(opHeader))
		id := st.rec.Begin("serve.handler "+r.URL.Path, op, parent)
		h.ServeHTTP(w, r)
		st.rec.End(id)
	})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// result derives the per-layer metrics. Layer metrics are per traced
// replay pass, serve metrics per request, stage times per pipeline pass.
func (t *tracer) result() (bench.Result, error) {
	res := bench.NewResult(t.attempted, t.failed)
	spans := t.rec.Spans()
	self := span.SelfTimes(spans)
	busy := map[string]time.Duration{}
	var handler, wire []time.Duration
	byPath := map[string][]time.Duration{}
	for i, s := range spans {
		busy[s.Name] += self[i]
		switch path, ok := strings.CutPrefix(s.Name, "serve.handler "); {
		case ok:
			handler = append(handler, s.End-s.Start)
			byPath[path] = append(byPath[path], s.End-s.Start)
		case s.Name == "client":
			wire = append(wire, self[i])
		}
	}
	for _, ep := range []string{"generate", "verify"} {
		h, c := byPath["/v1/"+ep], t.serve.PerEndpoint[ep]
		if len(h) > 0 {
			fmt.Fprintf(t.log, "  %-8s handler p50 %.3f ms, client p50 %.3f ms, %d requests\n", ep, ms(bench.Median(h)), ms(bench.Median(c)), len(h))
		}
	}
	p := float64(t.passes)
	for _, layer := range []string{"fault", "tpg", "atsp", "gts", "sim", "cover"} {
		res.Set(layer+".busy_ms", ms(busy[layer])/p, "ms")
	}
	c := t.traced.Counts
	for _, layer := range []string{"gts", "sim", "cover"} {
		res.Set(layer+".allocs", float64(c.Allocs[layer])/p, "count")
	}
	res.Set("tpg.selections", float64(c.Selections)/p, "count")
	res.Set("tpg.distinct_ratio", ratio(c.Distinct, c.Selections), "ratio")
	res.Set("atsp.solves", float64(c.Solves)/p, "count")
	res.Set("atsp.nodes", float64(c.Nodes)/p, "count")
	res.Set("gts.candidates", float64(c.Candidates)/p, "count")
	res.Set("sim.evals", float64(c.Evals)/p, "count")
	res.Set("sim.complete_ratio", ratio(c.Complete, c.Evals), "ratio")
	res.Set("cover.calls", float64(c.CoverCalls)/p, "count")

	h99, ok := bench.Percentile(handler, 99)
	if !ok {
		return res, fmt.Errorf("only %d traced requests: handler p99 has fewer than %d samples beyond it", len(handler), bench.MinBeyond)
	}
	res.Set("serve.handler_ms_p50", ms(bench.Median(handler)), "ms")
	res.Set("serve.handler_ms_p99", ms(h99), "ms")
	res.Set("serve.wire_ms_p50", ms(bench.Median(wire)), "ms")
	res.Set("serve.from_cache_ratio", ratio(t.serve.FromCache, len(t.serve.PerEndpoint["generate"])), "ratio")
	res.Set("serve.shed_ratio", ratio(t.serve.Shed, t.serve.Attempted), "ratio")
	res.Set("memo.hit_ratio", t.memoHit, "ratio")
	res.Set("memo.entries", t.memoEntry, "count")

	for _, s := range stages {
		res.Set("core.stage_ms."+s, ms(t.stage[s])/float64(t.corePasses), "ms")
	}
	onRate := float64(t.onOps) / t.on.Seconds()
	offRate := float64(t.offOps) / t.off.Seconds()
	res.Set("trace.overhead_pct", 100*(1-onRate/offRate), "%")
	return res, nil
}
