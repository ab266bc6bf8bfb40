package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"marchgen"
	"marchgen/fault"
	"marchgen/internal/serve"
	"marchgen/march"
)

// VerifyTest is the known test every serve-mix verify request checks.
const VerifyTest = "MarchC-"

// Clients is the number of closed-loop clients that drive a server.
const Clients = 2

// Server is an in-process marchgen service on a loopback listener.
type Server struct {
	URL  string
	hs   *http.Server
	done chan error
}

// StartServer serves serve.New(cfg) on 127.0.0.1. wrap, when non-nil,
// wraps the service's handler.
func StartServer(cfg serve.Config, wrap func(http.Handler) http.Handler) (*Server, error) {
	h := serve.New(cfg).Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &Server{URL: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// Close shuts the server down and waits for its serve loop to return.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// Body returns the JSON request body for a stream request.
func Body(r Request) []byte {
	if r.Verify {
		b, _ := json.Marshal(serve.VerifyRequest{Known: VerifyTest, Faults: r.List})
		return b
	}
	b, _ := json.Marshal(serve.GenerateRequest{Faults: r.List})
	return b
}

// Path returns the endpoint a stream request is posted to.
func Path(r Request) string {
	if r.Verify {
		return "/v1/verify"
	}
	return "/v1/generate"
}

// Expect holds, per list, the response bytes a request must carry.
type Expect struct {
	generate map[string][]byte
	verify   map[string][]byte
	// fromCache requires every generate response to be a cache hit.
	fromCache bool
}

// NewExpect builds the expected responses: generate responses must carry
// refs[list] (conventional notation) with its ASCII form, complexity and
// instance count; verify responses must agree, field for field, with
// marchgen.Verify of VerifyTest computed here.
func NewExpect(refs map[string]string, verifyLists []string, fromCache bool) (*Expect, error) {
	x := &Expect{generate: map[string][]byte{}, verify: map[string][]byte{}, fromCache: fromCache}
	for list, ref := range refs {
		t, err := march.Parse(ref)
		if err != nil {
			return nil, fmt.Errorf("%s: reference test: %w", list, err)
		}
		models, err := fault.ParseList(list)
		if err != nil {
			return nil, err
		}
		b, err := encode(serve.GenerateResponse{Test: t.String(), ASCII: t.ASCII(), Complexity: t.Complexity(), Instances: len(fault.Instances(models))})
		if err != nil {
			return nil, err
		}
		x.generate[list] = segment(b, `,"stats"`)
	}
	kt, _ := march.Known(VerifyTest)
	for _, list := range verifyLists {
		rep, err := marchgen.Verify(kt.Test, list)
		if err != nil {
			return nil, fmt.Errorf("verify %s: %w", list, err)
		}
		resp := serve.VerifyResponse{
			Test:           rep.Test.String(),
			Complexity:     rep.Complexity,
			Complete:       rep.Complete,
			Missed:         rep.Missed,
			NonRedundant:   rep.NonRedundant,
			RedundantReads: rep.RedundantReads,
			RemovableOps:   rep.RemovableOps,
		}
		for _, inst := range rep.Instances {
			resp.Instances = append(resp.Instances, serve.InstanceVerdict{
				Model: inst.Model, Name: inst.Name, Detected: inst.Detected, DetectingOps: inst.DetectingOps,
			})
		}
		b, err := encode(resp)
		if err != nil {
			return nil, err
		}
		x.verify[list] = segment(b, `,"elapsed_us"`)
	}
	return x, nil
}

// encode marshals v the way the service writes responses.
func encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// segment returns the part of a response body from its "test" field up
// to (not including) the field named by end: everything between the
// per-request id and the per-request fields. Nil when either is missing.
func segment(body []byte, end string) []byte {
	i := bytes.Index(body, []byte(`,"test":`))
	j := bytes.LastIndex(body, []byte(end))
	if i < 0 || j < i {
		return nil
	}
	return body[i:j]
}

var (
	fromCacheField = []byte(`"from_cache":true`)
	degradedField  = []byte(`"degraded":true`)
)

// Check reports whether a response to r is correct.
func (x *Expect) Check(r Request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", Path(r), r.List, status, bytes.TrimSpace(body))
	}
	if r.Verify {
		want, ok := x.verify[r.List]
		if !ok || !bytes.Equal(segment(body, `,"elapsed_us"`), want) {
			return fmt.Errorf("verify %s: response %s disagrees with marchgen.Verify %s", r.List, bytes.TrimSpace(body), want)
		}
		return nil
	}
	want, ok := x.generate[r.List]
	if !ok || !bytes.HasPrefix(segment(body, `,"stats"`), want) {
		return fmt.Errorf("generate %s: response %s, want %s", r.List, bytes.TrimSpace(body), want)
	}
	if bytes.Contains(body, degradedField) {
		return fmt.Errorf("generate %s: degraded response", r.List)
	}
	if x.fromCache && !bytes.Contains(body, fromCacheField) {
		return fmt.Errorf("generate %s: response not from_cache", r.List)
	}
	return nil
}

// Hook, when set on a load, is called before each request is sent; the
// returned func, if any, is called once its response has been read.
type Hook func(hr *http.Request) (done func())

// Load describes one closed-loop drive of a server.
type Load struct {
	Stream Stream
	// First is the stream index of the first request.
	First int
	// Duration is the minimum drive time; MinSamples the minimum number
	// of responses. The drive stops once both are met.
	Duration   time.Duration
	MinSamples int
	Expect     *Expect
	Hook       Hook
}

// WindowSize is the number of responses in one measurement window: the
// smallest count whose p99 has MinBeyond samples beyond it.
const WindowSize = 100 * MinBeyond

// Window is one stretch of WindowSize consecutive responses of a load.
// Per-window figures, summarised by their median, keep a burst of
// machine noise from moving a whole run's result.
type Window struct {
	Elapsed, CPU, Steal time.Duration
	Samples             []time.Duration
}

// Run is the window's elapsed time without the steal (Steal) one CPU
// lost on average while it ran. The clients and the service share the
// machine's CPUs, so a tick of steal on one of them holds up only part
// of the load.
func (w Window) Run() time.Duration {
	return w.Elapsed - min(w.Steal/time.Duration(runtime.NumCPU()), w.Elapsed)
}

// LoadRun is what a load measured.
type LoadRun struct {
	Samples []time.Duration
	// PerEndpoint holds latencies per endpoint ("generate", "verify").
	PerEndpoint       map[string][]time.Duration
	Attempted, Failed int
	FromCache, Shed   int
	Elapsed           time.Duration
	Usage             Usage
	FirstErr          error
	Next              int // stream index after the last request issued
	Windows           []Window
}

// Add merges o into r (Usage, Next and Windows are left alone).
func (r *LoadRun) Add(o LoadRun) {
	r.Samples = append(r.Samples, o.Samples...)
	if r.PerEndpoint == nil {
		r.PerEndpoint = map[string][]time.Duration{}
	}
	for k, v := range o.PerEndpoint {
		r.PerEndpoint[k] = append(r.PerEndpoint[k], v...)
	}
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.FromCache += o.FromCache
	r.Shed += o.Shed
	r.Elapsed += o.Elapsed
	if r.FirstErr == nil {
		r.FirstErr = o.FirstErr
	}
}

// Drive runs Clients closed-loop clients, each on its own connection,
// through the stream. Each client sends its next request only after the
// previous response has been read and checked.
func (s *Server) Drive(ctx context.Context, ld Load) LoadRun {
	bodies := map[Request][]byte{}
	for _, l := range ld.Stream.Generate {
		r := Request{List: l}
		bodies[r] = Body(r)
	}
	for _, l := range ld.Stream.Verify {
		r := Request{Verify: true, List: l}
		bodies[r] = Body(r)
	}
	var next, responses atomic.Int64
	next.Store(int64(ld.First))
	type mark struct {
		n   int64
		at  time.Time
		cpu time.Duration
		st  time.Duration
	}
	var mu sync.Mutex
	var run LoadRun
	var seqs []int64 // completion number of each of run.Samples
	u0 := ReadUsage()
	start := time.Now()
	marks := []mark{{0, start, CPUTime(), Steal()}}
	var wg sync.WaitGroup
	for c := 0; c < Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			var buf bytes.Buffer
			var local LoadRun
			var localSeqs []int64
			local.PerEndpoint = map[string][]time.Duration{}
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if time.Since(start) >= ld.Duration && i-ld.First >= ld.MinSamples {
					break
				}
				r := ld.Stream.At(i)
				status, el, err := s.do(ctx, client, &buf, r, bodies[r], ld.Hook)
				local.Attempted++
				if err == nil {
					n := responses.Add(1)
					if n%WindowSize == 0 {
						m := mark{n, time.Now(), CPUTime(), Steal()}
						mu.Lock()
						marks = append(marks, m)
						mu.Unlock()
					}
					local.Samples = append(local.Samples, el)
					localSeqs = append(localSeqs, n)
					key := Path(r)[len("/v1/"):]
					local.PerEndpoint[key] = append(local.PerEndpoint[key], el)
					err = ld.Expect.Check(r, status, buf.Bytes())
					if status == http.StatusServiceUnavailable {
						local.Shed++
					}
					if bytes.Contains(buf.Bytes(), fromCacheField) {
						local.FromCache++
					}
				}
				if err != nil {
					local.Failed++
					if local.FirstErr == nil {
						local.FirstErr = err
					}
				}
			}
			mu.Lock()
			run.Add(local)
			seqs = append(seqs, localSeqs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	run.Elapsed = time.Since(start)
	run.Usage = ReadUsage().Sub(u0)
	run.Next = int(next.Load())
	sort.Slice(marks, func(a, b int) bool { return marks[a].n < marks[b].n })
	run.Windows = make([]Window, len(marks)-1)
	for k := range run.Windows {
		run.Windows[k].Elapsed = marks[k+1].at.Sub(marks[k].at)
		run.Windows[k].CPU = marks[k+1].cpu - marks[k].cpu
		run.Windows[k].Steal = marks[k+1].st - marks[k].st
	}
	for i, n := range seqs {
		if k := int((n - 1) / WindowSize); k < len(run.Windows) {
			run.Windows[k].Samples = append(run.Windows[k].Samples, run.Samples[i])
		}
	}
	return run
}

// do sends one request and reads its body into buf, returning the status
// and the client-observed latency.
func (s *Server) do(ctx context.Context, client *http.Client, buf *bytes.Buffer, r Request, body []byte, hook Hook) (int, time.Duration, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, s.URL+Path(r), bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	var done func()
	if hook != nil {
		done = hook(hr)
	}
	buf.Reset()
	t0 := time.Now()
	resp, err := client.Do(hr)
	if err == nil {
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	el := time.Since(t0)
	if done != nil {
		done()
	}
	if err != nil {
		return 0, 0, fmt.Errorf("%s %s: %w", Path(r), r.List, err)
	}
	return resp.StatusCode, el, nil
}

// Post sends one request outside any load and checks nothing; set-up
// uses it to fill the service's cache.
func (s *Server) Post(ctx context.Context, r Request) (int, []byte, error) {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	var buf bytes.Buffer
	status, _, err := s.do(ctx, &http.Client{Transport: tr}, &buf, r, Body(r), nil)
	return status, buf.Bytes(), err
}
