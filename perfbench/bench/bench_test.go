package bench

import (
	"context"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"marchgen"
	"marchgen/internal/serve"
	"marchgen/march"
)

// root is the repository root as seen from this package's directory.
const root = "../.."

func durations(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(n-i) * time.Millisecond // unsorted on purpose
	}
	return out
}

func TestPercentileDropsThinTail(t *testing.T) {
	if _, ok := Percentile(durations(999), 99); ok {
		t.Error("p99 of 999 samples has 9 beyond it and must be dropped")
	}
	v, ok := Percentile(durations(1000), 99)
	if !ok || v != 990*time.Millisecond {
		t.Errorf("p99 of 1000 samples = %v, %v; want 990ms, true", v, ok)
	}
	if _, ok := Percentile(durations(19), 50); !ok {
		t.Error("the median is always reported")
	}
	if _, ok := Percentile(durations(10), 90); ok {
		t.Error("p90 of 10 samples must be dropped")
	}
	if got := Median(durations(5)); got != 3*time.Millisecond {
		t.Errorf("Median = %v, want 3ms", got)
	}
}

func TestStealExcludedRunTime(t *testing.T) {
	stat := "cpu  736564 0 41328 1127326 438 0 30726 119875 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n"
	if got, want := parseSteal(stat), 119875*10*time.Millisecond; got != want {
		t.Errorf("parseSteal = %v, want %v", got, want)
	}
	if got := parseSteal("intr 1 2 3\n"); got != 0 {
		t.Errorf("parseSteal of a file without a cpu line = %v, want 0", got)
	}
	ms := time.Millisecond
	// 10 ms of steal over a 40 ms pass: every call keeps three quarters.
	calls, run := runTimes([]time.Duration{30 * ms, 2 * ms, 8 * ms}, 10*ms)
	if want := []Call{{30 * ms, 22500 * time.Microsecond}, {2 * ms, 1500 * time.Microsecond}, {8 * ms, 6 * ms}}; !slices.Equal(calls, want) {
		t.Errorf("runTimes = %v, want %v", calls, want)
	}
	if run != 30*ms {
		t.Errorf("pass run time = %v, want 30ms", run)
	}
	if got, want := MeanRun(calls), 10*ms; got != want {
		t.Errorf("MeanRun = %v, want %v", got, want)
	}
	// Steal beyond the wall time is capped: the pass ran for 0.
	if _, run := runTimes([]time.Duration{2 * ms}, 10*ms); run != 0 {
		t.Errorf("pass run time with steal past its wall time = %v, want 0", run)
	}
	r := EngineRun{Passes: 2, PassRun: []time.Duration{300 * ms, 500 * ms}}
	if got := r.OpsPerSecond(); got != 2.5 {
		t.Errorf("OpsPerSecond = %v, want 2.5 (two passes in 0.8 s)", got)
	}
}

func TestSeedFixesOrderAndStream(t *testing.T) {
	lists := SimpleLists()
	if len(lists) != 28 {
		t.Fatalf("%d simple lists, want 28", len(lists))
	}
	if !slices.Equal(Shuffled(lists, 7), Shuffled(lists, 7)) {
		t.Error("same seed gave different list orders")
	}
	if slices.Equal(Shuffled(lists, 7), Shuffled(lists, 8)) {
		t.Error("different seeds gave the same list order")
	}
	gen := []string{"SAF", "SAF,TF", "CFin"}
	a := Stream{Seed: 7, Generate: gen, Verify: lists, VerifyShare: VerifyShare}
	b := a
	c := a
	c.Seed = 8
	verifies, differ := 0, false
	for i := 0; i < 10000; i++ {
		if a.At(i) != b.At(i) {
			t.Fatalf("same seed, request %d: %v vs %v", i, a.At(i), b.At(i))
		}
		differ = differ || a.At(i) != c.At(i)
		if a.At(i).Verify {
			verifies++
		}
	}
	if !differ {
		t.Error("different seeds gave the same request stream")
	}
	if verifies < 1800 || verifies > 2200 {
		t.Errorf("%d verifies in 10000 requests, want about %v", verifies, VerifyShare*10000)
	}
}

func mustParse(t *testing.T, s string) *march.Test {
	t.Helper()
	mt, err := march.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return mt
}

func TestInjectedWrongTestFails(t *testing.T) {
	e, err := NewEngine(root, "table3-cold", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := Generate(ctx, "SAF")
	if err := e.Check("SAF", res, err); err != nil {
		t.Fatalf("correct generation rejected: %v", err)
	}
	if e.OpsTotal != 4 {
		t.Errorf("OpsTotal = %d, want 4", e.OpsTotal)
	}
	// A complete but different test on a later pass differs from the first.
	wrong := &marchgen.Result{Test: mustParse(t, "{ ⇕(w1,r1,w0,r0) }"), Complexity: 4}
	if err := e.Check("SAF", wrong, nil); err == nil {
		t.Error("a test differing from the first pass passed")
	}
	// On a first pass, a test that is not the golden row fails.
	if err := e.Check("SAF,TF", wrong, nil); err == nil {
		t.Error("a test differing from the golden file passed")
	}
	// Without a golden row, an incomplete test fails the 8-cell check.
	s, _ := NewEngine(root, "simple-lists-cold", 1)
	if err := s.Check("TF", &marchgen.Result{Test: mustParse(t, "{ ⇕(w0,r0) }"), Complexity: 2}, nil); err == nil || !strings.Contains(err.Error(), "8-cell") {
		t.Errorf("an incomplete test passed: %v", err)
	}
	degraded := &marchgen.Result{Test: res.Test, Complexity: res.Complexity}
	degraded.Stats.Degraded = true
	if err := e.Check("SAF", degraded, nil); err == nil {
		t.Error("a degraded result passed")
	}
	if err := e.Check("SAF", nil, marchgen.ErrInternal); err == nil {
		t.Error("an error passed")
	}
}

func TestInjectedWrongResponseFails(t *testing.T) {
	x, err := NewExpect(map[string]string{"SAF": "{ ⇕(w0,r0,w1,r1) }"}, []string{"SAF"}, true)
	if err != nil {
		t.Fatal(err)
	}
	gen := Request{List: "SAF"}
	body := func(test string, fromCache bool) []byte {
		mt := mustParse(t, test)
		b, _ := encode(serve.GenerateResponse{RequestID: "r1", Test: mt.String(), ASCII: mt.ASCII(), Complexity: mt.Complexity(), Instances: 2, FromCache: fromCache, ElapsedUS: 12})
		return b
	}
	if err := x.Check(gen, http.StatusOK, body("{ ⇕(w0,r0,w1,r1) }", true)); err != nil {
		t.Fatalf("correct response rejected: %v", err)
	}
	if err := x.Check(gen, http.StatusOK, body("{ ⇕(w1,r1,w0,r0) }", true)); err == nil {
		t.Error("a wrong test passed")
	}
	if err := x.Check(gen, http.StatusOK, body("{ ⇕(w0,r0,w1,r1) }", false)); err == nil {
		t.Error("a response not from the cache passed")
	}
	if err := x.Check(gen, http.StatusServiceUnavailable, nil); err == nil {
		t.Error("a shed request passed")
	}
	kt, _ := march.Known(VerifyTest)
	rep, err := marchgen.Verify(kt.Test, "SAF")
	if err != nil {
		t.Fatal(err)
	}
	vb, _ := encode(serve.VerifyResponse{RequestID: "r2", Test: rep.Test.String(), Complexity: rep.Complexity, Complete: !rep.Complete, ElapsedUS: 3})
	if err := x.Check(Request{Verify: true, List: "SAF"}, http.StatusOK, vb); err == nil {
		t.Error("a verify body disagreeing with marchgen.Verify passed")
	}
}

func TestServeMixEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("computes the Table 3 lists")
	}
	ctx := context.Background()
	sm, err := SetupServeMix(ctx, root, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Server.Close()
	if sm.Engine.OpsTotal != 36 {
		t.Errorf("march_ops_total = %d, want 36", sm.Engine.OpsTotal)
	}
	run := sm.Server.Drive(ctx, Load{Stream: sm.Stream, MinSamples: 200, Expect: sm.Expect})
	if run.Failed != 0 || run.Attempted < 200 || run.FromCache == 0 || len(run.PerEndpoint["verify"]) == 0 {
		t.Errorf("drive: attempted %d failed %d from_cache %d verifies %d (first error %v)",
			run.Attempted, run.Failed, run.FromCache, len(run.PerEndpoint["verify"]), run.FirstErr)
	}
}
