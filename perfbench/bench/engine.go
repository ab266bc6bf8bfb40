package bench

import (
	"context"
	"fmt"
	"time"

	"marchgen"
)

// VerifyCells is the size of the independent n-cell simulation every
// generated test must pass.
const VerifyCells = 8

// Engine is an engine workload: its fault lists in seeded order and the
// reference output every later generation is checked against.
type Engine struct {
	Lists []string
	// Ref maps a list to the test its first generation produced (after
	// that test passed the golden and 8-cell checks).
	Ref map[string]string
	// OpsTotal is the sum of the reference tests' complexities (the
	// paper's kn) over the distinct lists.
	OpsTotal int
	golden   map[string]Golden
}

// NewEngine loads an engine workload's lists; root is the repository root.
func NewEngine(root, workload string, seed int64) (*Engine, error) {
	e := &Engine{Ref: map[string]string{}}
	switch workload {
	case "table3-cold":
		rows, err := ReadGolden(root)
		if err != nil {
			return nil, err
		}
		e.golden = map[string]Golden{}
		for _, g := range rows {
			e.Lists = append(e.Lists, g.Faults)
			e.golden[g.Faults] = g
		}
	case "simple-lists-cold":
		e.Lists = SimpleLists()
	default:
		return nil, fmt.Errorf("not an engine workload: %q", workload)
	}
	e.Lists = Shuffled(e.Lists, seed)
	return e, nil
}

// Generate is one engine op: a cold generation at default options.
func Generate(ctx context.Context, list string) (*marchgen.Result, error) {
	return marchgen.GenerateCtx(ctx, list, marchgen.WithoutCache())
}

// Check reports whether a generation of list is correct. A run that
// errors or degrades fails. The first result for a list must match the
// golden file (where the list has a row) and be complete under the
// independent 8-cell simulator; it then becomes the reference, and every
// later result must repeat its bytes.
func (e *Engine) Check(list string, res *marchgen.Result, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", list, err)
	}
	if res.Stats.Degraded {
		return fmt.Errorf("%s: degraded run (%v)", list, res.Stats.DegradedStages)
	}
	got := res.Test.String()
	if ref, ok := e.Ref[list]; ok {
		if got != ref {
			return fmt.Errorf("%s: generated %s, first pass gave %s", list, got, ref)
		}
		return nil
	}
	if g, ok := e.golden[list]; ok && (got != g.Test || res.Complexity != g.Complexity) {
		return fmt.Errorf("%s: generated %s (%dn), golden file has %s (%dn)", list, got, res.Complexity, g.Test, g.Complexity)
	}
	rep, err := marchgen.VerifyN(res.Test, list, VerifyCells)
	if err != nil {
		return fmt.Errorf("%s: %d-cell verify: %w", list, VerifyCells, err)
	}
	if !rep.Complete {
		return fmt.Errorf("%s: %s misses %v on the %d-cell simulator", list, got, rep.Missed, VerifyCells)
	}
	e.Ref[list] = got
	e.OpsTotal += res.Complexity
	return nil
}

// WarmUp runs one checked pass over every list. It fixes the reference
// outputs and lets lazy initialisation finish before anything is timed.
func (e *Engine) WarmUp(ctx context.Context) error {
	for _, l := range e.Lists {
		res, err := Generate(ctx, l)
		if err := e.Check(l, res, err); err != nil {
			return err
		}
	}
	return nil
}

// Call is one timed generation: its wall time, and its Run time, the
// wall time without its share of the steal (Steal) counted during its
// pass.
type Call struct{ Wall, Run time.Duration }

// MeanRun is the mean Run of the calls; zero for none.
func MeanRun(calls []Call) time.Duration {
	if len(calls) == 0 {
		return 0
	}
	var sum time.Duration
	for _, c := range calls {
		sum += c.Run
	}
	return sum / time.Duration(len(calls))
}

// runTimes takes a pass's steal out of its calls' wall times, in
// proportion to each call's wall time. Steal moves in ticks of 10 ms
// that land whole on whichever call is running, while the steal itself
// is spread over the pass, so a short call could otherwise lose more
// than it ran. The steal is capped at the summed wall time: one caller
// on one CPU cannot lose more than it waited. It returns the calls and
// the pass's Run time.
func runTimes(walls []time.Duration, steal time.Duration) ([]Call, time.Duration) {
	var wall time.Duration
	for _, w := range walls {
		wall += w
	}
	keep := 1.0
	if wall > 0 {
		keep = 1 - float64(min(steal, wall))/float64(wall)
	}
	calls := make([]Call, len(walls))
	for i, w := range walls {
		calls[i] = Call{Wall: w, Run: time.Duration(float64(w) * keep)}
	}
	return calls, wall - min(steal, wall)
}

// EngineRun is what a timed engine loop measured.
type EngineRun struct {
	Passes, Attempted, Failed int
	// PassRun is each pass's Run time, the generation calls alone;
	// PassCPU is the process CPU time each pass took.
	PassRun, PassCPU []time.Duration
	PerList          map[string][]Call
	// Steal is the steal counted during the generation calls.
	Steal time.Duration
	Usage Usage
	// FirstErr is the first failed check, for the report.
	FirstErr error
}

// RunEngine generates every list, one call at a time, in whole passes
// until d has elapsed (at least one pass). Checks run outside the timed
// calls.
func (e *Engine) RunEngine(ctx context.Context, d time.Duration) EngineRun {
	r := EngineRun{PerList: map[string][]Call{}}
	u0 := ReadUsage()
	deadline := time.Now().Add(d)
	walls := make([]time.Duration, len(e.Lists))
	for r.Passes == 0 || time.Now().Before(deadline) {
		var steal time.Duration
		cpu0 := CPUTime()
		for i, l := range e.Lists {
			s0 := Steal()
			t0 := time.Now()
			res, err := Generate(ctx, l)
			walls[i] = time.Since(t0)
			steal += Steal() - s0
			r.Attempted++
			if err := e.Check(l, res, err); err != nil {
				r.Failed++
				if r.FirstErr == nil {
					r.FirstErr = err
				}
			}
		}
		r.PassCPU = append(r.PassCPU, CPUTime()-cpu0)
		calls, run := runTimes(walls, steal)
		for i, l := range e.Lists {
			r.PerList[l] = append(r.PerList[l], calls[i])
		}
		r.PassRun = append(r.PassRun, run)
		r.Steal += steal
		r.Passes++
	}
	r.Usage = ReadUsage().Sub(u0)
	return r
}

// OpsPerSecond is passes per second of Run time: one over the mean
// pass.
func (r EngineRun) OpsPerSecond() float64 {
	var sum time.Duration
	for _, p := range r.PassRun {
		sum += p
	}
	return float64(r.Passes) / sum.Seconds()
}

// ListTimes returns each list's MeanRun, in list order.
func (r EngineRun) ListTimes(lists []string) []time.Duration {
	out := make([]time.Duration, len(lists))
	for i, l := range lists {
		out[i] = MeanRun(r.PerList[l])
	}
	return out
}
