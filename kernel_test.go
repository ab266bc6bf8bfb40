package marchgen

import (
	"context"
	"testing"

	"marchgen/internal/experiments"
	"marchgen/internal/obs"
)

// TestTable3KernelEngaged is the kernel-engine guard: generating each of
// the paper's Table 3 fault lists cold must evaluate coverage on the
// bit-parallel kernel (sim.kernel_traces > 0) and never fall back to the
// scalar engine (sim.scalar_fallbacks == 0). A silent fallback keeps every
// output byte-identical, so only these counters show it.
func TestTable3KernelEngaged(t *testing.T) {
	for _, spec := range experiments.Table3Spec() {
		res, err := GenerateCtx(context.Background(), spec.Faults, WithoutCache(), WithMetrics())
		if err != nil {
			t.Fatalf("%s: %v", spec.Faults, err)
		}
		traces := res.Stats.Metrics[obs.CounterKernelTraces]
		fallbacks := res.Stats.Metrics[obs.CounterScalarFallbacks]
		if traces <= 0 || fallbacks != 0 {
			t.Errorf("%s: kernel not engaged (%s=%d, %s=%d)", spec.Faults,
				obs.CounterKernelTraces, traces, obs.CounterScalarFallbacks, fallbacks)
		}
	}
}
