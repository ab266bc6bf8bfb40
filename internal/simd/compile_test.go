package simd

import (
	"math/rand"
	"testing"

	"marchgen/fsm"
	"marchgen/march"
)

// allStates lists the nine two-cell ternary states.
func allStates() []fsm.State {
	bits := []march.Bit{march.Zero, march.One, march.X}
	var out []fsm.State
	for _, i := range bits {
		for _, j := range bits {
			out = append(out, fsm.S(i, j))
		}
	}
	return out
}

// allInputs lists the seven input symbols.
func allInputs() []fsm.Input {
	return []fsm.Input{
		fsm.Wr(fsm.CellI, march.Zero), fsm.Wr(fsm.CellI, march.One),
		fsm.Wr(fsm.CellJ, march.Zero), fsm.Wr(fsm.CellJ, march.One),
		fsm.Rd(fsm.CellI), fsm.Rd(fsm.CellJ), fsm.Wait,
	}
}

// testMachines returns the fault-free machine and one single-deviation
// machine of each pattern shape the assembler compiles: a single-cell
// transition, an aggressor/victim pair, a retention (wait) excitation and
// an observation-only read deviation.
func testMachines() []fsm.Machine {
	zx, oz := fsm.S(march.Zero, march.X), fsm.S(march.One, march.Zero)
	return []fsm.Machine{
		fsm.Good(),
		fsm.WithDeviations("single", fsm.TransitionDev(zx, fsm.Wr(fsm.CellI, march.One), fsm.Unknown.With(fsm.CellI, march.Zero))),
		fsm.WithDeviations("pair", fsm.TransitionDev(oz, fsm.Wr(fsm.CellI, march.Zero), fsm.Unknown.With(fsm.CellJ, march.One))),
		fsm.WithDeviations("retention", fsm.TransitionDev(fsm.S(march.One, march.X), fsm.Wait, fsm.Unknown.With(fsm.CellI, march.Zero))),
		fsm.WithDeviations("observation", fsm.OutputDev(zx, fsm.Rd(fsm.CellI), march.One)),
	}
}

func TestCompileReproducesMachine(t *testing.T) {
	for _, m := range testMachines() {
		c := Compile(m)
		if c.Name != m.Name {
			t.Errorf("compiled name %q, want %q", c.Name, m.Name)
		}
		for _, s := range allStates() {
			for _, in := range allInputs() {
				si, ii := StateIndex(s), InputIndex(in)
				if got, want := StateAt(int(c.Next[si][ii])), m.Next(s, in); got != want {
					t.Errorf("%s: Next(%s, %s) = %s, machine says %s", m.Name, s, in, got, want)
				}
				if got, want := c.Out[si][ii], m.Output(s, in); got != want {
					t.Errorf("%s: Out(%s, %s) = %s, machine says %s", m.Name, s, in, got, want)
				}
			}
		}
	}
}

func TestStateIndexRoundTrip(t *testing.T) {
	seen := map[int]bool{}
	for _, s := range allStates() {
		idx := StateIndex(s)
		if idx < 0 || idx >= NumStates || seen[idx] {
			t.Errorf("StateIndex(%s) = %d: out of range or not unique", s, idx)
		}
		seen[idx] = true
		if back := StateAt(idx); back != s {
			t.Errorf("StateAt(StateIndex(%s)) = %s", s, back)
		}
	}
	for idx := 0; idx < NumStates; idx++ {
		if got := StateIndex(StateAt(idx)); got != idx {
			t.Errorf("StateIndex(StateAt(%d)) = %d", idx, got)
		}
	}
	for k, in := range allInputs() {
		if got := InputIndex(in); got != k {
			t.Errorf("InputIndex(%s) = %d, want %d", in, got, k)
		}
		if back := inputAt(k); back != in {
			t.Errorf("inputAt(%d) = %s, want %s", k, back, in)
		}
	}
}

func TestExpectedOutputsMatchesScalarWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inputs := allInputs()
	good := fsm.Good()
	for rep := 0; rep < 50; rep++ {
		trace := make([]fsm.Input, rng.Intn(40))
		for k := range trace {
			trace[k] = inputs[rng.Intn(len(inputs))]
		}
		got := ExpectedOutputs(EncodeTrace(trace))
		if len(got) != len(trace) {
			t.Fatalf("ExpectedOutputs returned %d outputs for %d inputs", len(got), len(trace))
		}
		s := fsm.Unknown
		for k, in := range trace {
			if want := good.Output(s, in); got[k] != want {
				t.Fatalf("trace %v position %d: expected output %s, scalar walk %s", trace, k, got[k], want)
			}
			s = good.Next(s, in)
		}
	}
}
