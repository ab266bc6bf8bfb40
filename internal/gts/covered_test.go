package gts

import (
	"sync"
	"testing"

	"marchgen/fault"
	"marchgen/fsm"
	"marchgen/internal/atsp"
	"marchgen/internal/sim"
	"marchgen/internal/simd"
	"marchgen/internal/tpg"
	"marchgen/march"
)

// coveredReference is the scalar reference for coveredState: close the
// construction into a March test, trace both ⇕ resolutions with sim.Trace
// and run fsm.Detects against the synthetic machine.
func coveredReference(st *state, needRead bool, m fsm.Machine) bool {
	c := st.clone()
	c.needRead = needRead
	t := c.closed()
	if len(t.Elements) == 0 {
		return false
	}
	for _, dir := range []march.Order{march.Up, march.Down} {
		res := make([]march.Order, len(t.Elements))
		for k, e := range t.Elements {
			res[k] = e.Order
			if e.Order == march.Any {
				res[k] = dir
			}
		}
		trace, _ := sim.Trace(t, res)
		if !fsm.Detects(m, trace) {
			return false
		}
	}
	return true
}

// orderingsOf lists the pattern orderings the generation pipeline assembles
// for a fault list: every distinct reduced node set of the list's class
// selections, ordered along each of its optimal TPG visits (up to eight),
// forward and reversed.
func orderingsOf(t *testing.T, list string) [][]fsm.Pattern {
	t.Helper()
	models, err := fault.ParseList(list)
	if err != nil {
		t.Fatal(err)
	}
	classes := tpg.Classes(fault.Instances(models))
	seen := map[string]bool{}
	var out [][]fsm.Pattern
	for _, sel := range tpg.Selections(classes, 64) {
		nodes := tpg.Reduce(classes, sel)
		var paths [][]int
		if len(nodes) == 1 {
			paths = [][]int{{0}}
		} else {
			g := tpg.New(nodes)
			starts := make([]int, len(nodes))
			for b := range nodes {
				starts[b] = g.StartCost(b)
			}
			paths, _, err = atsp.OptimalPathsOpt(nil, atsp.Matrix(g.Weight), starts, 8, atsp.PathOptions{})
			if err != nil {
				t.Fatalf("%s: %v", list, err)
			}
		}
		for _, p := range paths {
			fwd := make([]fsm.Pattern, len(p))
			bwd := make([]fsm.Pattern, len(p))
			for k, v := range p {
				fwd[k] = nodes[v].Pattern
				bwd[len(p)-1-k] = nodes[v].Pattern
			}
			for _, o := range [][]fsm.Pattern{fwd, bwd} {
				sig := ""
				for _, pat := range o {
					sig += pat.String() + ";"
				}
				if !seen[sig] {
					seen[sig] = true
					out = append(out, o)
				}
			}
		}
	}
	return out
}

// checkBeam runs the assembly beam over one ordering and compares the
// LUT coverage check with the scalar reference for every state the beam
// reaches, for the state's own pending-read flag and for a pending read.
// It returns the number of comparisons.
func checkBeam(t *testing.T, patterns []fsm.Pattern) int {
	t.Helper()
	shapes, err := compileShapes(patterns)
	if err != nil {
		return 0 // the pipeline skips orderings gts cannot realise
	}
	checks := 0
	beam := []*state{{pre: march.X, end: march.X}}
	var x expander
	for _, s := range shapes {
		m := syntheticMachine(s.pattern)
		x.out = x.out[:0]
		for _, st := range beam {
			for _, needRead := range []bool{st.needRead, true} {
				if got, want := coveredState(st, needRead, s.lut), coveredReference(st, needRead, m); got != want {
					c := st.clone()
					c.needRead = needRead
					t.Fatalf("%s on %s: coveredState %v, reference %v", s.pattern, c.closed(), got, want)
				}
				checks++
			}
			x.expand(st, s)
		}
		if len(x.out) == 0 {
			break
		}
		beam = prune(x.out, DefaultOptions().BeamWidth)
	}
	return checks
}

// TestCoveredMatchesReference holds the LUT coverage check to the scalar
// reference on every beam state reached while assembling every ordering of
// the six Table 3 lists and of every fault-library singleton.
func TestCoveredMatchesReference(t *testing.T) {
	lists := []string{"SAF", "SAF,TF", "SAF,TF,ADF", "SAF,TF,ADF,CFin", "SAF,TF,ADF,CFin,CFid", "CFin"}
	for _, name := range fault.ModelNames() {
		if name != "SAF" && name != "CFin" {
			lists = append(lists, name)
		}
	}
	for _, list := range lists {
		orders, checks := orderingsOf(t, list), 0
		for _, o := range orders {
			checks += checkBeam(t, o)
		}
		if checks == 0 {
			t.Errorf("%s: no coverage check compared", list)
		}
		t.Logf("%s: %d orderings, %d checks", list, len(orders), checks)
	}
}

// libraryPatterns is every distinct test pattern of the fault library.
var libraryPatterns = sync.OnceValue(func() []fsm.Pattern {
	seen := map[string]bool{}
	var out []fsm.Pattern
	for _, name := range fault.ModelNames() {
		m, err := fault.Parse(name)
		if err != nil {
			panic(err)
		}
		for _, inst := range fault.Instances([]fault.Model{m}) {
			for _, b := range inst.BFEs {
				if k := b.Pattern.String(); !seen[k] {
					seen[k] = true
					out = append(out, b.Pattern)
				}
			}
		}
	}
	return out
})

// fuzzState decodes a construction: the first byte sets the pending-read
// flag (bit 0) and the chain value (bits 1-2: 0, 1 or X); then each
// element takes a header byte — 7 mod 8 is a Del element, otherwise the
// low bits pick the order (⇕, ⇑, ⇓) and bits 3-4 the op count less one —
// followed by one byte per op (bit 0: write, bit 1: data).
func fuzzState(data []byte) *state {
	st := &state{pre: march.X, end: march.X}
	if len(data) == 0 {
		return st
	}
	st.needRead = data[0]&1 != 0
	st.end = march.Bit((data[0] >> 1) % 3)
	data = data[1:]
	for len(data) > 0 && len(st.elems) < 12 {
		h := data[0]
		data = data[1:]
		if h%8 == 7 {
			st.elems = append(st.elems, march.DelayElement())
			continue
		}
		e := march.Element{Order: march.Order(h % 3)}
		for n := 1 + int(h>>3)%4; n > 0 && len(data) > 0; n-- {
			e.Ops = append(e.Ops, march.Op{Kind: march.OpKind(data[0] & 1), Data: march.Bit(data[0] >> 1 & 1)})
			data = data[1:]
		}
		st.elems = append(st.elems, e)
	}
	return st
}

// FuzzCoveredEquivalence compares the LUT coverage check with the scalar
// reference on random element sequences against every library pattern.
func FuzzCoveredEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x01})                         // ⇕(w0)
	f.Add([]byte{0x01, 0x00, 0x01, 0x08, 0x00, 0x03})       // ⇕(w0); ⇕(r0,w1), pending r1
	f.Add([]byte{0x02, 0x00, 0x01, 0x07, 0x01, 0x00})       // ⇕(w0); Del; ⇑(r0)
	f.Add([]byte{0x03, 0x00, 0x03, 0x0A, 0x02, 0x01, 0x00}) // ⇕(w1); ⇓(r1,w0), pending r0
	pats := libraryPatterns()
	machines := make([]fsm.Machine, len(pats))
	luts := make([]*simd.Compiled, len(pats))
	for k, p := range pats {
		machines[k] = syntheticMachine(p)
		luts[k] = simd.Compile(machines[k])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st := fuzzState(data)
		for k, p := range pats {
			if got, want := coveredState(st, st.needRead, luts[k]), coveredReference(st, st.needRead, machines[k]); got != want {
				t.Fatalf("%s on %s: coveredState %v, reference %v", p, st.closed(), got, want)
			}
		}
	})
}
