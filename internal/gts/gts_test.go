package gts

import (
	"testing"

	"marchgen/fault"
	"marchgen/fsm"
	"marchgen/internal/sim"
	"marchgen/internal/simd"
	"marchgen/march"
)

// patternsOf flattens the first-BFE patterns of a fault list in instance
// order.
func patternsOf(t *testing.T, list string) ([]fsm.Pattern, []fault.Instance) {
	t.Helper()
	models, err := fault.ParseList(list)
	if err != nil {
		t.Fatal(err)
	}
	insts := fault.Instances(models)
	var pats []fsm.Pattern
	for _, inst := range insts {
		pats = append(pats, inst.BFEs[0].Pattern)
	}
	return pats, insts
}

// bestValid assembles the patterns and returns the cheapest candidate that
// fully covers the instances, or nil.
func bestValid(t *testing.T, pats []fsm.Pattern, insts []fault.Instance) *march.Test {
	t.Helper()
	cands, err := Assemble(pats, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var best *march.Test
	for _, c := range cands {
		cov, err := sim.Evaluate(c, insts)
		if err != nil || !cov.Complete() {
			continue
		}
		if best == nil || c.Complexity() < best.Complexity() {
			best = c
		}
	}
	return best
}

func TestAssembleSAF(t *testing.T) {
	pats, insts := patternsOf(t, "SAF")
	best := bestValid(t, pats, insts)
	if best == nil {
		t.Fatal("no valid candidate for SAF")
	}
	if got := best.Complexity(); got != 4 {
		t.Errorf("SAF assembly: %s (%dn), want 4n", best, got)
	}
}

func TestAssembleSAFTF(t *testing.T) {
	// TF patterns subsume the SAF ones; feeding TF alone suffices for both
	// models (the pipeline's subsumption pass arranges this).
	pats, _ := patternsOf(t, "TF")
	_, insts := patternsOf(t, "SAF,TF")
	best := bestValid(t, pats, insts)
	if best == nil {
		t.Fatal("no valid candidate for SAF+TF")
	}
	if got := best.Complexity(); got != 5 {
		t.Errorf("SAF+TF assembly: %s (%dn), want 5n", best, got)
	}
}

// TestAssembleSection4Example reproduces the paper's Section 4 worked
// example: the fault list {⟨↑;1⟩, ⟨↑;0⟩} yields an 8n non-redundant March
// test.
func TestAssembleSection4Example(t *testing.T) {
	pats, insts := patternsOf(t, "CFid<u,1>,CFid<u,0>")
	// Order the four patterns along the optimal TPG path (TP4, TP1 chain
	// with weight 0; TP3, TP2 chain with weight 0).
	ordered := []fsm.Pattern{pats[1], pats[2], pats[0], pats[3]}
	best := bestValid(t, ordered, insts)
	if best == nil {
		t.Fatal("no valid candidate for the Section 4 example")
	}
	if got := best.Complexity(); got != 8 {
		t.Errorf("Section 4 example: %s (%dn), want 8n", best, got)
	}
}

func TestNormaliseShapes(t *testing.T) {
	// Single-cell write pattern.
	p := fsm.NewPattern(fsm.S(march.Zero, march.X), []fsm.Input{fsm.Wr(fsm.CellI, march.One)}, fsm.Rd(fsm.CellI))
	s, err := normalise(p)
	if err != nil || s.kind != shapeSingle || !s.hasExcite || s.a != march.Zero || s.b != march.One {
		t.Errorf("single shape: %+v, %v", s, err)
	}
	// Pair pattern.
	p = fsm.NewPattern(fsm.S(march.Zero, march.One), []fsm.Input{fsm.Wr(fsm.CellI, march.One)}, fsm.Rd(fsm.CellJ))
	s, err = normalise(p)
	if err != nil || s.kind != shapePair || !s.aggLow || s.b != march.One {
		t.Errorf("pair shape: %+v, %v", s, err)
	}
	// Retention pattern.
	p = fsm.NewPattern(fsm.S(march.One, march.X), []fsm.Input{fsm.Wait}, fsm.Rd(fsm.CellI))
	s, err = normalise(p)
	if err != nil || s.kind != shapeRetention || s.a != march.One {
		t.Errorf("retention shape: %+v, %v", s, err)
	}
	// Observation-only pattern.
	p = fsm.NewPattern(fsm.S(march.Zero, march.X), nil, fsm.Rd(fsm.CellI))
	s, err = normalise(p)
	if err != nil || s.kind != shapeSingle || s.hasExcite {
		t.Errorf("observation-only shape: %+v, %v", s, err)
	}
	// Mixed-state observation-only patterns are rejected.
	p = fsm.NewPattern(fsm.S(march.Zero, march.One), nil, fsm.Rd(fsm.CellI))
	if _, err = normalise(p); err == nil {
		t.Error("mixed observation-only pattern must be rejected")
	}
}

// stateOf wraps a finished March test as a construction with no pending
// read.
func stateOf(t *march.Test) *state {
	return &state{elems: t.Elements, pre: march.X, end: march.X}
}

func TestCoveredState(t *testing.T) {
	lut := func(p fsm.Pattern) *simd.Compiled { return simd.Compile(syntheticMachine(p)) }
	// MATS++ covers the up-transition fault pattern...
	matspp, _ := march.Known("MATS++")
	tfUp := fsm.NewPattern(fsm.S(march.Zero, march.X), []fsm.Input{fsm.Wr(fsm.CellI, march.One)}, fsm.Rd(fsm.CellI))
	if !coveredState(stateOf(matspp.Test), false, lut(tfUp)) {
		t.Error("MATS++ must cover the TF<u> pattern")
	}
	// ...and MATS+ does not cover the down-transition one.
	matsp, _ := march.Known("MATS+")
	tfDown := fsm.NewPattern(fsm.S(march.One, march.X), []fsm.Input{fsm.Wr(fsm.CellI, march.Zero)}, fsm.Rd(fsm.CellI))
	if coveredState(stateOf(matsp.Test), false, lut(tfDown)) {
		t.Error("MATS+ must not cover the TF<d> pattern")
	}
	// A pending read observes MATS+'s closing w0 transition: the trailing
	// ⇕(r0) that closed() would add realises TF<d>.
	pending := stateOf(matsp.Test)
	pending.end = march.Zero
	if !coveredState(pending, true, lut(tfDown)) {
		t.Error("MATS+ with a pending r0 must cover the TF<d> pattern")
	}
	if coveredState(&state{pre: march.X, end: march.X}, true, lut(tfDown)) {
		t.Error("empty constructions cover nothing")
	}
	down := lut(tfDown)
	if allocs := testing.AllocsPerRun(10, func() { coveredState(pending, true, down) }); allocs > 0 {
		t.Errorf("coveredState allocates %.0f objects per call, want none", allocs)
	}
}

func TestAssembleRejectsUnsupported(t *testing.T) {
	// A pattern with a two-operation excitation is outside the template
	// grammar.
	p := fsm.Pattern{
		Init:    fsm.S(march.Zero, march.Zero),
		Excite:  []fsm.Input{fsm.Wr(fsm.CellI, march.One), fsm.Wr(fsm.CellJ, march.One)},
		Observe: fsm.Rd(fsm.CellJ),
	}
	if _, err := Assemble([]fsm.Pattern{p}, DefaultOptions()); err == nil {
		t.Error("multi-op excitation must be rejected")
	}
}

func TestAssembleRetention(t *testing.T) {
	pats, insts := patternsOf(t, "DRF")
	best := bestValid(t, pats, insts)
	if best == nil {
		t.Fatal("no valid candidate for DRF")
	}
	if best.Delays() < 2 {
		t.Errorf("DRF test needs two delay elements: %s", best)
	}
	if got := best.Complexity(); got > 5 {
		t.Errorf("DRF assembly too long: %s (%dn)", best, got)
	}
}

func TestStatePrimitives(t *testing.T) {
	st := &state{pre: march.X, end: march.X}
	if st.open(march.Up) {
		t.Error("open must fail on unknown memory")
	}
	if st.appendOp(march.R0) {
		t.Error("leading read append must fail on empty state")
	}
	if !st.appendOp(march.W1) || st.end != march.One {
		t.Error("write append must succeed and set end")
	}
	if !st.open(march.Down) || !st.leadRead || st.pre != march.One {
		t.Error("open after write must lead with r1")
	}
	if !st.forceDir(march.Down) {
		t.Error("forcing the same direction must succeed")
	}
	if st.forceDir(march.Up) {
		t.Error("conflicting direction must fail")
	}
	c := st.clone()
	c.elems[0].Ops[0] = march.W0
	if st.elems[0].Ops[0] != march.W1 {
		t.Error("clone must deep-copy")
	}
}
