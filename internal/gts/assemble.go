package gts

import (
	"fmt"
	"slices"
	"sort"

	"marchgen/fsm"
	"marchgen/internal/budget"
	"marchgen/internal/simd"
	"marchgen/march"
)

// Options tunes the assembler.
type Options struct {
	// BeamWidth bounds the number of partial constructions kept per step.
	BeamWidth int
	// MaxCandidates bounds the number of finished tests returned.
	MaxCandidates int
}

// DefaultOptions returns the assembler defaults.
func DefaultOptions() Options { return Options{BeamWidth: 48, MaxCandidates: 12} }

// state is a partial March construction: a list of elements of which the
// last one is still open for appends, plus the uniform memory value before
// (pre) and after (end) the open element's operations.
type state struct {
	elems    []march.Element
	pre, end march.Bit
	leadRead bool // the open element starts with a read-and-verify
	needRead bool // excitations are pending a future leading read
	// locked marks an open element whose closing value is load-bearing (a
	// case-(ii) pair realisation): further appends must first open a new
	// element instead of growing it.
	locked bool
	cost   int
}

// clone deep-copies the state with two allocations: all ops are copied
// into one backing buffer, each element's slice capped at its own ops so
// an append to one can never write into the next.
func (st *state) clone() *state {
	c := *st
	c.elems = make([]march.Element, len(st.elems))
	n := 0
	for _, e := range st.elems {
		n += len(e.Ops)
	}
	buf := make([]march.Op, 0, n)
	for k, e := range st.elems {
		a := len(buf)
		buf = append(buf, e.Ops...)
		c.elems[k] = march.Element{Order: e.Order, Delay: e.Delay, Ops: buf[a:len(buf):len(buf)]}
	}
	return &c
}

// key is the beam deduplication signature: a fixed-width binary packing
// of the construction. Each element contributes a header byte with the
// high bit set (order and delay in the low bits) followed by one byte per
// op (kind and data in the low bits, high bit clear, so headers
// self-delimit); a trailing 0xFF marks a pending observation. This packs
// the same information as the former element-String concatenation at a
// fraction of the bytes and without the formatter in the beam's hot loop.
func (st *state) key() string {
	n := 1 + len(st.elems)
	for _, e := range st.elems {
		n += len(e.Ops)
	}
	buf := make([]byte, 0, n)
	for _, e := range st.elems {
		h := byte(0x80) | byte(e.Order)<<1
		if e.Delay {
			h |= 1
		}
		buf = append(buf, h)
		for _, op := range e.Ops {
			buf = append(buf, byte(op.Kind)<<2|byte(op.Data))
		}
	}
	if st.needRead {
		buf = append(buf, 0xFF)
	}
	return string(buf)
}

// closed finalises the construction: pending excitations get their
// observing read as a trailing ⇕(r) element.
func (st *state) closed() *march.Test {
	c := st.clone()
	if c.needRead && c.end.Known() {
		c.elems = append(c.elems, march.Elem(march.Any, march.Op{Kind: march.Read, Data: c.end}))
	}
	return &march.Test{Elements: c.elems}
}

// appendOp appends an operation to the open element (creating the initial
// element when none exists, and opening a fresh element when the current
// one is locked). Read appends require the chain value to match.
func (st *state) appendOp(op march.Op) bool {
	if st.locked && !st.open(march.Any) {
		return false
	}
	if op.IsRead() && st.end != op.Data {
		return false
	}
	if len(st.elems) == 0 {
		if op.IsRead() {
			return false
		}
		st.elems = append(st.elems, march.Elem(march.Any))
		st.pre, st.end, st.leadRead = march.X, march.X, false
	}
	last := &st.elems[len(st.elems)-1]
	if last.Delay {
		return false
	}
	last.Ops = append(last.Ops, op)
	if op.IsWrite() {
		st.end = op.Data
	}
	st.cost++
	return true
}

// drive makes the open element's chain value equal v (appending a write if
// needed). It reports failure only when v is unknown.
func (st *state) drive(v march.Bit) bool {
	if !v.Known() || st.end == v {
		return true
	}
	return st.appendOp(march.Op{Kind: march.Write, Data: v})
}

// open closes the current element and starts a new one leading with a
// read-and-verify of the memory's uniform value, which observes every
// pending excitation.
func (st *state) open(dir march.Order) bool {
	if !st.end.Known() || len(st.elems) == 0 {
		return false
	}
	// Room for the ops a template appends after the leading read.
	ops := append(make([]march.Op, 0, 4), march.Op{Kind: march.Read, Data: st.end})
	st.elems = append(st.elems, march.Elem(dir, ops...))
	st.pre = st.end
	st.leadRead = true
	st.needRead = false
	st.locked = false
	st.cost++
	return true
}

// forceDir constrains the open element's addressing order, failing on
// conflict.
func (st *state) forceDir(dir march.Order) bool {
	if len(st.elems) == 0 {
		return false
	}
	last := &st.elems[len(st.elems)-1]
	if last.Order == march.Any {
		last.Order = dir
		return true
	}
	return last.Order == dir
}

// delay closes the current element with a Del element (the wait symbol T).
func (st *state) delay() bool {
	if len(st.elems) == 0 || !st.end.Known() {
		return false
	}
	st.elems = append(st.elems, march.DelayElement())
	return true
}

// Assemble converts the ordered test patterns of an optimal TPG visit into
// candidate March tests, cheapest first. Every returned test realises all
// patterns structurally; the caller must still validate fault coverage
// against the real fault machines.
func Assemble(patterns []fsm.Pattern, opts Options) ([]*march.Test, error) {
	return AssembleMeter(nil, patterns, opts)
}

// AssembleMeter is Assemble under a budget meter: the beam aborts with a
// typed error when the caller's context is canceled (nil meter: unbounded).
func AssembleMeter(mt *budget.Meter, patterns []fsm.Pattern, opts Options) ([]*march.Test, error) {
	if opts.BeamWidth <= 0 {
		opts = DefaultOptions()
	}
	shapes, err := compileShapes(patterns)
	if err != nil {
		return nil, err
	}
	beam := []*state{{pre: march.X, end: march.X}}
	var x expander
	for _, s := range shapes {
		if err := mt.CheckNow(); err != nil {
			return nil, err
		}
		x.out = x.out[:0]
		for _, st := range beam {
			if err := mt.Check(); err != nil {
				return nil, err
			}
			x.expand(st, s)
		}
		if len(x.out) == 0 {
			return nil, fmt.Errorf("gts: no construction realises pattern %s", s.pattern)
		}
		beam = prune(x.out, opts.BeamWidth)
	}
	var out []*march.Test
	seen := map[string]bool{}
	for _, st := range beam {
		t := st.closed()
		sig := t.String()
		if seen[sig] {
			continue
		}
		seen[sig] = true
		out = append(out, t)
		if len(out) >= opts.MaxCandidates {
			break
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("gts: assembly produced no candidates")
	}
	return out, nil
}

// compileShapes normalises the patterns and compiles each one's synthetic
// machine for the coverage check.
func compileShapes(patterns []fsm.Pattern) ([]shape, error) {
	shapes := make([]shape, len(patterns))
	for k, p := range patterns {
		s, err := normalise(p)
		if err != nil {
			return nil, err
		}
		s.lut = simd.Compile(syntheticMachine(p))
		shapes[k] = s
	}
	return shapes, nil
}

// prune sorts by cost (ties: fewer elements) and deduplicates.
func prune(states []*state, width int) []*state {
	sort.SliceStable(states, func(a, b int) bool {
		if states[a].cost != states[b].cost {
			return states[a].cost < states[b].cost
		}
		return len(states[a].elems) < len(states[b].elems)
	})
	seen := map[string]bool{}
	var out []*state
	for _, st := range states {
		k := st.key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, st)
		if len(out) >= width {
			break
		}
	}
	return out
}

// expander applies rewrite templates to beam states, appending the
// successful constructions to out. One expander serves a whole assembly,
// so its scratch buffers are allocated once.
type expander struct {
	st  *state
	out []*state
	// scratch is the state the current template mutates; elems and ops
	// are its reusable buffers.
	scratch state
	elems   []march.Element
	ops     []march.Op
}

// try runs one template on a fresh scratch copy of the state and keeps a
// deep clone of the result when the template succeeds. Templates only
// append elements and modify the open one, so the scratch shares the
// closed elements' ops with the state and copies only the open element's.
func (x *expander) try(template func(c *state) bool) {
	// Reserve room for what a template adds (up to three elements and
	// four ops), so the buffers rarely grow.
	x.elems = append(slices.Grow(x.elems[:0], len(x.st.elems)+3), x.st.elems...)
	if n := len(x.elems); n > 0 {
		last := x.elems[n-1].Ops
		x.ops = append(slices.Grow(x.ops[:0], len(last)+4), last...)
		x.elems[n-1].Ops = x.ops
	}
	x.scratch = *x.st
	x.scratch.elems = x.elems
	if template(&x.scratch) {
		x.out = append(x.out, x.scratch.clone())
	}
}

// pend marks the open element's excitation as awaiting a future leading
// read. The element is locked: a later write would overwrite the pending
// corruption before it is observed.
func (st *state) pend() bool {
	st.needRead, st.locked = true, true
	return true
}

// expand applies every rewrite template of the shape to the state.
func (x *expander) expand(st *state, s shape) {
	x.st = st
	// Minimisation: skip patterns the partial construction already covers.
	if coveredState(st, st.needRead, s.lut) {
		x.out = append(x.out, st.clone())
	} else if st.end.Known() && !st.needRead && coveredState(st, true, s.lut) {
		// Virtual skip: the pattern's excitation is already present and
		// only awaits a future leading read. (With a read already pending,
		// this is the check that just failed.)
		x.try((*state).pend)
	}
	rd := march.Op{Kind: march.Read, Data: s.b}
	switch s.kind {
	case shapeSingle:
		if s.hasExcite && s.cond.Known() {
			// Conditioned single-cell fault: the non-excited cell must
			// hold cond at excitation time, so the element needs the same
			// order discipline as a pair fault. Within an element the
			// condition cell is untouched (= pre) when it is walked after
			// the excited cell, or holds the closing value when walked
			// before it.
			dirWithin, dirAcross := march.Up, march.Down
			if s.condLow {
				dirWithin, dirAcross = march.Down, march.Up
			}
			// Case (i), new element with immediate trailing read.
			x.try(func(c *state) bool {
				return c.drive(s.cond) && c.open(dirWithin) && c.drive(s.a) &&
					c.appendOp(s.excite) && c.appendOp(rd)
			})
			// Case (i), new element, observation deferred (the element is
			// locked so the corruption survives to the next leading read —
			// which walks the corrupted cell before re-writing it).
			x.try(func(c *state) bool {
				return c.drive(s.cond) && c.open(dirWithin) && c.drive(s.a) &&
					c.appendOp(s.excite) && c.pend()
			})
			// Case (i), extension of a compatible element.
			x.try(func(c *state) bool {
				return !c.locked && c.leadRead && c.pre == s.cond && (s.a == march.X || c.end == s.a) &&
					c.forceDir(dirWithin) && c.appendOp(s.excite) && c.appendOp(rd)
			})
			// Case (ii): the condition cell is walked first and holds the
			// element's closing value; needs a write excitation equal to
			// cond and a later leading read.
			if s.excite.IsWrite() && s.excite.Data == s.cond {
				x.try(func(c *state) bool {
					return !c.locked && c.forceDir(dirAcross) && c.drive(s.a) && c.appendOp(s.excite) && c.pend()
				})
				x.try(func(c *state) bool {
					return c.end.Known() && c.open(dirAcross) && c.drive(s.a) && c.appendOp(s.excite) && c.pend()
				})
			}
			break
		}
		if s.hasExcite {
			// Same-element excitation, observation deferred to the next
			// leading read.
			x.try(func(c *state) bool {
				return c.drive(s.a) && c.appendOp(s.excite) && c.pend()
			})
			// Same-element excitation with an immediate trailing read.
			x.try(func(c *state) bool {
				return c.drive(s.a) && c.appendOp(s.excite) && c.appendOp(rd)
			})
			// Non-transition write excitations (write destructive faults)
			// need the pre-value established by a genuine transition, or
			// the establishing write is itself the excitation and the
			// "exciting" one repairs the corruption.
			if s.excite.IsWrite() && s.excite.Data == s.a {
				establish := func(c *state) bool {
					return c.appendOp(march.Op{Kind: march.Write, Data: s.a.Not()}) &&
						c.appendOp(march.Op{Kind: march.Write, Data: s.a}) &&
						c.appendOp(s.excite)
				}
				x.try(func(c *state) bool { return establish(c) && c.appendOp(rd) })
				x.try(func(c *state) bool { return establish(c) && c.pend() })
			}
			// Fresh element (its leading read observes prior pending
			// excitations first).
			x.try(func(c *state) bool {
				return c.end.Known() && c.open(march.Any) && c.drive(s.a) && c.appendOp(s.excite) && c.pend()
			})
		} else {
			// Observation-only: a read of the cell while it holds a.
			x.try(func(c *state) bool { return c.drive(s.a) && c.appendOp(rd) })
			x.try(func(c *state) bool { return c.drive(s.a) && c.end == s.b && c.open(march.Any) })
		}
	case shapePair:
		e := s.excite.Data
		dirWithin, dirAcross := march.Down, march.Up
		if s.aggLow {
			dirWithin, dirAcross = march.Up, march.Down
		}
		// Case (i), new element: ⇑/⇓(r_b, [w_a,] w_e) — the victim is
		// processed after the aggressor and still holds the element's
		// pre-value b; the element's own leading read observes.
		x.try(func(c *state) bool {
			return c.drive(s.b) && c.open(dirWithin) && c.drive(s.a) && c.appendOp(s.excite)
		})
		// Case (i), extension of the current element.
		x.try(func(c *state) bool {
			return !c.locked && c.leadRead && c.pre == s.b && (s.a == march.X || c.end == s.a) &&
				c.forceDir(dirWithin) && c.appendOp(s.excite)
		})
		// Case (ii): the victim is processed before the aggressor and
		// already holds the element's closing value; requires a write
		// excitation with b == e and a later leading read. (Read-coupling
		// excitations only realise through case (i): the read leaves the
		// chain value unchanged, so the element close value equals the
		// chain, not a victim-specific value.)
		if s.excite.IsWrite() && s.b == e {
			x.try(func(c *state) bool {
				return !c.locked && c.forceDir(dirAcross) && c.drive(s.a) && c.appendOp(s.excite) && c.pend()
			})
			x.try(func(c *state) bool {
				return c.end.Known() && c.open(dirAcross) && c.drive(s.a) && c.appendOp(s.excite) && c.pend()
			})
		}
	case shapeRetention:
		x.try(func(c *state) bool { return c.drive(s.a) && c.delay() && c.open(march.Any) })
	}
}
