package gts

import (
	"marchgen/fsm"
	"marchgen/internal/simd"
	"marchgen/march"
)

// syntheticMachine builds the canonical faulty machine whose single Basic
// Fault Effect is exactly the given test pattern: triggered in the
// pattern's initialisation state by its excitation, it corrupts the
// observed cell (or, for observation-only patterns, lies on the observing
// read). A test realises the pattern if and only if it detects this
// machine.
func syntheticMachine(p fsm.Pattern) fsm.Machine {
	flip := p.GoodObservation().Not()
	if len(p.Excite) == 0 {
		return fsm.WithDeviations("synthetic "+p.String(),
			fsm.OutputDev(p.Init, p.Observe, flip))
	}
	next := fsm.Unknown.With(p.Observe.Cell, flip)
	return fsm.WithDeviations("synthetic "+p.String(),
		fsm.TransitionDev(p.Init, p.Excite[0], next))
}

// Input indices of the compiled tables (see simd.InputIndex).
const (
	inWrite = 0 // w<d> on cell c is inWrite + 2c + d
	inRead  = 4 // r on cell c is inRead + c
	inWait  = 6
)

// walk is one ⇕ resolution's simulation of the four initial memory
// contents against the fault-free machine, advanced in place.
type walk struct {
	lut      *simd.Compiled
	good     uint8    // fault-free state
	faulty   [4]uint8 // faulty state per concrete initial content
	detected uint8    // bit v: initial content v already exposed
}

func newWalk(lut *simd.Compiled) walk {
	w := walk{lut: lut, good: uint8(simd.StateIndex(fsm.Unknown))}
	for v, s := range fsm.ConcreteStates() {
		w.faulty[v] = uint8(simd.StateIndex(s))
	}
	return w
}

// step applies one input. A read exposes the initial contents whose
// faulty output is concrete and differs from a known fault-free output;
// reads with an unknown expected value are ignored, as in fsm.Detects.
func (w *walk) step(in uint8) {
	good := simd.Good()
	if in == inRead || in == inRead+1 {
		if e := good.Out[w.good][in]; e.Known() {
			for v := range w.faulty {
				if o := w.lut.Out[w.faulty[v]][in]; o.Known() && o != e {
					w.detected |= 1 << v
				}
			}
		}
	}
	w.good = good.Next[w.good][in]
	for v := range w.faulty {
		w.faulty[v] = w.lut.Next[w.faulty[v]][in]
	}
}

// element applies an element's ops to both cells in the resolved
// addressing order.
func (w *walk) element(ops []march.Op, dir march.Order) {
	first, second := uint8(0), uint8(1)
	if dir == march.Down {
		first, second = 1, 0
	}
	for _, c := range [2]uint8{first, second} {
		for _, op := range ops {
			if op.IsRead() {
				w.step(inRead + c)
			} else {
				w.step(inWrite + 2*c + uint8(op.Data))
			}
		}
	}
}

// coveredState reports whether the partial construction already realises
// the pattern compiled into lut, i.e. whether the test st.closed() would
// produce (with the pending-read flag needRead) detects the pattern's
// synthetic machine under both the all-ascending and the all-descending
// resolution of its ⇕ elements. The full resolution enumeration is left
// to the caller's final validation; this fast check drives the
// minimisation phase (no operation is emitted for an already-realised
// pattern). It walks st in place and allocates nothing.
func coveredState(st *state, needRead bool, lut *simd.Compiled) bool {
	if len(st.elems) == 0 {
		return false
	}
	for _, dir := range [2]march.Order{march.Up, march.Down} {
		w := newWalk(lut)
		for _, e := range st.elems {
			if e.Delay {
				w.step(inWait)
				continue
			}
			order := e.Order
			if order == march.Any {
				order = dir
			}
			w.element(e.Ops, order)
			if w.detected == 0xF {
				break
			}
		}
		if needRead && st.end.Known() {
			// closed()'s trailing ⇕(r end) element.
			w.element([]march.Op{{Kind: march.Read, Data: st.end}}, dir)
		}
		if w.detected != 0xF {
			return false
		}
	}
	return true
}
