package span

import (
	"testing"
	"time"
)

func TestSelfTimeNested(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "op", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "tpg", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "gts", Start: 40 * ms, End: 90 * ms},
		{ID: 4, Parent: 3, Name: "sim", Start: 50 * ms, End: 60 * ms},
		// Overlaps its sibling: the union, not the sum, is subtracted.
		{ID: 5, Parent: 3, Name: "sim", Start: 55 * ms, End: 70 * ms},
		// Sticks out of its parent: only the inside part counts.
		{ID: 6, Parent: 2, Name: "atsp", Start: 25 * ms, End: 35 * ms},
	}
	want := []time.Duration{30 * ms, 15 * ms, 30 * ms, 10 * ms, 15 * ms, 10 * ms}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", spans[i].ID, spans[i].Name, got[i], want[i])
		}
	}
	by := SelfByName(spans)
	if by["sim"] != 25*ms || by["gts"] != 30*ms {
		t.Errorf("SelfByName = %v", by)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := New()
	root := r.Begin("op", 7, 0)
	child := r.Begin("gts", 7, root)
	time.Sleep(2 * time.Millisecond)
	r.End(child)
	r.End(root)
	spans := r.Spans()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Op != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	self := SelfTimes(spans)
	if self[1] < 2*time.Millisecond || self[0] < 0 || self[0]+self[1] != spans[0].End-spans[0].Start {
		t.Errorf("self times %v do not partition the root span", self)
	}
}

func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.End(r.Begin("x", 1, 0))
	if r.Spans() != nil {
		t.Fatal("nil recorder recorded a span")
	}
}
