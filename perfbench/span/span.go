// Package span records timed spans in memory and derives self times.
//
// A span has a name, a start and an end, the span that caused it and the
// id of the benchmark operation it belongs to. Spans are kept in memory
// while the benchmark runs and written out once it ends. A span's self
// time is its duration minus the part of that interval its child spans
// cover; children may overlap (a handler span inside a client span, or
// concurrent children), so the covered part is the union of the child
// intervals clipped to the parent.
package span

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one recorded interval. ID is its 1-based position in the
// recording; Parent is 0 for a root span.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Recorder collects spans from any number of goroutines. A nil *Recorder
// is valid and records nothing, so callers trace and run untraced through
// the same code path.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// New returns an empty recorder whose clock starts now.
func New() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span and returns its id (0 on a nil recorder).
func (r *Recorder) Begin(name string, op, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(r.spans)
}

// End closes the span id returned by Begin; id 0 is ignored.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Spans returns a copy of every span recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteJSONL writes every span as one JSON object per line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SelfTimes returns each span's self time, indexed like spans. Spans still
// open (End < Start) count as zero length.
func SelfTimes(spans []Span) []time.Duration {
	index := make(map[int]int, len(spans))
	children := make(map[int][]int)
	for i, s := range spans {
		index[s.ID] = i
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		var iv [][2]time.Duration
		for _, c := range children[s.ID] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				iv = append(iv, [2]time.Duration{a, b})
			}
		}
		self[i] = s.End - s.Start - covered(iv)
	}
	return self
}

// covered is the total length of the union of the intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end time.Duration
	for k, x := range iv {
		switch {
		case k == 0 || x[0] > end:
			total += x[1] - x[0]
			end = x[1]
		case x[1] > end:
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// SelfByName sums self time per span name.
func SelfByName(spans []Span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for i, d := range SelfTimes(spans) {
		out[spans[i].Name] += d
	}
	return out
}
