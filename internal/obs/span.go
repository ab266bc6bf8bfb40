package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanShards is the recorder shard count: finished spans land in the
// shard selected by their sequence number, so concurrent workers ending
// spans contend on different locks.
const spanShards = 16

// maxSpans bounds the recorder's memory: past it, finished spans are
// counted as dropped instead of stored (the drop count surfaces in the
// metrics snapshot as "obs.spans_dropped"). Generation runs over the
// paper's fault lists stay around a few hundred spans; the cap exists
// for pathological user fault lists on long-running servers.
const maxSpans = 1 << 16

// Event is one finished span as exported to the JSONL trace. Seq orders
// events in creation order (exact program order for a single-worker
// run); Parent is the Seq of the enclosing span, 0 for a root span.
type Event struct {
	Name    string         `json:"name"`             // slash-separated span name ("generate/atsp")
	Seq     uint64         `json:"seq"`              // creation order, unique within the run
	Parent  uint64         `json:"parent,omitempty"` // Seq of the enclosing span, 0 for roots
	Worker  int            `json:"worker,omitempty"` // worker index for fanned-out spans
	StartUS int64          `json:"start_us"`         // start offset from the run epoch, µs
	DurUS   int64          `json:"dur_us"`           // span duration, µs
	Attrs   map[string]any `json:"attrs,omitempty"`  // int64/string attributes set via SetInt/SetStr
}

type recorder struct {
	shards  [spanShards]spanShard
	count   atomic.Int64
	dropped atomic.Int64
}

type spanShard struct {
	mu     sync.Mutex
	events []Event
}

// attr is one span attribute; integers and strings cover everything the
// pipeline records (counts, costs, causes).
type attr struct {
	key string
	str string
	num int64
	is  bool // true: string
}

// Span is one in-flight unit of observed work. Attributes are set by
// the goroutine that owns the span; End is idempotent and publishes the
// span to the recorder (and the streaming sink, when attached).
type Span struct {
	run    *Run
	name   string
	seq    uint64
	parent uint64
	worker int
	start  time.Time
	attrs  []attr
	ended  bool
}

// Start opens a root span. Returns nil (a universal no-op) on a nil run.
func (r *Run) Start(name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{run: r, name: name, seq: r.seq.Add(1), start: time.Now()}
}

// Child opens a sub-span of s.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := s.run.Start(name)
	c.parent = s.seq
	return c
}

// SetInt records an integer attribute (node counts, costs, sizes).
func (s *Span) SetInt(key string, v int64) *Span {
	if s == nil || s.ended {
		return s
	}
	s.attrs = append(s.attrs, attr{key: key, num: v})
	return s
}

// SetStr records a string attribute (degradation causes, modes).
func (s *Span) SetStr(key, v string) *Span {
	if s == nil || s.ended {
		return s
	}
	s.attrs = append(s.attrs, attr{key: key, str: v, is: true})
	return s
}

// SetWorker tags the span with the worker index that ran it, so
// per-worker subsequences stay identifiable (and stable) in traces of
// parallel runs.
func (s *Span) SetWorker(w int) *Span {
	if s == nil || s.ended {
		return s
	}
	s.worker = w
	return s
}

// End finishes the span and hands it to the recorder. Idempotent.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	ev := Event{
		Name:    s.name,
		Seq:     s.seq,
		Parent:  s.parent,
		Worker:  s.worker,
		StartUS: s.start.Sub(s.run.t0).Microseconds(),
		DurUS:   time.Since(s.start).Microseconds(),
	}
	if len(s.attrs) > 0 {
		ev.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			if a.is {
				ev.Attrs[a.key] = a.str
			} else {
				ev.Attrs[a.key] = a.num
			}
		}
	}
	s.run.record(ev)
}

func (r *Run) record(ev Event) {
	if r.noEvents {
		r.sink.write(ev)
		r.notify(ev)
		return
	}
	if r.rec.count.Load() >= maxSpans {
		r.rec.dropped.Add(1)
		return
	}
	r.rec.count.Add(1)
	sh := &r.rec.shards[ev.Seq%spanShards]
	sh.mu.Lock()
	sh.events = append(sh.events, ev)
	sh.mu.Unlock()
	r.sink.write(ev)
	r.notify(ev)
}

// Events returns every finished span in sequence order. The sequence is
// creation order: exact program order for a single-worker run, a stable
// per-worker interleaving otherwise.
func (r *Run) Events() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for i := range r.rec.shards {
		sh := &r.rec.shards[i]
		sh.mu.Lock()
		out = append(out, sh.events...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}
