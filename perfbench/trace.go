package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed layer call. Spans of one op share Op; Parent is the
// index of the enclosing span (-1 for an op's root). Start and End are wall
// clock; CPU is the process CPU time the span took. Both are as measured;
// the per-layer metrics scale them by the host probe of the span's window.
// Window is the index of the latest host probe when the span started.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	CPU    int64  `json:"cpu_ns"`
	Alloc  uint64 `json:"alloc_bytes"` // heap allocated between start and end, process-wide
	Attr   string `json:"attr,omitempty"`
	Window int    `json:"window"`

	cpuStart   time.Duration
	allocStart uint64
}

// tracer keeps every span in memory until the run ends. A nil *tracer is a
// disabled tracer: start returns -1 and finish ignores it, so untraced ops
// share the traced code path at the cost of one nil check per layer. Every
// workload is one closed-loop client, so spans come from one goroutine.
type tracer struct {
	epoch time.Time
	clock *hostClock
	spans []span
}

func newTracer(clock *hostClock) *tracer { return &tracer{epoch: time.Now(), clock: clock} }

func (t *tracer) start(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	a, c := heapAllocs(), cpuTime()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Window: len(t.clock.samples) - 1,
		Start: int64(time.Since(t.epoch)), cpuStart: c, allocStart: a})
	return len(t.spans) - 1
}

func (t *tracer) finish(id int, attr string) {
	if t == nil || id < 0 {
		return
	}
	end, c, a := int64(time.Since(t.epoch)), cpuTime(), heapAllocs()
	s := &t.spans[id]
	s.End, s.CPU, s.Alloc, s.Attr = end, int64(c-s.cpuStart), a-s.allocStart, attr
}

// selfTimes returns every span's CPU time minus that of its child spans
// (children of one op run one after another, so they never overlap).
func (t *tracer) selfTimes() []time.Duration {
	out := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		out[i] += time.Duration(s.CPU)
		if s.Parent >= 0 {
			out[s.Parent] -= time.Duration(s.CPU)
		}
	}
	return out
}

// layer summarizes the spans of one name. Times are in ms, scaled by the
// host probe (see hostClock) except rawWall.
type layer struct {
	self    []float64 // self CPU time per span
	wall    []float64 // wall time per span
	rawWall []float64 // wall time per span as measured
	alloc   []float64 // heap allocated per span, MB
	attrs   []string
}

// layerSet maps a span name to its summary.
type layerSet map[string]*layer

func (t *tracer) layers() layerSet {
	self := t.selfTimes()
	out := layerSet{}
	for i, s := range t.spans {
		l := out[s.Name]
		if l == nil {
			l = &layer{}
			out[s.Name] = l
		}
		scale := t.clock.scaleAt(s.Window)
		wall := ms(time.Duration(s.End - s.Start))
		l.self = append(l.self, ms(self[i])*scale)
		l.wall = append(l.wall, wall*scale)
		l.rawWall = append(l.rawWall, wall)
		l.alloc = append(l.alloc, float64(s.Alloc)/mib)
		l.attrs = append(l.attrs, s.Attr)
	}
	return out
}

// p50 returns the median self time of the named layer (0 if it never ran).
func (ls layerSet) p50(name string) float64 {
	if l := ls[name]; l != nil {
		return median(l.self)
	}
	return 0
}

// wallP50 returns the median wall time of the named layer.
func (ls layerSet) wallP50(name string) float64 {
	if l := ls[name]; l != nil {
		return median(l.wall)
	}
	return 0
}

// rawWallP50 returns the median unscaled wall time of the named layer.
func (ls layerSet) rawWallP50(name string) float64 {
	if l := ls[name]; l != nil {
		return median(l.rawWall)
	}
	return 0
}

// meanAlloc returns the mean heap allocated per span of the named layer.
func (ls layerSet) meanAlloc(name string) float64 {
	if l := ls[name]; l != nil {
		return mean(l.alloc)
	}
	return 0
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracingOverhead reports traced against untraced throughput of one run's
// alternating ops; traced marks the ops in opMS that ran traced.
func tracingOverhead(m map[string]float64, opMS []float64, traced []bool) {
	var tracedMS, plainMS []float64
	for i, v := range opMS {
		if traced[i] {
			tracedMS = append(tracedMS, v)
		} else {
			plainMS = append(plainMS, v)
		}
	}
	if len(tracedMS) == 0 || len(plainMS) == 0 {
		return
	}
	m["trace.ops_per_s"] = 1000 / mean(tracedMS)
	m["trace.untraced_ops_per_s"] = 1000 / mean(plainMS)
	m["trace.overhead"] = mean(tracedMS) / mean(plainMS)
}
