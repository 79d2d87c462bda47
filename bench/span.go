package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, on the wall clock. Parent is the
// index, within the same lane, of the span that was open when this one
// began (-1 for a root), so a layer's self time is its span minus its
// children.
//
// Wall time on a sweep goroutine includes the time it sat runnable behind
// the others (there are more sweep goroutines than cores). Pinning lanes to
// threads to read per-thread CPU clocks was tried and dropped: every block
// on a pinned goroutine idles a P through a thread hand-off, which slowed
// the axis sweeps by a fifth at unchanged CPU.
type span struct {
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int32  `json:"parent"`
	Workload int64  `json:"workload"`
	Lane     int32  `json:"goroutine"`
}

// lane is the span buffer of one goroutine. Lanes are never shared, so
// recording takes no lock; a nil lane records nothing, which is how the
// untraced pass runs the same code with tracing off.
type lane struct {
	id    int32
	epoch time.Time
	spans []span
	open  int32 // innermost open span, -1 at top level
}

// tracer owns the lanes of one traced pass. Spans stay in memory until the
// pass ends.
type tracer struct {
	epoch time.Time
	lanes []*lane
}

func newTracer(lanes int) *tracer {
	t := &tracer{epoch: time.Now()}
	for i := 0; i < lanes; i++ {
		t.lanes = append(t.lanes, &lane{id: int32(i), epoch: t.epoch, open: -1})
	}
	return t
}

// lane returns goroutine i's buffer (nil when tracing is off).
func (t *tracer) lane(i int) *lane {
	if t == nil {
		return nil
	}
	return t.lanes[i]
}

// begin opens a span and returns its handle for end.
func (l *lane) begin(name string, workload int64) int32 {
	if l == nil {
		return -1
	}
	idx := int32(len(l.spans))
	l.spans = append(l.spans, span{
		Name:     name,
		StartNS:  int64(time.Since(l.epoch)),
		Parent:   l.open,
		Workload: workload,
		Lane:     l.id,
	})
	l.open = idx
	return idx
}

// end closes the span begin returned. Spans close innermost-first.
func (l *lane) end(idx int32) {
	if l == nil {
		return
	}
	l.spans[idx].EndNS = int64(time.Since(l.epoch))
	l.open = l.spans[idx].Parent
}

// selfTimes sums, per span name, duration minus the part covered by direct
// children, in seconds.
func (t *tracer) selfTimes() map[string]float64 {
	self := map[string]float64{}
	for _, l := range t.lanes {
		child := make([]int64, len(l.spans))
		for _, s := range l.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.EndNS - s.StartNS
			}
		}
		for i, s := range l.spans {
			self[s.Name] += float64(s.EndNS-s.StartNS-child[i]) / 1e9
		}
	}
	return self
}

// totals sums, per span name, full durations in seconds.
func (t *tracer) totals() map[string]float64 {
	tot := map[string]float64{}
	for _, l := range t.lanes {
		for _, s := range l.spans {
			tot[s.Name] += float64(s.EndNS-s.StartNS) / 1e9
		}
	}
	return tot
}

// write dumps every span as one JSON document.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var all []span
	for _, l := range t.lanes {
		all = append(all, l.spans...)
	}
	if err := json.NewEncoder(f).Encode(all); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
