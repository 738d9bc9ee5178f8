package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Job; Parent is the ID of the span that caused this one (0 = root).
type span struct {
	ID, Parent int64
	Name       string
	Start, End int64 // ns since the tracer started
	Job        int
	Lane       int // 0 = client goroutine, 1+r = rank r of the warm group
}

// tracer keeps spans in memory, one slice per lane so the client and the
// rank goroutines never contend, and writes them out when the run ends.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	lanes [][]span
}

func newTracer(ranks int) *tracer {
	return &tracer{t0: time.Now(), lanes: make([][]span, 1+ranks)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// id reserves a span ID, so children can name a parent that has not ended.
func (t *tracer) id() int64 { return t.next.Add(1) }

// put records a finished span on its lane. A rank's lane is written by the
// rank inside a job, or by the client between jobs, when the ranks are idle.
func (t *tracer) put(s span) {
	if s.ID == 0 {
		s.ID = t.id()
	}
	t.lanes[s.Lane] = append(t.lanes[s.Lane], s)
}

func (t *tracer) all() []span {
	var out []span
	for _, l := range t.lanes {
		out = append(out, l...)
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[int64]int64 {
	type iv struct{ lo, hi int64 }
	kids := map[int64][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, edge := int64(0), s.Start
		for _, k := range ivs {
			lo, hi := max(k.lo, edge), min(k.hi, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// writeChromeTrace writes the spans as Chrome trace_event JSON (open in
// chrome://tracing or ui.perfetto.dev): one complete ("X") event per span,
// one thread per lane.
func writeChromeTrace(path, process string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := []event{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": process}}}
	lanes := map[int]bool{}
	self := selfTimes(spans)
	for _, s := range spans {
		if !lanes[s.Lane] {
			lanes[s.Lane] = true
			name := "client"
			if s.Lane > 0 {
				name = fmt.Sprintf("rank %d", s.Lane-1)
			}
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: s.Lane, Args: map[string]any{"name": name}})
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "job": s.Job, "self_us": float64(self[s.ID]) / 1e3},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
