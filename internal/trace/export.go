package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// MessageMatrix folds the session's KindSend events into per-pair logical
// message and byte counts, row-major [src*size+dst] — the same shape and
// unit as comm.StatsSnapshot.Msgs/Bytes, so the two must reconcile exactly
// for any run both observed in full (no ring-buffer drops). size is the
// communicator size; events outside [0, size) in either coordinate are
// ignored (process-lane events have Rank -1 and never alias a rank pair).
// Test seam: reconciled against comm.Stats in the trace tests.
func (s *Session) MessageMatrix(size int) (msgs, bytes []int64) {
	msgs = make([]int64, size*size)
	bytes = make([]int64, size*size)
	for _, ev := range s.Events() {
		if ev.Kind != KindSend {
			continue
		}
		src, dst := int(ev.Rank), int(ev.Peer)
		if src < 0 || src >= size || dst < 0 || dst >= size {
			continue
		}
		msgs[src*size+dst]++
		bytes[src*size+dst] += ev.Bytes
	}
	return msgs, bytes
}

// chromeEvent is one entry of the Chrome trace_event JSON format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// "X" complete events carry ts+dur, "M" metadata events name the lanes.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat,omitempty"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // required on "X" events even when 0

	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Lane assignment of the Chrome export: every rank is a process (pid =
// rank + 1, so pids stay positive; pid 1 is rank 0), with the rank's own
// events on tid 1 ("main") and exec-attributed work on one sub-lane per
// pool worker (tid = worker + 2). Events on the process lane (Rank -1,
// e.g. exec chunks, which the shared engine cannot attribute to a rank)
// are grouped under pid 0 ("exec pool") with one thread per worker.
const (
	chromePidExec = 0
	chromeTidMain = 1
)

func chromePid(rank int32) int {
	if rank < 0 {
		return chromePidExec
	}
	return int(rank) + 1
}

func chromeTid(worker int32) int {
	if worker < 0 {
		return chromeTidMain
	}
	return int(worker) + 2
}

// WriteChromeTrace serializes the session as Chrome trace_event JSON,
// loadable in chrome://tracing and Perfetto. One lane per rank, one
// sub-lane per worker; spans are "X" complete events with microsecond
// timestamps relative to the session start.
func (s *Session) WriteChromeTrace(w io.Writer) error {
	events := s.Events()
	out := chromeTrace{DisplayTimeUnit: "ms"}

	// Metadata: name every (pid, tid) lane that appears.
	type lane struct{ pid, tid int }
	seen := map[lane]bool{}
	for _, ev := range events {
		l := lane{chromePid(ev.Rank), chromeTid(ev.Worker)}
		if seen[l] {
			continue
		}
		seen[l] = true
		pname := "exec pool"
		if l.pid > 0 {
			pname = fmt.Sprintf("rank %d", l.pid-1)
		}
		tname := "main"
		if l.tid != chromeTidMain {
			tname = fmt.Sprintf("worker %d", l.tid-2)
		}
		out.TraceEvents = append(out.TraceEvents,
			chromeEvent{Name: "process_name", Ph: "M", Pid: l.pid, Tid: l.tid,
				Args: map[string]any{"name": pname}},
			chromeEvent{Name: "thread_name", Ph: "M", Pid: l.pid, Tid: l.tid,
				Args: map[string]any{"name": tname}},
		)
	}
	// Stable lane order for deterministic output.
	sort.SliceStable(out.TraceEvents, func(i, j int) bool {
		a, b := out.TraceEvents[i], out.TraceEvents[j]
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		return a.Name < b.Name
	})

	for _, ev := range events {
		name := ev.Kind.String()
		if ev.Label != "" {
			name = name + ":" + ev.Label
		}
		args := map[string]any{}
		if ev.Peer >= 0 {
			args["peer"] = int(ev.Peer)
		}
		if ev.Tag >= 0 {
			args["tag"] = int(ev.Tag)
		}
		if ev.Bytes > 0 {
			args["bytes"] = ev.Bytes
		}
		switch ev.Kind {
		case KindChunk, KindVM:
			args["lo"], args["hi"] = ev.A, ev.B
		case KindColl:
			args["seq"] = ev.A
		case KindGather:
			args["remote"] = ev.A
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: name,
			Cat:  ev.Kind.String(),
			Ph:   "X",
			Ts:   float64(ev.Start) / 1e3,
			Dur:  float64(ev.Dur) / 1e3,
			Pid:  chromePid(ev.Rank),
			Tid:  chromeTid(ev.Worker),
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Summary returns a one-line accounting of the capture, for CLI reports.
func (s *Session) Summary() string {
	counts := map[Kind]int{}
	for _, ev := range s.Events() {
		counts[ev.Kind]++
	}
	kinds := make([]Kind, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	out := fmt.Sprintf("%d events", s.Len())
	for _, k := range kinds {
		out += fmt.Sprintf(" %s=%d", k, counts[k])
	}
	if d := s.Dropped(); d > 0 {
		out += fmt.Sprintf(" dropped=%d", d)
	}
	return out
}
