package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"time"
)

// tracer collects the traced run's spans in memory and writes them at
// exit as Chrome trace-event JSON. Host spans (pid 1) nest workload →
// cell phases on the host clock; VT spans (pid 2) are the FS calls on the
// virtual clock, one thread per (cell, uthread). All methods are no-ops
// on a nil tracer, which is what timed runs pass.
type tracer struct {
	t0    time.Time
	host  []hostSpan
	cells []traceCell
}

type hostSpan struct {
	name       string
	cell       int // -1: whole iteration
	start, end time.Time
}

type traceCell struct {
	name string
	rec  *fsRecorder
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// allocBytes returns the cumulative heap bytes allocated by the process
// (0 on a nil tracer, so timed runs pay nothing). Setup runs on one
// goroutine, so a before/after difference is the setup's allocation.
func (t *tracer) allocBytes() uint64 {
	if t == nil {
		return 0
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (t *tracer) hostSpan(name string, cell int, start, end time.Time) {
	if t == nil || start.IsZero() || end.IsZero() {
		return
	}
	t.host = append(t.host, hostSpan{name, cell, start, end})
}

func (t *tracer) cell(name string, rec *fsRecorder) {
	if t == nil {
		return
	}
	t.cells = append(t.cells, traceCell{name, rec})
}

// spanCounts returns the VT spans kept and dropped over all cells.
func (t *tracer) spanCounts() (kept, dropped int64) {
	if t == nil {
		return 0, 0
	}
	for _, c := range t.cells {
		if c.rec != nil {
			kept += int64(len(c.rec.spans))
			dropped += c.rec.dropped
		}
	}
	return kept, dropped
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write emits the trace; workload is the root span's name.
func (t *tracer) write(path, workload string) error {
	us := func(x time.Time) float64 { return float64(x.Sub(t.t0).Nanoseconds()) / 1e3 }
	evs := []traceEvent{{Name: workload, Cat: "host", Ph: "X", Ts: 0, Dur: us(time.Now()), Pid: 1, Tid: 0}}
	for _, s := range t.host {
		ev := traceEvent{Name: s.name, Cat: "host", Ph: "X", Ts: us(s.start), Dur: us(s.end) - us(s.start), Pid: 1, Tid: s.cell + 1}
		if s.cell >= 0 && s.cell < len(t.cells) {
			ev.Args = map[string]any{"cell": t.cells[s.cell].name}
		}
		evs = append(evs, ev)
	}
	for ci, c := range t.cells {
		if c.rec == nil {
			continue
		}
		for _, s := range c.rec.spans {
			evs = append(evs, traceEvent{
				Name: "fs." + opNames[s.op], Cat: "vt", Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Pid: 2, Tid: ci<<12 | s.ut,
				Args: map[string]any{"req": s.ut, "parent": c.name},
			})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
