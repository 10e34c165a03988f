package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// recorder keeps the spans of a traced run in memory: one span per
// call from the benchmark's code into a layer, with its parent. A nil
// recorder records nothing, which is how untraced chunks run.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	name       string
	parent     int // index+1 of the parent span, 0 for a root
	start, end time.Duration
	args       map[string]any
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// passRec is the recorder for the c-th chunk of a measured pass, and
// the index of the half its samples go to. An untraced run records
// nothing. A traced run alternates: even chunks run untraced into
// half 0, odd chunks traced into half 1, so that the two halves
// trace_overhead compares see the same host drift.
func passRec(rec *recorder, c int) (*recorder, int) {
	if rec == nil || c%2 == 0 {
		return nil, 0
	}
	return rec, 1
}

// begin opens a span under parent (0 for a root) and returns its id.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, parent: parent, start: now, end: -1})
	return len(r.spans)
}

// end closes span id, attaching optional key/value arguments.
func (r *recorder) end(id int, kv ...any) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.end = now
	if len(kv) > 0 {
		s.args = map[string]any{}
		for i := 0; i+1 < len(kv); i += 2 {
			s.args[kv[i].(string)] = kv[i+1]
		}
	}
}

// add records an already-measured interval (such as a server-side
// span reported in a response header) as a child of parent.
func (r *recorder) add(name string, parent int, start, dur time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, parent: parent, start: start, end: start + dur})
}

// since is the recorder clock, for add.
func (r *recorder) since(t time.Time) time.Duration { return t.Sub(r.t0) }

// durations returns the lengths of every closed span called name, in
// milliseconds.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, ms(s.end-s.start))
		}
	}
	return out
}

// writeChrome writes the spans as a Chrome trace-event document, the
// format the server's /debug/traces?format=chrome emits: complete
// ("X") events in microseconds, one thread per root span so that each
// root's children nest under it.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Args map[string]any `json:"args,omitempty"`
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	base := float64(r.t0.UnixNano()) / 1e3
	root := make([]int, len(r.spans))
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		root[i] = i + 1
		if s.parent > 0 {
			root[i] = root[s.parent-1]
		}
		if s.end < 0 {
			continue
		}
		args := map[string]any{"span": i + 1, "parent": s.parent}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, event{Name: s.name, Ph: "X", Pid: 1, Tid: root[i],
			TS: base + float64(s.start.Nanoseconds())/1e3, Dur: float64((s.end - s.start).Nanoseconds()) / 1e3, Args: args})
	}
	doc, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, doc, 0o644)
}
