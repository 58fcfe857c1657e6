package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one wall-clock interval of a traced run: a call the benchmark
// made into one layer of the system, or one of the benchmark's own roots
// ("setup", "pass") that those calls hang under.
type span struct {
	name       string // "<layer>.<call>" for layer calls
	parent     int    // index of the enclosing span, -1 for a root
	start, end time.Duration
}

// tracer keeps a traced run's spans in memory; they are written out only
// when the run ends. Every method is a no-op on a nil *tracer, so the
// workloads call it unconditionally and untraced passes pay one nil check
// per layer call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	root  int // the open root span layer calls are parented to
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), root: -1} }

// beginRoot opens a root span and makes it the parent of later layer calls.
func (t *tracer) beginRoot(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: -1, start: time.Since(t.epoch)})
	t.root = len(t.spans) - 1
	return t.root
}

// begin opens a layer-call span under the current root.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: t.root, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// selfTimes returns the duration of root span r and the summed self time
// of the spans below it, keyed by span name; the root's own self time —
// the benchmark's glue between layer calls — is under the key "". A span's
// self time is its duration minus the part its children cover. Children
// run one after another on the benchmark's driving goroutine, so that part
// is the sum of their durations.
func (t *tracer) selfTimes(r int) (time.Duration, map[string]time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := func(i int) string {
		if i == r {
			return ""
		}
		return t.spans[i].name
	}
	self := map[string]time.Duration{}
	inTree := map[int]bool{r: true}
	for i := r; i < len(t.spans); i++ {
		sp := t.spans[i]
		if i != r && !inTree[sp.parent] {
			continue
		}
		inTree[i] = true
		d := sp.end - sp.start
		self[key(i)] += d
		if i != r {
			self[key(sp.parent)] -= d
		}
	}
	return t.spans[r].end - t.spans[r].start, self
}

// traceEvent is one complete ("X") event of the Chrome trace_event format,
// which chrome://tracing and Perfetto open directly.
type traceEvent struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"`  // microseconds since the run began
	Dur   float64           `json:"dur"` // microseconds
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]string `json:"args,omitempty"`
}

// write emits every span as a Chrome trace, sorted by start time then name.
func (t *tracer) write(w io.Writer) error {
	t.mu.Lock()
	evs := make([]traceEvent, 0, len(t.spans))
	for _, sp := range t.spans {
		ev := traceEvent{
			Name: sp.name, Phase: "X", PID: 1, TID: 1,
			TS:  float64(sp.start) / float64(time.Microsecond),
			Dur: float64(sp.end-sp.start) / float64(time.Microsecond),
		}
		if sp.parent >= 0 {
			ev.Args = map[string]string{"parent": t.spans[sp.parent].name}
		}
		evs = append(evs, ev)
	}
	t.mu.Unlock()
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].TS != evs[b].TS {
			return evs[a].TS < evs[b].TS
		}
		return evs[a].Name < evs[b].Name
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}{evs})
}
