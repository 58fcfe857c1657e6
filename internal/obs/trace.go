package obs

import (
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Tracer records nestable stage spans and exports them as Chrome
// trace_event JSON (chrome://tracing, Perfetto).
//
// Determinism: a span's identity is (path, index) — its "/"-joined name
// chain from the root and its occurrence ordinal among same-path spans —
// and its ID is an FNV-64a hash of (seed, path, index). The exported
// layout is derived purely from the tree's structure: siblings are sorted
// by (name, index), a span's duration is 1 + its item count + the sum of
// its children's durations, and timestamps follow from that recursively.
// No clock value ever reaches the trace file, so two same-seed runs of a
// deterministic pipeline export byte-identical traces even though their
// goroutines interleaved differently. The convention that makes the tree
// itself run-independent: spans opened concurrently under one parent must
// carry distinct names (embed the task index or label in the name).
//
// Wall time surfaces only through OnEvent (the -progress feed), stamped by
// the tracer's clock when one is injected.
type Tracer struct {
	// OnEvent, when non-nil, receives a SpanEvent at every span begin and
	// end, outside the tracer's lock. Set it before the first span.
	OnEvent func(SpanEvent)

	mu     sync.Mutex
	seed   int64
	clock  Clock
	roots  []*Span
	occurs map[string]int // path -> occurrences so far
}

// SpanEvent is one span transition, feeding progress reporting.
type SpanEvent struct {
	End     bool          // false: span began; true: span ended
	Path    string        // full "/"-joined span path
	Items   int64         // items recorded on the span (end events)
	Elapsed time.Duration // wall elapsed at end; zero without a clock
}

// NewTracer returns a tracer whose span IDs are seeded with seed. clock
// may be nil: spans then carry no wall time (trace output is unaffected —
// it never contains wall time).
func NewTracer(seed int64, clock Clock) *Tracer {
	return &Tracer{seed: seed, clock: clock, occurs: map[string]int{}}
}

// Span is one traced stage. A nil *Span is a valid no-op (disabled
// tracer), so callers never guard. Spans are not goroutine-safe
// individually: a span is owned by the goroutine that opened it, and
// concurrent work hangs child spans (with distinct names) off one parent.
type Span struct {
	tr       *Tracer
	parent   *Span
	name     string
	path     string
	index    int
	id       uint64
	items    int64
	start    time.Time
	children []*Span
}

// begin opens a span under parent (nil for a root).
func (t *Tracer) begin(parent *Span, name string) *Span {
	sp := &Span{tr: t, parent: parent, name: name}
	if parent != nil {
		sp.path = parent.path + "/" + name
	} else {
		sp.path = name
	}
	t.mu.Lock()
	sp.index = t.occurs[sp.path]
	t.occurs[sp.path]++
	sp.id = spanID(t.seed, sp.path, sp.index)
	if parent != nil {
		parent.children = append(parent.children, sp)
	} else {
		t.roots = append(t.roots, sp)
	}
	clock, onEvent := t.clock, t.OnEvent
	t.mu.Unlock()
	if clock != nil {
		sp.start = clock()
	}
	if onEvent != nil {
		onEvent(SpanEvent{Path: sp.path})
	}
	return sp
}

// Child opens a nested span. Nil-safe.
func (sp *Span) Child(name string) *Span {
	if sp == nil {
		return nil
	}
	return sp.tr.begin(sp, name)
}

// SetItems records the span's work-unit count (events processed, flows
// replayed, links built): it widens the span in the trace layout and
// feeds the items/sec column of progress reporting. Nil-safe.
func (sp *Span) SetItems(n int64) {
	if sp == nil {
		return
	}
	sp.items = n
}

// AddItems adds to the span's work-unit count. Nil-safe.
func (sp *Span) AddItems(n int64) {
	if sp == nil {
		return
	}
	sp.items += n
}

// End closes the span, firing the tracer's OnEvent with wall elapsed when
// a clock is injected. Nil-safe.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.tr.mu.Lock()
	clock, onEvent := sp.tr.clock, sp.tr.OnEvent
	sp.tr.mu.Unlock()
	if onEvent == nil {
		return
	}
	ev := SpanEvent{End: true, Path: sp.path, Items: sp.items}
	if clock != nil && !sp.start.IsZero() {
		ev.Elapsed = clock().Sub(sp.start)
	}
	onEvent(ev)
}

// spanID hashes (seed, path, index) with FNV-64a.
func spanID(seed int64, path string, index int) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= uint64(seed>>(8*i)) & 0xff
		h *= prime64
	}
	for i := 0; i < len(path); i++ {
		h ^= uint64(path[i])
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		h ^= uint64(index>>(8*i)) & 0xff
		h *= prime64
	}
	return h
}

// layoutDur returns a span's deterministic duration in trace ticks
// (rendered as microseconds): one tick of own time, plus one tick per
// recorded item, plus its children.
func layoutDur(sp *Span) int64 {
	d := int64(1) + sp.items
	for _, c := range sp.children {
		d += layoutDur(c)
	}
	return d
}

// sortSpans orders siblings by (name, index) — the deterministic sibling
// order the layout and the export walk share.
func sortSpans(spans []*Span) []*Span {
	out := append([]*Span(nil), spans...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].name != out[b].name {
			return out[a].name < out[b].name
		}
		return out[a].index < out[b].index
	})
	return out
}

// WriteTrace exports the tracer's spans as Chrome trace_event JSON
// ("traceEvents" array of complete events). Byte-deterministic: the
// layout is structure-derived (see the Tracer doc), wall time never
// appears. Call after the traced work is done; open spans export like
// closed ones.
func WriteTrace(w io.Writer, t *Tracer) error {
	t.mu.Lock()
	roots := sortSpans(t.roots)
	t.mu.Unlock()
	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	var ts int64
	for _, r := range roots {
		if err := writeSpan(w, r, ts, &first); err != nil {
			return err
		}
		ts += layoutDur(r)
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// writeSpan emits one complete event and recurses into sorted children.
func writeSpan(w io.Writer, sp *Span, ts int64, first *bool) error {
	sep := ",\n"
	if *first {
		sep = ""
		*first = false
	}
	line := sep + `{"name":` + strconv.Quote(sp.name) +
		`,"cat":"stage","ph":"X","ts":` + strconv.FormatInt(ts, 10) +
		`,"dur":` + strconv.FormatInt(layoutDur(sp), 10) +
		`,"pid":1,"tid":1,"args":{"id":"` + strconv.FormatUint(sp.id, 16) +
		`","path":` + strconv.Quote(sp.path) +
		`,"items":` + strconv.FormatInt(sp.items, 10) + `}}`
	if _, err := io.WriteString(w, line); err != nil {
		return err
	}
	child := ts + 1
	for _, c := range sortSpans(sp.children) {
		if err := writeSpan(w, c, child, first); err != nil {
			return err
		}
		child += layoutDur(c)
	}
	return nil
}
