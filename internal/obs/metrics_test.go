package obs

import (
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c_total") != c {
		t.Fatal("same name did not return the same counter")
	}
	if r.Counter("c_total", "k", "v") == c {
		t.Fatal("labelled lookup returned the unlabelled counter")
	}
	// Label canonicalization: order does not matter.
	if r.Counter("c_total", "a", "1", "b", "2") != r.Counter("c_total", "b", "2", "a", "1") {
		t.Fatal("label order produced distinct counters")
	}

	g := r.Gauge("g")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	g.SetMax(1.0)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("SetMax lowered the gauge to %v", got)
	}
	g.SetMax(3.0)
	if got := g.Value(); got != 3.0 {
		t.Fatalf("SetMax = %v, want 3", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBuckets("h", []float64{1, 2, 5})
	// le is inclusive: a value exactly on a bound lands in that bucket.
	for _, v := range []float64{0.5, 1.0, 1.5, 2.0, 5.0, 5.1} {
		h.Observe(v)
	}
	want := []int64{2, 2, 1} // (-inf,1], (1,2], (2,5]
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket le=%v count = %d, want %d", h.uppers[i], got, w)
		}
	}
	if got := h.inf.Load(); got != 1 {
		t.Errorf("+Inf bucket = %d, want 1", got)
	}
	if got := h.Count(); got != 6 {
		t.Errorf("count = %d, want 6", got)
	}
	if got, want := h.Sum(), 0.5+1.0+1.5+2.0+5.0+5.1; got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
}

// TestRegistryRaceHammer exercises concurrent lookup and update across all
// instrument kinds; run with -race it is the registry's concurrency test.
func TestRegistryRaceHammer(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("hits_total", "worker", "shared").Inc()
				r.Gauge("depth").SetMax(float64(i))
				r.Gauge("level").Add(1)
				r.Histogram("lat_seconds").Observe(float64(i) * 1e-4)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total", "worker", "shared").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("level").Value(); got != 8000 {
		t.Errorf("gauge Add total = %v, want 8000", got)
	}
	if got := r.Gauge("depth").Value(); got != 999 {
		t.Errorf("gauge max = %v, want 999", got)
	}
	if got := r.Histogram("lat_seconds").Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

// TestNilSinkIsFree pins the disabled path: every instrumentation call on
// a nil sink (and the nil instruments it returns) must be allocation-free
// no-ops — that is what lets library code stay instrumented
// unconditionally.
func TestNilSinkIsFree(t *testing.T) {
	var s *Sink
	allocs := testing.AllocsPerRun(100, func() {
		s.Counter("c").Inc()
		s.Counter("c").Add(3)
		s.Gauge("g").Set(1)
		s.Gauge("g").SetMax(2)
		s.Histogram("h").Observe(0.5)
		sp := s.Span("stage")
		sp.SetItems(10)
		sp.Child("sub").End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("nil-sink instrumentation allocated %.1f times per run, want 0", allocs)
	}
	if Active() != nil {
		t.Fatal("test assumes no active sink")
	}
	allocs = testing.AllocsPerRun(100, func() {
		Active().Counter("c").Inc()
	})
	if allocs != 0 {
		t.Fatalf("Active() nil path allocated %.1f times per run, want 0", allocs)
	}
}

func TestSinkNilFieldsSafe(t *testing.T) {
	s := &Sink{} // no registry, no tracer, no clock
	s.Counter("c").Inc()
	s.Gauge("g").Set(1)
	s.Histogram("h").Observe(1)
	s.StartTimer("t")()
	if sp := s.Span("x"); sp != nil {
		t.Fatal("Span on tracerless sink should be nil")
	}
	if c := s.Counter("c"); c.Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
}

func TestOddLabelsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd label list did not panic")
		}
	}()
	NewRegistry().Counter("c", "dangling-key")
}
