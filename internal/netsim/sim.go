// Package netsim is a two-mode network simulation engine — the in-repo
// substitute for ns-3 in the paper's routing and queuing study (§5) and
// traffic-mix study (§6.4); see DESIGN.md §6.
//
// Packet mode is a discrete-event packet-level simulator: store-and-forward
// routers with FIFO queues, fixed-rate links with propagation delay, UDP
// constant-rate and Poisson sources, a simplified TCP Reno with fast
// recovery and optional pacing (for the Fig 6 speed-mismatch experiment),
// per-flow delay/loss accounting (FlowMonitor-equivalent), and per-link
// utilization monitoring.
//
// Fluid mode (FluidSim) is a flow-level simulator that advances each flow
// at the max-min fair share of its path with event-driven rate
// recomputation on arrival/departure, scaling the same scenarios to
// 10⁵–10⁶ concurrent flows.
//
// Both modes run from a shared declarative Scenario and route identically
// (ComputeRoutes) under the three §5 schemes: latency-shortest paths,
// minimise-maximum-link-utilization, and throughput-optimal (widest-path)
// routing. A run first expands its Scenario once, whatever the mode: the
// routed commodities, each clone flow's path, payload and start time, and
// the failure and path-update actions in the order they apply. Each engine
// only materializes that expansion, and malformed input (a path that does
// not connect its commodity, an update with no positive fraction, a
// failure on an unknown link) panics there, before either engine starts.
// Bulk runs fan out over internal/parallel via RunMany.
package netsim

import "cisp/internal/xheap"

// Simulator is a discrete-event scheduler. The zero value is ready to use.
//
// Besides the event heap, a link's packets in propagation wait on the
// link's delay line (net.go), a FIFO already sorted by (time, sequence).
// Only each line's head sits in the heap, under the key it was stamped
// with, so the heap pops the same global order as if every packet were
// its own event. The counters treat every line entry as one event.
type Simulator struct {
	now        float64 // seconds
	seq        int64
	processed  int64
	parked     int // stamped events waiting on delay lines, outside the heap
	maxPending int
	events     []event
}

type event struct {
	at  float64
	seq int64 // FIFO tie-break for simultaneous events
	fn  func()
}

// eventLess orders events by time, FIFO within a timestamp. Top-level so
// the xheap call sites pass a static (non-capturing, non-allocating) func.
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Now returns the current simulation time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// Schedule runs fn after delay seconds of simulated time. Negative delays
// are clamped to zero (run "now", after pending same-time events).
//
//cisp:hotpath
func (s *Simulator) Schedule(delay float64, fn func()) {
	at, seq := s.stamp(delay)
	s.push(at, seq, fn)
}

// stamp returns the key (time, sequence) Schedule(delay, ·) would give an
// event now, and counts the event as pending but parked: its caller holds
// it on a delay line until push hands it to the heap.
//
//cisp:hotpath
func (s *Simulator) stamp(delay float64) (at float64, seq int64) {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	s.parked++
	if n := len(s.events) + s.parked; n > s.maxPending {
		s.maxPending = n
	}
	return s.now + delay, s.seq
}

// push moves a stamped, parked event into the heap under its key.
//
//cisp:hotpath
func (s *Simulator) push(at float64, seq int64, fn func()) {
	s.parked--
	xheap.Push(&s.events, event{at: at, seq: seq, fn: fn}, eventLess)
}

// Run processes events until the queue drains or simulated time reaches
// until (inclusive of events scheduled exactly at until).
//
//cisp:hotpath
func (s *Simulator) Run(until float64) {
	for len(s.events) > 0 {
		e := s.events[0]
		if e.at > until {
			break
		}
		xheap.Pop(&s.events, eventLess)
		if e.at > s.now {
			s.now = e.at
		}
		s.processed++
		e.fn()
	}
	if s.now < until {
		s.now = until
	}
}

// Pending returns the number of queued events, packets waiting on delay
// lines included (useful in tests).
func (s *Simulator) Pending() int { return len(s.events) + s.parked }

// Processed returns the number of events executed so far; the benchmark
// harness divides wall time by it to report ns/event.
func (s *Simulator) Processed() int64 { return s.processed }

// MaxPending returns the high-water mark of Pending — the observability
// layer's heap-depth figure. The heap itself stays shallower: it holds one
// entry per delay line, not one per packet in propagation.
func (s *Simulator) MaxPending() int { return s.maxPending }
