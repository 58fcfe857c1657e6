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
	events     eventHeap
}

type event struct {
	at  float64
	seq int64 // FIFO tie-break for simultaneous events
	fn  func()
}

// eventLess orders events by time, FIFO within a timestamp.
func eventLess(a, b event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventHeap is the simulator's event queue: a 4-ary min-heap under
// eventLess, the children of slot i at 4i+1 … 4i+4. Every event's
// (at, seq) key is unique, so any exact min-heap pops the same sequence;
// four children per slot make it half as deep as a binary heap, and its
// sifts call eventLess directly rather than through a function value.
type eventHeap []event

// push adds e.
//
//cisp:hotpath
func (h *eventHeap) push(e event) {
	//lint:allow hotpathalloc -- amortized growth of the heap's backing array
	q := append(*h, e)
	j := len(q) - 1
	for j > 0 {
		p := (j - 1) / 4
		if !eventLess(e, q[p]) {
			break
		}
		q[j] = q[p]
		j = p
	}
	q[j] = e
	*h = q
}

// pop removes the minimum event; the heap must not be empty. The last
// event fills the hole the minimum leaves, sifted down from the root.
//
//cisp:hotpath
func (h *eventHeap) pop() {
	q := *h
	n := len(q) - 1
	x := q[n]
	q[n] = event{} // release the vacated slot's closure
	q = q[:n]
	*h = q
	if n == 0 {
		return
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		if c+3 < n {
			if eventLess(q[c+1], q[m]) {
				m = c + 1
			}
			if eventLess(q[c+2], q[m]) {
				m = c + 2
			}
			if eventLess(q[c+3], q[m]) {
				m = c + 3
			}
		} else {
			for k := c + 1; k < n; k++ {
				if eventLess(q[k], q[m]) {
					m = k
				}
			}
		}
		if !eventLess(q[m], x) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = x
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
	s.events.push(event{at: at, seq: seq, fn: fn})
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
		s.events.pop()
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
