package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cisp/internal/xheap"
)

func TestEventOrdering(t *testing.T) {
	var sim Simulator
	var got []int
	sim.Schedule(0.3, func() { got = append(got, 3) })
	sim.Schedule(0.1, func() { got = append(got, 1) })
	sim.Schedule(0.2, func() { got = append(got, 2) })
	sim.Run(1)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events ran in order %v", got)
	}
	if sim.Now() != 1 {
		t.Fatalf("Now = %v, want 1 after Run(1)", sim.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	var sim Simulator
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		sim.Schedule(0.5, func() { got = append(got, i) })
	}
	sim.Run(1)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	var sim Simulator
	fired := false
	sim.Schedule(2.0, func() { fired = true })
	sim.Run(1.0)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if sim.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", sim.Pending())
	}
	sim.Run(3.0)
	if !fired {
		t.Fatal("event did not fire on extended run")
	}
}

func TestNestedScheduling(t *testing.T) {
	var sim Simulator
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			sim.Schedule(0.1, tick)
		}
	}
	sim.Schedule(0.1, tick)
	sim.Run(10)
	if count != 10 {
		t.Fatalf("ticks = %d, want 10", count)
	}
	if math.Abs(sim.Now()-10) > 1e-12 {
		t.Fatalf("Now = %v", sim.Now())
	}
}

// TestLinkArrivalsKeepSchedulingOrder holds a link's arrivals to the
// (time, sequence) order of every other event. Rates and delays are
// powers of two, so every time below is exact. Four 1024-byte packets
// cross a 2¹⁶ bps link with 0.5 s of delay: transmissions end at 0.125,
// 0.25, 0.375 and 0.5 s, and arrivals fall at 0.625, 0.75, 0.875 and
// 1 s. Two closures are due at 0.75 s as well: one scheduled at t = 0,
// before the second arrival was, and one scheduled at 0.3125 s, after it.
// The arrival must run between them. A probe at 0.5625 s, when every
// packet is on the wire, sees all four arrivals pending.
func TestLinkArrivalsKeepSchedulingOrder(t *testing.T) {
	var sim Simulator
	nw := NewNetwork(&sim, 2)
	nw.AddLink(0, 1, 1<<16, 0.5, 0)
	nw.SetFlowPath(1, []int{0, 1})
	type entry struct {
		at   float64
		what string
	}
	var got []entry
	note := func(what string) { got = append(got, entry{sim.Now(), what}) }
	nw.OnDeliver(1, func(p *Packet) { note(fmt.Sprintf("arrive %d", p.Seq)) })
	for s := int64(1); s <= 4; s++ {
		nw.Inject(&Packet{Flow: 1, Seq: s, Size: 1024, Src: 0, Dst: 1})
	}
	sim.Schedule(0.75, func() { note("early") })
	sim.Schedule(0.3125, func() { sim.Schedule(0.4375, func() { note("late") }) })
	sim.Schedule(0.5625, func() { note(fmt.Sprintf("pending %d", sim.Pending())) })
	sim.Run(2)
	want := []entry{
		{0.5625, "pending 6"}, // four arrivals plus "early" and "late"
		{0.625, "arrive 1"},
		{0.75, "early"},
		{0.75, "arrive 2"},
		{0.75, "late"},
		{0.875, "arrive 3"},
		{1, "arrive 4"},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("events ran as\n%v\nwant\n%v", got, want)
	}
	// Four transmissions, four arrivals, four closures. Pending peaks at
	// seven from 0.375 s: three arrivals and the fourth transmission (or,
	// from 0.5 s, four arrivals) beside "early", the probe and "late".
	if sim.Processed() != 12 || sim.MaxPending() != 7 || sim.Pending() != 0 {
		t.Fatalf("processed %d, max pending %d, pending %d; want 12, 7, 0",
			sim.Processed(), sim.MaxPending(), sim.Pending())
	}
}

func TestSingleLinkTiming(t *testing.T) {
	// 1000-byte packet over 1 Mbps with 5 ms propagation: arrival at
	// 8 ms (tx) + 5 ms (prop) = 13 ms.
	var sim Simulator
	nw := NewNetwork(&sim, 2)
	nw.AddLink(0, 1, 1e6, 0.005, 0)
	nw.SetFlowPath(7, []int{0, 1})
	var arrived float64 = -1
	nw.OnDeliver(7, func(p *Packet) { arrived = sim.Now() })
	nw.Inject(&Packet{Flow: 7, Size: 1000, Src: 0, Dst: 1})
	sim.Run(1)
	if math.Abs(arrived-0.013) > 1e-9 {
		t.Fatalf("arrival at %v, want 0.013", arrived)
	}
}

func TestQueueingDelaySerializes(t *testing.T) {
	// Two packets injected simultaneously: second arrives one tx-time later.
	var sim Simulator
	nw := NewNetwork(&sim, 2)
	nw.AddLink(0, 1, 1e6, 0, 0)
	nw.SetFlowPath(1, []int{0, 1})
	var arrivals []float64
	nw.OnDeliver(1, func(p *Packet) { arrivals = append(arrivals, sim.Now()) })
	nw.Inject(&Packet{Flow: 1, Size: 1000, Src: 0, Dst: 1})
	nw.Inject(&Packet{Flow: 1, Size: 1000, Src: 0, Dst: 1})
	sim.Run(1)
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if math.Abs(arrivals[1]-arrivals[0]-0.008) > 1e-9 {
		t.Fatalf("second packet spaced %v, want 0.008 (serialization)", arrivals[1]-arrivals[0])
	}
}

func TestQueueCapDrops(t *testing.T) {
	var sim Simulator
	nw := NewNetwork(&sim, 2)
	l := nw.AddLink(0, 1, 1e6, 0, 2)
	nw.SetFlowPath(1, []int{0, 1})
	delivered := 0
	nw.OnDeliver(1, func(p *Packet) { delivered++ })
	for i := 0; i < 10; i++ {
		nw.Inject(&Packet{Flow: 1, Size: 1000, Src: 0, Dst: 1})
	}
	sim.Run(1)
	// One in flight + 2 queued survive the burst.
	if delivered != 3 {
		t.Fatalf("delivered = %d, want 3", delivered)
	}
	if l.Drops != 7 {
		t.Fatalf("drops = %d, want 7", l.Drops)
	}
}

func TestMultiHopForwarding(t *testing.T) {
	var sim Simulator
	nw := NewNetwork(&sim, 4)
	nw.AddDuplex(0, 1, 1e9, 0.001, 0)
	nw.AddDuplex(1, 2, 1e9, 0.002, 0)
	nw.AddDuplex(2, 3, 1e9, 0.003, 0)
	nw.SetFlowPath(5, []int{0, 1, 2, 3})
	var at float64 = -1
	nw.OnDeliver(5, func(p *Packet) { at = sim.Now() })
	nw.Inject(&Packet{Flow: 5, Size: 500, Src: 0, Dst: 3})
	sim.Run(1)
	wantProp := 0.001 + 0.002 + 0.003
	wantTx := 3 * (500 * 8 / 1e9)
	if math.Abs(at-(wantProp+wantTx)) > 1e-9 {
		t.Fatalf("end-to-end %v, want %v", at, wantProp+wantTx)
	}
}

func TestUtilization(t *testing.T) {
	var sim Simulator
	nw := NewNetwork(&sim, 2)
	l := nw.AddLink(0, 1, 1e6, 0, 0)
	nw.SetFlowPath(1, []int{0, 1})
	nw.OnDeliver(1, func(p *Packet) {})
	// 50 packets of 1000B at 1 Mbps = 0.4 s busy in a 1 s window.
	for i := 0; i < 50; i++ {
		nw.Inject(&Packet{Flow: 1, Size: 1000, Src: 0, Dst: 1})
	}
	sim.Run(1)
	if u := l.Utilization(1); math.Abs(u-0.4) > 1e-6 {
		t.Fatalf("utilization = %v, want 0.4", u)
	}
}

func TestUtilizationTruncatedHorizon(t *testing.T) {
	// A packet mid-transmission at the horizon must be pro-rated, not
	// credited in full at tx start. 1000 B at 1 Mbps = 8 ms of tx starting
	// at t = 0.5; at t = 0.504 the link has been busy 4 ms of 504 ms.
	var sim Simulator
	nw := NewNetwork(&sim, 2)
	l := nw.AddLink(0, 1, 1e6, 0, 0)
	nw.SetFlowPath(1, []int{0, 1})
	nw.OnDeliver(1, func(p *Packet) {})
	sim.Schedule(0.5, func() {
		nw.Inject(&Packet{Flow: 1, Size: 1000, Src: 0, Dst: 1})
	})
	sim.Run(0.504)
	want := 0.004 / 0.504
	if u := l.Utilization(sim.Now()); math.Abs(u-want) > 1e-9 {
		t.Fatalf("mid-packet utilization = %v, want %v (pro-rated)", u, want)
	}
	// After the transmission completes, the full 8 ms is credited.
	sim.Run(0.508)
	want = 0.008 / 0.508
	if u := l.Utilization(sim.Now()); math.Abs(u-want) > 1e-9 {
		t.Fatalf("completed utilization = %v, want %v", u, want)
	}
}

func TestLinkDropHook(t *testing.T) {
	var sim Simulator
	nw := NewNetwork(&sim, 2)
	l := nw.AddLink(0, 1, 1e6, 0, 0)
	nw.SetFlowPath(1, []int{0, 1})
	delivered := 0
	nw.OnDeliver(1, func(p *Packet) { delivered++ })
	l.Drop = func(p *Packet) bool { return p.Seq == 2 }
	for s := int64(1); s <= 3; s++ {
		nw.Inject(&Packet{Flow: 1, Seq: s, Size: 500, Src: 0, Dst: 1})
	}
	sim.Run(1)
	if delivered != 2 || l.Drops != 1 {
		t.Fatalf("delivered=%d drops=%d, want 2/1", delivered, l.Drops)
	}
}

func TestUDPSourceCBR(t *testing.T) {
	var sim Simulator
	nw := NewNetwork(&sim, 2)
	nw.AddLink(0, 1, 1e9, 0.004, 0)
	nw.SetFlowPath(1, []int{0, 1})
	mon := NewFlowMonitor()
	src := &UDPSource{Net: nw, Flow: 1, Src: 0, Dst: 1, RateBps: 4e6, PktSize: 500, Monitor: mon}
	src.Start()
	sim.Run(1)
	src.Stop()
	sim.Run(1.5) // drain in-flight packets
	f := mon.Flow(1)
	// 4 Mbps / (500B*8) = 1000 pkt/s.
	if f.TxPackets < 990 || f.TxPackets > 1010 {
		t.Fatalf("tx = %d, want ~1000", f.TxPackets)
	}
	if f.LossRate() != 0 {
		t.Fatalf("loss on uncongested link: %v", f.LossRate())
	}
	// Mean delay ≈ prop + tx = 4 ms + 4 µs.
	if d := f.MeanDelay(); math.Abs(d-0.004004) > 1e-6 {
		t.Fatalf("mean delay = %v, want ~4.004 ms", d)
	}
}

func TestUDPOverloadLoses(t *testing.T) {
	var sim Simulator
	nw := NewNetwork(&sim, 2)
	nw.AddLink(0, 1, 1e6, 0.001, 20) // 1 Mbps bottleneck
	nw.SetFlowPath(1, []int{0, 1})
	mon := NewFlowMonitor()
	src := &UDPSource{Net: nw, Flow: 1, Src: 0, Dst: 1, RateBps: 2e6, PktSize: 500, Monitor: mon}
	src.Start()
	sim.Run(2)
	src.Stop()
	sim.Run(3) // drain
	loss := mon.Flow(1).LossRate()
	// Offered 2x capacity: ~50% loss.
	if loss < 0.4 || loss > 0.6 {
		t.Fatalf("loss = %v, want ~0.5", loss)
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	if p := Percentile(vals, 50); p != 3 {
		t.Fatalf("median = %v", p)
	}
	if p := Percentile(vals, 0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := Percentile(vals, 100); p != 5 {
		t.Fatalf("p100 = %v", p)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty percentile should be NaN")
	}
}

// binarySim is the reference event queue: the simulator's scheduling and
// counting over xheap's binary heap.
type binarySim struct {
	now        float64
	seq        int64
	maxPending int
	events     []event
}

func (s *binarySim) Now() float64    { return s.now }
func (s *binarySim) Pending() int    { return len(s.events) }
func (s *binarySim) MaxPending() int { return s.maxPending }

func (s *binarySim) Schedule(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	xheap.Push(&s.events, event{at: s.now + delay, seq: s.seq, fn: fn}, eventLess)
	s.maxPending = max(s.maxPending, len(s.events))
}

func (s *binarySim) Run(until float64) {
	for len(s.events) > 0 && s.events[0].at <= until {
		e := xheap.Pop(&s.events, eventLess)
		s.now = max(s.now, e.at)
		e.fn()
	}
	s.now = max(s.now, until)
}

type queueSim interface {
	Schedule(delay float64, fn func())
	Run(until float64)
	Now() float64
	Pending() int
	MaxPending() int
}

// driveQueue runs a seeded script of scheduling bursts and partial runs.
// Delays come from four values on a 0.5 s grid, so many events share a
// timestamp, and events schedule further events when they run (up to three
// generations deep). It returns the order events ran in, with the clock at
// each, and Pending and MaxPending after every step.
func driveQueue(sim queueSim, seed int64) (ran []string, counts [][2]int) {
	rng := rand.New(rand.NewSource(seed))
	delays := []float64{0, 0.5, 1, 1.5}
	id := 0
	var schedule func(gen int)
	schedule = func(gen int) {
		id++
		me := id
		sim.Schedule(delays[rng.Intn(len(delays))], func() {
			ran = append(ran, fmt.Sprintf("%d@%v", me, sim.Now()))
			if gen < 3 {
				for k := rng.Intn(3); k > 0; k-- {
					schedule(gen + 1)
				}
			}
		})
	}
	for step := 0; step < 200; step++ {
		if rng.Intn(2) == 0 {
			for k := rng.Intn(40); k > 0; k-- {
				schedule(0)
			}
		} else {
			sim.Run(sim.Now() + delays[rng.Intn(len(delays))])
		}
		counts = append(counts, [2]int{sim.Pending(), sim.MaxPending()})
	}
	sim.Run(math.Inf(1))
	counts = append(counts, [2]int{sim.Pending(), sim.MaxPending()})
	return ran, counts
}

// TestEventQueueMatchesBinaryHeap: the simulator's 4-ary event heap runs
// events in the same order as a binary heap over the same keys, with the
// same Pending and MaxPending after every step, on tie-heavy scripts with
// nested scheduling.
func TestEventQueueMatchesBinaryHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		got, gotCounts := driveQueue(&Simulator{}, seed)
		want, wantCounts := driveQueue(&binarySim{}, seed)
		if !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("seed %d: event %d ran as %s, binary heap ran %s", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: %d events ran, binary heap ran %d", seed, len(got), len(want))
		}
		if !slices.Equal(gotCounts, wantCounts) {
			t.Fatalf("seed %d: (Pending, MaxPending) %v, binary heap %v", seed, gotCounts, wantCounts)
		}
		if gotCounts[len(gotCounts)-1][1] < 100 {
			t.Fatalf("seed %d: the heap never held more than %d events", seed, gotCounts[len(gotCounts)-1][1])
		}
	}
}
