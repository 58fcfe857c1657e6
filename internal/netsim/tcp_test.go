package netsim

import "testing"

// twoNodeTCP wires a duplex path 0↔1 and returns the network.
func twoNodeTCP(rate float64, prop float64, qcap int) (*Simulator, *Network) {
	var sim Simulator
	nw := NewNetwork(&sim, 2)
	nw.AddDuplex(0, 1, rate, prop, qcap)
	nw.SetFlowPath(1, []int{0, 1})
	nw.SetFlowPath(1, []int{1, 0}) // reverse path for ACKs
	return &sim, nw
}

func TestTCPCompletesCleanPath(t *testing.T) {
	sim, nw := twoNodeTCP(10e6, 0.005, 0)
	var fct float64 = -1
	c := &TCPConn{Net: nw, Flow: 1, Src: 0, Dst: 1, FlowSize: 100_000, InitRTT: 0.01,
		Done: func(f float64) { fct = f }}
	c.Start()
	sim.Run(10)
	if fct < 0 {
		t.Fatal("transfer did not complete")
	}
	// Lower bound: transfer time at line rate + 1 RTT ≈ 80ms + 10ms.
	if fct < 0.08 {
		t.Fatalf("FCT %v faster than line rate", fct)
	}
	if fct > 1 {
		t.Fatalf("FCT %v unreasonably slow on a clean path", fct)
	}
}

func TestTCPCompletesWithTinyQueue(t *testing.T) {
	// Queue of 5 packets forces drops; Reno must still finish via fast
	// retransmit / RTO.
	sim, nw := twoNodeTCP(10e6, 0.005, 5)
	done := false
	c := &TCPConn{Net: nw, Flow: 1, Src: 0, Dst: 1, FlowSize: 200_000, InitRTT: 0.01,
		Done: func(f float64) { done = true }}
	c.Start()
	sim.Run(60)
	if !done {
		t.Fatal("transfer did not survive a lossy bottleneck")
	}
}

func TestTCPDeliversExactBytes(t *testing.T) {
	sim, nw := twoNodeTCP(10e6, 0.002, 0)
	var rxPayload int64
	// Wrap the connection's handler to count payload bytes first.
	c := &TCPConn{Net: nw, Flow: 1, Src: 0, Dst: 1, FlowSize: 14_600, InitRTT: 0.01}
	c.Start()
	inner := nw.flows[1].deliver
	seen := map[int64]bool{}
	nw.OnDeliver(1, func(p *Packet) {
		if p.Kind == Data && !seen[p.Seq] {
			seen[p.Seq] = true
			rxPayload += int64(p.Size - 40)
		}
		inner(p)
	})
	sim.Run(10)
	if rxPayload != 14_600 {
		t.Fatalf("unique payload delivered = %d, want 14600", rxPayload)
	}
}

func TestTCPPacingReducesBurstQueue(t *testing.T) {
	// The Fig 6 mechanism in miniature: a fast ingress (1 Gbps) into a slow
	// egress (10 Mbps). Without pacing the initial window lands as a burst
	// in the egress queue; with pacing it is spread over the SRTT estimate.
	run := func(pacing bool) int {
		var sim Simulator
		nw := NewNetwork(&sim, 3)
		nw.AddDuplex(0, 1, 1e9, 0.001, 0)  // source → M, fast
		nw.AddDuplex(1, 2, 10e6, 0.005, 0) // M → sink, slow, unbounded queue
		nw.SetFlowPath(1, []int{0, 1, 2})
		nw.SetFlowPath(1, []int{2, 1, 0})
		bottleneck := nw.Link(1, 2)
		// One initial window exactly (10 segments): the entire flow goes out
		// as the pre-ACK-clock burst that pacing is meant to smooth.
		c := &TCPConn{Net: nw, Flow: 1, Src: 0, Dst: 2, FlowSize: 14_600,
			Pacing: pacing, InitRTT: 0.05}
		c.Start()
		sim.Run(30)
		return bottleneck.MaxQueueLen()
	}
	unpaced := run(false)
	paced := run(true)
	if paced >= unpaced {
		t.Fatalf("pacing did not reduce peak queue: paced=%d unpaced=%d", paced, unpaced)
	}
	t.Logf("peak bottleneck queue: unpaced=%d pkts, paced=%d pkts", unpaced, paced)
}

func TestTCPFCTUnaffectedByPacingOnCleanPath(t *testing.T) {
	// Fig 6(b): pacing does not hurt flow completion times materially.
	run := func(pacing bool) float64 {
		sim, nw := twoNodeTCP(100e6, 0.005, 0)
		var fct float64
		c := &TCPConn{Net: nw, Flow: 1, Src: 0, Dst: 1, FlowSize: 100_000,
			Pacing: pacing, InitRTT: 0.01, Done: func(f float64) { fct = f }}
		c.Start()
		sim.Run(10)
		return fct
	}
	up, p := run(false), run(true)
	if up == 0 || p == 0 {
		t.Fatal("a transfer did not finish")
	}
	if p > up*3 {
		t.Fatalf("pacing tripled FCT: %v vs %v", p, up)
	}
}

func TestTCPSmallFlow(t *testing.T) {
	sim, nw := twoNodeTCP(10e6, 0.001, 0)
	done := false
	c := &TCPConn{Net: nw, Flow: 1, Src: 0, Dst: 1, FlowSize: 100, // < 1 MSS
		Done: func(f float64) { done = true }}
	c.Start()
	sim.Run(5)
	if !done {
		t.Fatal("sub-MSS flow did not complete")
	}
}

func TestTCPFastRecoverySingleLossNoRTO(t *testing.T) {
	// A single mid-flow loss must be repaired by fast retransmit + fast
	// recovery, without the retransmission timer ever firing. Before the
	// recovery fix, a loss-side window of dup ACKs transmitted nothing and
	// the flow stalled until RTO — silently inflating every reported FCT.
	sim, nw := twoNodeTCP(10e6, 0.005, 0)
	dropped := false
	nw.Link(0, 1).Drop = func(p *Packet) bool {
		if p.Kind == Data && p.Seq == 30 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	var fct float64 = -1
	c := &TCPConn{Net: nw, Flow: 1, Src: 0, Dst: 1, FlowSize: 200_000, InitRTT: 0.01,
		Done: func(f float64) { fct = f }}
	c.Start()
	sim.Run(30)
	if !dropped {
		t.Fatal("loss injection never triggered")
	}
	if fct < 0 {
		t.Fatal("transfer did not complete after a single loss")
	}
	if c.RTOCount != 0 {
		t.Fatalf("RTO fired %d times; fast recovery should repair a single loss", c.RTOCount)
	}
	// Clean-path FCT for this transfer is ~0.19 s; one fast-recovered loss
	// costs about an RTT plus the halved window, not an RTO (>= 200 ms).
	if fct > 0.5 {
		t.Fatalf("FCT %.3f s suggests a stall, not fast recovery", fct)
	}
}

func TestTCPDupAckInflationKeepsSending(t *testing.T) {
	// During recovery, each additional dup ACK must inflate cwnd and allow
	// a new transmission: the highest sequence on the wire should keep
	// growing between the fast retransmit and the recovery ACK.
	sim, nw := twoNodeTCP(10e6, 0.005, 0)
	dropped := false
	var sentAfterRetx []int64
	inRecoveryWindow := false
	nw.Link(0, 1).Drop = func(p *Packet) bool {
		if p.Kind != Data {
			return false
		}
		if p.Seq == 20 && !dropped {
			dropped = true
			inRecoveryWindow = true
			return true
		}
		if inRecoveryWindow && p.Seq > 20 {
			sentAfterRetx = append(sentAfterRetx, p.Seq)
		}
		return false
	}
	done := false
	c := &TCPConn{Net: nw, Flow: 1, Src: 0, Dst: 1, FlowSize: 300_000, InitRTT: 0.01,
		Done: func(f float64) { done = true }}
	c.Start()
	sim.Run(30)
	if !done {
		t.Fatal("transfer did not complete")
	}
	if len(sentAfterRetx) == 0 {
		t.Fatal("no new segments transmitted after the loss — recovery inflation missing")
	}
}

func TestTCPPendingStaysBounded(t *testing.T) {
	// The RTO timer is a single outstanding event per connection; the event
	// heap must stay O(window), not O(packets). A 2 MB transfer is ~1370
	// segments: with the old closure-per-ACK arming, hundreds of dead
	// timers accumulated in the heap.
	sim, nw := twoNodeTCP(10e6, 0.005, 50)
	done := false
	c := &TCPConn{Net: nw, Flow: 1, Src: 0, Dst: 1, FlowSize: 2_000_000, InitRTT: 0.01,
		Done: func(f float64) { done = true }}
	c.Start()
	maxPending := 0
	var sample func()
	sample = func() {
		if done {
			return
		}
		if p := sim.Pending(); p > maxPending {
			maxPending = p
		}
		sim.Schedule(0.005, sample)
	}
	sim.Schedule(0.005, sample)
	sim.Run(60)
	if !done {
		t.Fatal("transfer did not complete")
	}
	// Events at any instant: per-link tx completion (<= 2 links), packets
	// waiting on the links' delay lines (<= queue + BDP; Pending counts
	// them although only each line's head sits in the heap), one RTO
	// timer, one sampler. The 50-packet queue bounds in-flight data; 120
	// is comfortably above the legitimate ceiling and far below
	// O(packets) = 1370.
	if maxPending > 120 {
		t.Fatalf("event heap grew to %d entries; RTO timers are leaking", maxPending)
	}
}

// TestPacketHopsDoNotAllocate pins the packet engine's allocation rate on
// the 2 MB transfer of TestTCPPendingStaysBounded. Once the packet pool,
// the link queues, the delay lines and the event heap have grown to the
// run's working set, a hop allocates nothing, so the run's allocations
// are its set-up and those growth steps: about 110 over ~5 700 events.
func TestPacketHopsDoNotAllocate(t *testing.T) {
	var events int64
	allocs := testing.AllocsPerRun(2, func() {
		sim, nw := twoNodeTCP(10e6, 0.005, 50)
		c := &TCPConn{Net: nw, Flow: 1, Src: 0, Dst: 1, FlowSize: 2_000_000, InitRTT: 0.01}
		c.Start()
		sim.Run(60)
		if !c.finished {
			t.Fatal("transfer did not complete")
		}
		events = sim.Processed()
	})
	if per := allocs / float64(events); per > 0.05 {
		t.Fatalf("%.0f allocations over %d events: %.3f per event, want <= 0.05", allocs, events, per)
	}
}

func TestTCPThroughputApproachesLineRate(t *testing.T) {
	sim, nw := twoNodeTCP(50e6, 0.002, 0)
	var fct float64
	const size = 2_000_000
	c := &TCPConn{Net: nw, Flow: 1, Src: 0, Dst: 1, FlowSize: size, InitRTT: 0.004,
		Done: func(f float64) { fct = f }}
	c.Start()
	sim.Run(30)
	if fct == 0 {
		t.Fatal("did not finish")
	}
	gput := float64(size) * 8 / fct
	if gput < 0.5*50e6 {
		t.Fatalf("goodput %v bps — less than half of the 50 Mbps line", gput)
	}
	if gput > 50e6 {
		t.Fatalf("goodput %v exceeds line rate", gput)
	}
}
