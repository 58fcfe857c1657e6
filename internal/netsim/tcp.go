package netsim

import "math"

// TCPConn is a simplified TCP Reno sender/receiver pair for the Fig 6
// speed-mismatch study: slow start, congestion avoidance, fast retransmit
// plus fast recovery on triple duplicate ACKs, retransmission timeouts, and
// optional packet pacing (sends spaced at cwnd per SRTT rather than
// back-to-back on ACK clocking).
//
// The connection transfers FlowSize bytes of payload in MSS-sized segments;
// Done is invoked with the flow completion time once the final segment is
// cumulatively acknowledged.
type TCPConn struct {
	Net      *Network
	Flow     int
	Src, Dst int
	FlowSize int // payload bytes
	MSS      int // payload bytes per segment (default 1460)
	Pacing   bool
	InitRTT  float64 // initial SRTT estimate, seconds (default 50 ms)
	Done     func(fct float64)

	// RTOCount counts retransmission-timeout firings (visible to tests and
	// experiments: a healthy fast-recovery path keeps it at zero for
	// isolated losses).
	RTOCount int

	// Sender state (packet sequence numbers are 1-based).
	nPkts      int64
	sndUna     int64 // lowest unacked
	sndNxt     int64 // next sequence to send
	maxSent    int64 // highest sequence ever emitted (Karn marking on re-sends)
	cwnd       float64
	ssthresh   float64
	dupAcks    int
	inRecovery bool // between fast retransmit and the next new ACK
	srtt       float64
	rttvar     float64
	rto        float64
	sentAt     []float64 // indexed by seq; NaN = not outstanding
	retxMark   []bool    // Karn: retransmitted, no RTT sample
	startTime  float64
	finished   bool

	// Retransmission timer: a single outstanding event per connection.
	// ACK processing only moves the deadline; the timer lazily reschedules
	// itself when it fires early, so the event heap holds at most one
	// entry per connection instead of one stale closure per ACK.
	rtoDeadline float64
	rtoArmed    bool

	// Pacing.
	nextPaceAt float64

	// Receiver state.
	rcvNext int64
	rcvBuf  []bool // indexed by seq: received out of order
}

const ackSize = 40 // bytes on the wire for a pure ACK

const initCwnd = 10 // initial congestion window, packets

// minRTO is the retransmission-timer floor (RFC 6298 prescribes 1 s; Linux
// ships 200 ms). Without a floor well above one RTT, the timer fires
// spuriously during fast recovery — exactly the stall-then-collapse the
// recovery path is meant to avoid.
const minRTO = 0.2

// Start opens the connection and begins transmitting at the current
// simulation time. The forward (data) and reverse (ACK) paths must already
// be installed for c.Flow via SetFlowPath.
func (c *TCPConn) Start() {
	if c.MSS == 0 {
		c.MSS = 1460
	}
	if c.InitRTT == 0 {
		c.InitRTT = 0.05
	}
	c.nPkts = int64((c.FlowSize + c.MSS - 1) / c.MSS)
	if c.nPkts == 0 {
		c.nPkts = 1
	}
	c.sndUna, c.sndNxt = 1, 1
	c.cwnd = initCwnd
	c.ssthresh = 1e9
	c.srtt = c.InitRTT
	c.rttvar = c.InitRTT / 2
	c.rto = math.Max(c.srtt+4*c.rttvar, minRTO)
	c.sentAt = make([]float64, c.nPkts+1)
	for i := range c.sentAt {
		c.sentAt[i] = math.NaN()
	}
	c.retxMark = make([]bool, c.nPkts+1)
	c.rcvNext = 1
	c.rcvBuf = make([]bool, c.nPkts+2)
	c.startTime = c.Net.Sim.Now()
	c.nextPaceAt = c.startTime

	c.Net.OnDeliver(c.Flow, c.onPacket)
	c.trySend()
	c.armRTO()
}

// onPacket handles both data arriving at the receiver and ACKs arriving back
// at the sender (demuxed by Kind).
func (c *TCPConn) onPacket(p *Packet) {
	if p.Kind == Data {
		c.receiverOnData(p)
	} else {
		c.senderOnAck(p)
	}
}

func (c *TCPConn) receiverOnData(p *Packet) {
	if p.Seq >= c.rcvNext && p.Seq < int64(len(c.rcvBuf)) {
		c.rcvBuf[p.Seq] = true
	}
	for c.rcvNext < int64(len(c.rcvBuf)) && c.rcvBuf[c.rcvNext] {
		c.rcvNext++
	}
	// Cumulative ACK back to the sender.
	ack := c.Net.newPacket()
	ack.Flow, ack.Kind, ack.Size = c.Flow, Ack, ackSize
	ack.Src, ack.Dst, ack.AckNo = c.Dst, c.Src, c.rcvNext
	c.Net.Inject(ack)
}

func (c *TCPConn) senderOnAck(p *Packet) {
	if c.finished {
		return
	}
	if p.AckNo > c.sndUna {
		acked := p.AckNo - c.sndUna
		// RTT sample from the newest cumulatively acked, un-retransmitted
		// segment (Karn's rule).
		if s := p.AckNo - 1; s <= c.nPkts && !c.retxMark[s] && !math.IsNaN(c.sentAt[s]) {
			c.updateRTT(c.Net.Sim.Now() - c.sentAt[s])
		}
		c.sndUna = p.AckNo
		c.dupAcks = 0
		if c.inRecovery {
			// Fast recovery ends on the first new ACK: deflate the window
			// back to ssthresh (classic Reno).
			c.cwnd = c.ssthresh
			c.inRecovery = false
		} else if c.cwnd < c.ssthresh {
			c.cwnd += float64(acked) // slow start
		} else {
			c.cwnd += float64(acked) / c.cwnd // congestion avoidance
		}
		c.armRTO()
		if c.sndUna > c.nPkts {
			c.finish()
			return
		}
		c.trySend()
		return
	}
	// Duplicate ACK.
	c.dupAcks++
	if c.inRecovery {
		// Each further dup ACK signals another delivered segment: inflate
		// the window by one MSS and keep the pipe full. Without this the
		// sender transmits nothing during a loss-side window of dup ACKs
		// and stalls until the RTO fires.
		c.cwnd++
		c.trySend()
		return
	}
	if c.dupAcks == 3 {
		c.ssthresh = math.Max(c.cwnd/2, 2)
		c.resend(c.sndUna)
		// Inflate by the three segments the dup ACKs proved delivered.
		c.cwnd = c.ssthresh + 3
		c.inRecovery = true
		c.armRTO()
		c.trySend()
	}
}

func (c *TCPConn) updateRTT(sample float64) {
	const alpha, beta = 1.0 / 8, 1.0 / 4
	c.rttvar = (1-beta)*c.rttvar + beta*math.Abs(c.srtt-sample)
	c.srtt = (1-alpha)*c.srtt + alpha*sample
	c.rto = math.Max(c.srtt+4*c.rttvar, minRTO)
}

// Acked returns the payload bytes cumulatively acknowledged so far.
func (c *TCPConn) Acked() int64 {
	full := c.sndUna - 1
	if full <= 0 {
		return 0
	}
	if full >= c.nPkts {
		return int64(c.FlowSize)
	}
	return full * int64(c.MSS)
}

// trySend transmits as much of the window as allowed, paced or back-to-back.
func (c *TCPConn) trySend() {
	if c.finished {
		return
	}
	for c.sndNxt < c.sndUna+int64(c.cwnd) && c.sndNxt <= c.nPkts {
		if c.Pacing {
			now := c.Net.Sim.Now()
			// Pace at cwnd/SRTT, doubled during slow start so pacing does
			// not slow window growth (standard pacing-gain practice).
			rate := math.Max(c.cwnd, 1) / c.srtt
			if c.cwnd < c.ssthresh {
				rate *= 2
			}
			gap := 1 / rate
			at := math.Max(now, c.nextPaceAt)
			c.nextPaceAt = at + gap
			seq := c.sndNxt
			c.sndNxt++
			c.Net.Sim.Schedule(at-now, func() { c.emit(seq) })
		} else {
			seq := c.sndNxt
			c.sndNxt++
			c.emit(seq)
		}
	}
}

// emit puts one segment on the wire.
func (c *TCPConn) emit(seq int64) {
	if c.finished {
		return
	}
	size := c.MSS + 40 // header overhead
	if seq == c.nPkts {
		if rem := c.FlowSize % c.MSS; rem != 0 {
			size = rem + 40
		}
	}
	if seq <= c.maxSent {
		c.retxMark[seq] = true // Karn: no RTT sample from a re-sent segment
	} else {
		c.maxSent = seq
	}
	c.sentAt[seq] = c.Net.Sim.Now()
	p := c.Net.newPacket()
	p.Flow, p.Seq, p.Kind, p.Size = c.Flow, seq, Data, size
	p.Src, p.Dst = c.Src, c.Dst
	c.Net.Inject(p)
}

// resend re-emits a segment; emit's maxSent watermark applies the Karn mark.
func (c *TCPConn) resend(seq int64) { c.emit(seq) }

// armRTO pushes the retransmission deadline one RTO past now. The single
// outstanding timer event reschedules itself lazily, so this is O(1) and
// allocation-free on the per-ACK hot path.
func (c *TCPConn) armRTO() {
	c.rtoDeadline = c.Net.Sim.Now() + c.rto
	if !c.rtoArmed {
		c.rtoArmed = true
		c.Net.Sim.Schedule(c.rto, c.onRTOTimer)
	}
}

// onRTOTimer is the single retransmission-timer event. If ACKs have pushed
// the deadline past now, it re-arms for the remainder; otherwise the
// connection has been silent a full RTO: collapse to one segment and
// retransmit.
func (c *TCPConn) onRTOTimer() {
	if c.finished {
		c.rtoArmed = false
		return
	}
	now := c.Net.Sim.Now()
	if now < c.rtoDeadline {
		c.Net.Sim.Schedule(c.rtoDeadline-now, c.onRTOTimer)
		return
	}
	c.RTOCount++
	c.ssthresh = math.Max(c.cwnd/2, 2)
	c.cwnd = 1
	c.rto = math.Min(c.rto*2, 60)
	c.dupAcks = 0
	c.inRecovery = false
	// Go-back-N: slow-start retransmission resumes from the hole. Without
	// the rollback a multi-loss burst costs one backed-off RTO per hole.
	c.resend(c.sndUna)
	c.sndNxt = c.sndUna + 1
	c.rtoDeadline = now + c.rto
	c.Net.Sim.Schedule(c.rto, c.onRTOTimer)
}

func (c *TCPConn) finish() {
	c.finished = true
	if c.Done != nil {
		c.Done(c.Net.Sim.Now() - c.startTime)
	}
}
