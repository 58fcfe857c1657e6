package netsim

import (
	"math/rand"
	"sort"
)

// FlowStats accumulates FlowMonitor-style per-flow metrics.
type FlowStats struct {
	TxPackets int64
	RxPackets int64
	DelaySum  float64 // seconds, summed over delivered packets
}

// MeanDelay returns the mean one-way delay of delivered packets in seconds.
func (f *FlowStats) MeanDelay() float64 {
	if f.RxPackets == 0 {
		return 0
	}
	return f.DelaySum / float64(f.RxPackets)
}

// LossRate returns 1 - delivered/sent (0 when nothing was sent).
func (f *FlowStats) LossRate() float64 {
	if f.TxPackets == 0 {
		return 0
	}
	return 1 - float64(f.RxPackets)/float64(f.TxPackets)
}

// FlowMonitor aggregates per-flow stats, mirroring ns-3's FlowMonitor.
type FlowMonitor struct {
	flows map[int]*FlowStats
}

// NewFlowMonitor returns an empty monitor.
func NewFlowMonitor() *FlowMonitor { return &FlowMonitor{flows: make(map[int]*FlowStats)} }

// Flow returns (allocating if needed) the stats for a flow ID.
func (m *FlowMonitor) Flow(id int) *FlowStats {
	f := m.flows[id]
	if f == nil {
		f = &FlowStats{}
		m.flows[id] = f
	}
	return f
}

// Aggregate sums all per-flow stats. Flows are folded in ID order so the
// float DelaySum is bit-identical run to run (map order is randomized and
// float addition is not associative).
func (m *FlowMonitor) Aggregate() FlowStats {
	var a FlowStats
	ids := make([]int, 0, len(m.flows))
	for id := range m.flows {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		f := m.flows[id]
		a.TxPackets += f.TxPackets
		a.RxPackets += f.RxPackets
		a.DelaySum += f.DelaySum
	}
	return a
}

// MeanDelay returns the packet-weighted mean delay across flows, seconds.
func (m *FlowMonitor) MeanDelay() float64 {
	a := m.Aggregate()
	return a.MeanDelay()
}

// LossRate returns the aggregate loss rate across flows.
func (m *FlowMonitor) LossRate() float64 {
	a := m.Aggregate()
	return a.LossRate()
}

// UDPSource generates fixed-size datagrams at a target rate, either with
// constant spacing or Poisson (exponential) inter-arrivals, stamping and
// counting through a FlowMonitor. The paper's §5 experiments use uniform
// 500-byte packets.
type UDPSource struct {
	Net     *Network
	Flow    int
	Src     int
	Dst     int
	RateBps float64
	PktSize int // bytes
	Poisson bool
	Rng     *rand.Rand // required when Poisson
	Monitor *FlowMonitor

	seq     int64
	stopped bool
}

// Start begins sending at sim time now and keeps sending until Stop or the
// simulation ends.
func (u *UDPSource) Start() {
	u.Net.OnDeliver(u.Flow, func(p *Packet) {
		f := u.Monitor.Flow(u.Flow)
		f.RxPackets++
		f.DelaySum += u.Net.Sim.Now() - p.SentAt
	})
	u.scheduleNext()
}

// Stop halts future sends.
func (u *UDPSource) Stop() { u.stopped = true }

func (u *UDPSource) interval() float64 {
	mean := float64(u.PktSize) * 8 / u.RateBps
	if !u.Poisson {
		return mean
	}
	return u.Rng.ExpFloat64() * mean
}

func (u *UDPSource) scheduleNext() {
	if u.stopped || u.RateBps <= 0 {
		return
	}
	u.Net.Sim.Schedule(u.interval(), func() {
		if u.stopped {
			return
		}
		u.seq++
		u.Monitor.Flow(u.Flow).TxPackets++
		p := u.Net.newPacket()
		p.Flow, p.Seq, p.Kind, p.Size = u.Flow, u.seq, Data, u.PktSize
		p.Src, p.Dst = u.Src, u.Dst
		u.Net.Inject(p)
		u.scheduleNext()
	})
}

// QueueSampler records a link's queue length at a fixed period, for the
// Fig 6 queue-occupancy distributions.
type QueueSampler struct {
	Link    *Link
	Period  float64
	samples []int
	stopped bool
}

// Start begins sampling.
func (q *QueueSampler) Start(sim *Simulator) {
	var tick func()
	tick = func() {
		if q.stopped {
			return
		}
		q.samples = append(q.samples, q.Link.QueueLen())
		sim.Schedule(q.Period, tick)
	}
	sim.Schedule(q.Period, tick)
}

// Stop halts sampling.
func (q *QueueSampler) Stop() { q.stopped = true }

// Samples returns the raw samples.
func (q *QueueSampler) Samples() []int { return q.samples }
