package netsim

import "fmt"

// PacketKind distinguishes payload data from transport acknowledgements.
type PacketKind int

// Packet kinds.
const (
	Data PacketKind = iota
	Ack
)

// Packet is the unit of transmission. Packets delivered to OnDeliver
// handlers are recycled into the network's pool after the handler returns;
// handlers must not retain them past the call.
type Packet struct {
	Flow     int // flow identifier (routing + delivery demux)
	Seq      int64
	Kind     PacketKind
	Size     int // bytes on the wire
	Src, Dst int // node IDs
	SentAt   float64
	AckNo    int64 // for Ack packets: cumulative next-expected sequence

	// Source-routing state, resolved once at Inject: hops[i] carries the
	// packet from path[i] to path[i+1]; hop indexes the next link to take.
	hops   []*Link
	hop    int
	pooled bool // allocated from the network's pool; recycled on delivery/drop
}

// route is one installed forwarding path of a flow, with the traversed
// links resolved once at SetFlowPath time so the per-packet hot path is a
// slice index — no map lookups.
type route struct {
	dst  int
	hops []*Link
}

// flowState indexes the at-most-two installed paths of a flow (data and
// reverse ACK directions) plus its delivery handler.
type flowState struct {
	routes  [2]route
	nRoutes int
	deliver func(*Packet)
}

// Link is a unidirectional fixed-rate link with a FIFO queue.
type Link struct {
	From, To int
	RateBps  float64
	// PropDelay is in seconds. It may not change while packets are in
	// flight: the delay line relies on arrivals leaving in send order.
	PropDelay float64
	QueueCap  int // packets; 0 = unbounded

	// Drop, when non-nil, is consulted on every enqueue: returning true
	// discards the packet (counted in Drops). Used for loss injection in
	// tests and loss-model experiments.
	Drop func(*Packet) bool

	net     *Network
	queue   fifo[*Packet]
	txPkt   *Packet // the packet in transmission, nil when idle
	txEpoch int64   // downEpoch when its transmission started
	txStart float64 // start time of the in-flight transmission
	txDur   float64 // its duration

	// line is the link's delay line: the packets in propagation, in send
	// order, which is also arrival order. Only its head waits in the
	// simulator's heap, under the key stamped when it was sent.
	line fifo[inFlight]

	// The transmission-complete and arrival handlers, bound once in
	// AddLink so that scheduling them allocates nothing.
	onTxDone, onArrive func()

	// Failure state. downEpoch increments on every transition, voiding
	// packets that were in flight (transmitting or propagating) when the
	// link died — they are counted as Drops, never delivered.
	down      bool
	downEpoch int64

	// Counters.
	TxPackets   int64
	TxBytes     int64
	Drops       int64
	busyTime    float64 // completed transmission time only
	maxQueueLen int
}

// inFlight is one packet on a link's delay line: its arrival key (time,
// sequence) and the link's downEpoch when it was sent.
type inFlight struct {
	at    float64
	seq   int64
	pkt   *Packet
	epoch int64
}

// QueueLen returns the instantaneous queue length in packets (including the
// packet in transmission).
func (l *Link) QueueLen() int {
	n := l.queue.len()
	if l.txPkt != nil {
		n++
	}
	return n
}

// MaxQueueLen returns the high-water queue length observed.
func (l *Link) MaxQueueLen() int { return l.maxQueueLen }

// SetDown transitions the link's failure state at the current simulation
// time. Taking a link down drops every queued packet and loses any packet
// already on the wire (mid-transmission or propagating) — transports see
// the outage as loss and recover via retransmission once a working path is
// installed. Bringing it back up restores normal forwarding; packets lost
// during the outage stay lost.
func (l *Link) SetDown(down bool) {
	if l.down == down {
		return
	}
	l.down = down
	l.downEpoch++
	if down {
		for l.queue.len() > 0 {
			l.Drops++
			l.net.release(l.queue.pop())
		}
	}
}

// Utilization returns the fraction of [0, now] the link spent transmitting.
// Completed transmissions are credited in full; an in-flight one is
// pro-rated to now, so a run truncated mid-packet is not over-reported.
func (l *Link) Utilization(now float64) float64 {
	if now <= 0 {
		return 0
	}
	busy := l.busyTime
	if l.txPkt != nil && now > l.txStart {
		part := now - l.txStart
		if part > l.txDur {
			part = l.txDur
		}
		busy += part
	}
	u := busy / now
	if u > 1 {
		u = 1
	}
	return u
}

// Network is a set of nodes and directed links plus per-flow forwarding
// state and delivery handlers, indexed by flow ID (flows must be small
// non-negative integers; IDs are dense in every caller).
type Network struct {
	Sim   *Simulator
	index LinkIndex // resolves hops at SetFlowPath, never per packet
	links []*Link   // by directed ID in index: insertion order
	flows []flowState
	pool  []*Packet
}

// NewNetwork creates a network with n nodes attached to sim.
func NewNetwork(sim *Simulator, n int) *Network {
	return &Network{Sim: sim, index: LinkIndex{out: make([][]int32, n)}}
}

// N returns the number of nodes.
func (nw *Network) N() int { return nw.index.N() }

// AddLink adds a unidirectional link and returns it. Panics if it exists
// or an endpoint is not a node.
func (nw *Network) AddLink(from, to int, rateBps, propDelay float64, queueCap int) *Link {
	if err := nw.index.add(from, to); err != nil {
		panic(err.Error())
	}
	l := &Link{From: from, To: to, RateBps: rateBps, PropDelay: propDelay, QueueCap: queueCap, net: nw}
	l.onTxDone, l.onArrive = l.txDone, l.arrive
	nw.links = append(nw.links, l)
	return l
}

// AddDuplex adds links in both directions with identical parameters.
func (nw *Network) AddDuplex(a, b int, rateBps, propDelay float64, queueCap int) (ab, ba *Link) {
	return nw.AddLink(a, b, rateBps, propDelay, queueCap), nw.AddLink(b, a, rateBps, propDelay, queueCap)
}

// Link returns the directed link from→to, or nil.
func (nw *Network) Link(from, to int) *Link {
	if id, ok := nw.index.Lookup(from, to); ok {
		return nw.links[id]
	}
	return nil
}

// Links returns all directed links in the order they were added.
func (nw *Network) Links() []*Link { return nw.links }

// flow returns (growing the table if needed) the state for a flow ID.
func (nw *Network) flow(id int) *flowState {
	if id < 0 {
		panic(fmt.Sprintf("netsim: negative flow ID %d", id))
	}
	if id >= len(nw.flows) {
		if id < cap(nw.flows) {
			nw.flows = nw.flows[:id+1]
		} else {
			// Amortized doubling: sequential flow installs stay O(n) total.
			grown := make([]flowState, id+1, max(id+1, 2*cap(nw.flows)))
			copy(grown, nw.flows)
			nw.flows = grown
		}
	}
	return &nw.flows[id]
}

// SetFlowPath installs forwarding state for flow along the node path
// (path[0] is the packet source, path[len-1] the destination), resolving
// every traversed link once. A flow holds at most two paths — one per
// destination (data and reverse-ACK directions); re-installing a path to
// the same destination replaces it. Panics if a hop has no link.
func (nw *Network) SetFlowPath(flow int, path []int) {
	dst := path[len(path)-1]
	hops := make([]*Link, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		l := nw.Link(path[i], path[i+1])
		if l == nil {
			panic(fmt.Sprintf("netsim: no link %d->%d on path of flow %d", path[i], path[i+1], flow))
		}
		hops[i] = l
	}
	f := nw.flow(flow)
	for i := 0; i < f.nRoutes; i++ {
		if f.routes[i].dst == dst {
			f.routes[i].hops = hops
			return
		}
	}
	if f.nRoutes == len(f.routes) {
		panic(fmt.Sprintf("netsim: flow %d already has %d installed paths", flow, len(f.routes)))
	}
	f.routes[f.nRoutes] = route{dst: dst, hops: hops}
	f.nRoutes++
}

// OnDeliver registers the callback invoked when a packet of the flow reaches
// its Dst node.
func (nw *Network) OnDeliver(flow int, fn func(*Packet)) { nw.flow(flow).deliver = fn }

// newPacket returns a zeroed packet from the pool (or a fresh one), marked
// for recycling on delivery or drop.
//
//cisp:hotpath
func (nw *Network) newPacket() *Packet {
	if n := len(nw.pool); n > 0 {
		p := nw.pool[n-1]
		nw.pool = nw.pool[:n-1]
		return p
	}
	return &Packet{pooled: true} //lint:allow hotpathalloc -- pool miss only; the packet is recycled thereafter
}

// release recycles a pool-allocated packet. Externally built packets (plain
// &Packet{} handed to Inject) are left alone.
//
//cisp:hotpath
func (nw *Network) release(p *Packet) {
	if !p.pooled {
		return
	}
	*p = Packet{pooled: true}
	nw.pool = append(nw.pool, p) //lint:allow hotpathalloc -- amortized growth of the recycling pool
}

// Inject sends pkt from its Src node, stamping SentAt. Packets whose flow
// has no installed path to pkt.Dst are dropped silently (routing bugs
// surface in tests via missing deliveries).
func (nw *Network) Inject(pkt *Packet) {
	pkt.SentAt = nw.Sim.Now()
	if pkt.Flow < 0 || pkt.Flow >= len(nw.flows) {
		nw.release(pkt)
		return
	}
	f := &nw.flows[pkt.Flow]
	pkt.hops = nil
	for i := 0; i < f.nRoutes; i++ {
		if f.routes[i].dst == pkt.Dst {
			pkt.hops = f.routes[i].hops
			break
		}
	}
	if pkt.hops == nil {
		nw.release(pkt)
		return
	}
	pkt.hop = 0
	nw.step(pkt)
}

// step moves pkt one hop (or delivers it).
//
//cisp:hotpath
func (nw *Network) step(pkt *Packet) {
	if pkt.hop >= len(pkt.hops) {
		if h := nw.flows[pkt.Flow].deliver; h != nil {
			h(pkt)
		}
		nw.release(pkt)
		return
	}
	l := pkt.hops[pkt.hop]
	pkt.hop++
	l.enqueue(pkt)
}

// enqueue places pkt on the link, dropping if the link is down, the queue
// is full or the link's Drop hook claims it.
//
//cisp:hotpath
func (l *Link) enqueue(pkt *Packet) {
	if l.down {
		l.Drops++
		l.net.release(pkt)
		return
	}
	if l.Drop != nil && l.Drop(pkt) {
		l.Drops++
		l.net.release(pkt)
		return
	}
	if l.QueueCap > 0 && l.queue.len() >= l.QueueCap {
		l.Drops++
		l.net.release(pkt)
		return
	}
	l.queue.push(pkt)
	if q := l.QueueLen(); q > l.maxQueueLen {
		l.maxQueueLen = q
	}
	if l.txPkt == nil {
		l.startNext()
	}
}

// startNext starts transmitting the next queued packet, if any.
//
//cisp:hotpath
func (l *Link) startNext() {
	if l.queue.len() == 0 {
		return
	}
	pkt := l.queue.pop()
	tx := float64(pkt.Size) * 8 / l.RateBps
	l.txPkt, l.txEpoch = pkt, l.downEpoch
	l.txStart = l.net.Sim.Now()
	l.txDur = tx
	l.TxPackets++
	l.TxBytes += int64(pkt.Size)
	l.net.Sim.Schedule(tx, l.onTxDone)
}

// txDone ends the transmission in progress. The packet joins the delay
// line, or is lost if the link failed (or flapped) since the transmission
// began, in which case the busy time is not credited. Either way the
// transmitter moves on, so it is free for traffic after a restore.
//
//cisp:hotpath
func (l *Link) txDone() {
	pkt := l.txPkt
	l.txPkt = nil
	if l.downEpoch != l.txEpoch {
		l.Drops++
		l.net.release(pkt)
	} else {
		l.busyTime += l.txDur
		sim := l.net.Sim
		at, seq := sim.stamp(l.PropDelay)
		l.line.push(inFlight{at: at, seq: seq, pkt: pkt, epoch: l.txEpoch})
		if l.line.len() == 1 {
			sim.push(at, seq, l.onArrive)
		}
	}
	l.startNext()
}

// arrive takes the head off the delay line, hands the next one to the
// heap, and forwards the packet — unless the link died while it was in
// propagation.
//
//cisp:hotpath
func (l *Link) arrive() {
	e := l.line.pop()
	if l.line.len() > 0 {
		next := l.line.front()
		l.net.Sim.push(next.at, next.seq, l.onArrive)
	}
	if e.epoch != l.downEpoch {
		l.Drops++
		l.net.release(e.pkt)
		return
	}
	l.net.step(e.pkt)
}

// fifo is a ring-buffer FIFO. Its array doubles only when full, so it
// holds at most twice the longest queue it has seen, and a queue that
// drains and refills reuses it.
type fifo[T any] struct {
	buf     []T
	head, n int
}

func (q *fifo[T]) len() int { return q.n }

// front returns the oldest entry; the fifo must not be empty.
func (q *fifo[T]) front() T { return q.buf[q.head] }

// push appends v.
//
//cisp:hotpath
func (q *fifo[T]) push(v T) {
	if q.n == len(q.buf) {
		grown := make([]T, max(4, 2*len(q.buf))) //lint:allow hotpathalloc -- amortized growth of the ring
		copy(grown, q.buf[q.head:])
		copy(grown[len(q.buf)-q.head:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = v
	q.n++
}

// pop removes and returns the oldest entry; the fifo must not be empty.
//
//cisp:hotpath
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // keep no reference to a popped entry
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return v
}
