package netsim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cisp/internal/units"
)

// packetBackbone is syntheticBackbone(n) slowed from Gbps to Mbps, with
// 1–4 ms link delays, so a packet run of a few hundred TCP flows queues,
// drops and completes within a test's time budget.
func packetBackbone(n int) []TopoLink {
	links := syntheticBackbone(n)
	for i := range links {
		links[i].RateBps /= 1000
		links[i].PropDelay = units.Seconds(0.001 * float64(1+i%4))
	}
	return links
}

// randomComms draws k seeded commodities between distinct nodes of [0, n).
func randomComms(n, k int, seed int64) []Commodity {
	rng := rand.New(rand.NewSource(seed))
	var comms []Commodity
	for f := 0; len(comms) < k; f++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		comms = append(comms, Commodity{Flow: f, Src: a, Dst: b, Demand: 1e8, Count: 2 + rng.Intn(6)})
	}
	return comms
}

// overloadedPacketScenario splits every other commodity 60/40 over its
// shortest and widest paths and cuts every queue to six packets, so TCP's
// slow-start bursts overflow queues across the backbone.
func overloadedPacketScenario() *Scenario {
	const n = 40
	links := packetBackbone(n)
	for i := range links {
		links[i].QueueCap = 6
	}
	comms := randomComms(n, 30, 31)
	short := ComputeRoutes(n, links, comms, ShortestPath)
	wide := ComputeRoutes(n, links, comms, ThroughputOptimal)
	splits := map[int][]SplitPath{}
	for i, c := range comms {
		if i%2 == 0 && !slices.Equal(short[c.Flow], wide[c.Flow]) {
			splits[c.Flow] = []SplitPath{{Path: short[c.Flow], Frac: 0.6}, {Path: wide[c.Flow], Frac: 0.4}}
		}
	}
	return &Scenario{
		Nodes: n, Links: links, Comms: comms, Scheme: ShortestPath, Splits: splits,
		FlowBytes: 200 << 10, Horizon: 5, StartSpread: 0.2, Seed: 3,
	}
}

// failingPacketScenario runs twenty flows over Links[0] (0↔1) beside
// seeded background traffic. The link fails at 100 ms with packets on the
// wire, the commodity moves to a detour at 150 ms, and the link returns at
// 400 ms.
func failingPacketScenario() *Scenario {
	const n = 40
	links := packetBackbone(n)
	comms := randomComms(n, 20, 41)
	hot := Commodity{Flow: comms[len(comms)-1].Flow + 1, Src: 0, Dst: 1, Demand: 1e8, Count: 20}
	comms = append(comms, hot)
	detour := ComputeRoutes(n, links[1:], []Commodity{hot}, ShortestPath)[hot.Flow]
	return &Scenario{
		Nodes: n, Links: links, Comms: comms, Scheme: ShortestPath,
		Failures:  []FailureEvent{{Time: 0.1, Link: 0, Up: false}, {Time: 0.4, Link: 0, Up: true}},
		Updates:   []PathUpdate{{Time: 0.15, Flow: hot.Flow, Paths: []SplitPath{{Path: detour, Frac: 1}}}},
		FlowBytes: 500 << 10, Horizon: 5, StartSpread: 0.05, Seed: 4,
	}
}

// tiedPacketScenario gives every link the same power-of-two rate and every
// other link zero delay (the rest 2⁻⁹ s), and starts every flow at t = 0.
// Times stay exact sums of dyadic fractions, so arrivals over the
// zero-delay links fall at the same instant as other events.
func tiedPacketScenario() *Scenario {
	const n = 30
	links := syntheticBackbone(n)
	for i := range links {
		links[i].RateBps = 1 << 27
		links[i].PropDelay = 0
		links[i].QueueCap = 20
		if i%2 == 1 {
			links[i].PropDelay = 1.0 / 512
		}
	}
	return &Scenario{
		Nodes: n, Links: links, Comms: randomComms(n, 25, 51), Scheme: ShortestPath,
		FlowBytes: 100 << 10, Horizon: 5, Seed: 5,
	}
}

// packetResultHash folds every flow's FCT and mean rate and every link's
// utilization, bit for bit, into one FNV-64a sum.
func packetResultHash(res *ScenarioResult) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, fr := range res.Flows {
		put(fr.FCT)
		put(fr.MeanRateBps)
	}
	for _, l := range res.LinkLoads {
		put(float64(l.Utilization))
	}
	return h.Sum64()
}

// TestPacketScenarioPinned pins the packet engine's output on three
// seeded scenarios: queue overflow under multipath splits, a failure with
// packets in flight followed by a reroute and a restore, and same-instant
// ties over zero-delay links. Any change to the event loop, the link
// queues or the transmission path must leave these figures bit-identical.
func TestPacketScenarioPinned(t *testing.T) {
	for _, tc := range []struct {
		name          string
		sc            *Scenario
		wantEvents    int64
		wantCompleted int
		wantHash      uint64
	}{
		{"overloaded-splits", overloadedPacketScenario(), 266732, 138, 0x4b83af8f808a4186},
		{"failure-update-restore", failingPacketScenario(), 487540, 113, 0x746a7bed528dd199},
		{"zero-delay-ties", tiedPacketScenario(), 127458, 112, 0x6cd1ef125722a36f},
	} {
		res := tc.sc.Run(PacketMode)
		if h := packetResultHash(res); res.EventsProcessed != tc.wantEvents || res.Completed != tc.wantCompleted || h != tc.wantHash {
			t.Errorf("%s: %d events, %d of %d flows completed, hash %#x; want %d, %d, %#x",
				tc.name, res.EventsProcessed, res.Completed, len(res.Flows), h, tc.wantEvents, tc.wantCompleted, tc.wantHash)
		}
	}
}
