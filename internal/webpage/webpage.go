// Package webpage models Web page loads over networks with reduced RTTs —
// the in-repo substitute for the paper's Mahimahi record-and-replay study
// (§7.2, Fig 13). A synthetic page corpus (log-normal object counts and
// sizes, dependency chains, multiple origins) is loaded through a
// dependency- and connection-aware replay engine whose client→server and
// server→client latencies can be scaled independently — enabling the
// paper's three conditions: Baseline (1.0/1.0), cISP (0.33/0.33), and
// cISP-selective (0.33 on the request path only).
package webpage

import (
	"math"
	"math/rand"

	"cisp/internal/xheap"
)

// Object is one fetchable resource of a page.
type Object struct {
	Size   int // response bytes
	Parent int // index of the object that must finish first (-1 for roots)
	Origin int // origin server index (per-origin connection limits apply)
}

// Page is a synthetic Web page.
type Page struct {
	Objects []Object
	Origins int
	BaseRTT float64 // recorded round-trip time to the origins, seconds
}

// CorpusConfig tunes page synthesis.
type CorpusConfig struct {
	Seed  int64
	Pages int // default 80, the paper's sample size
}

// Corpus generates a deterministic page sample mirroring Web statistics:
// median ≈ 60-80 objects per page, log-normal sizes with many sub-MSS
// objects, 2-4 dependency levels, a handful of origins, and recorded RTTs
// between 20 and 150 ms.
func Corpus(cfg CorpusConfig) []Page {
	if cfg.Pages == 0 {
		cfg.Pages = 80
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pages := make([]Page, cfg.Pages)
	for i := range pages {
		nObj := int(math.Exp(rng.NormFloat64()*0.6 + math.Log(65)))
		if nObj < 5 {
			nObj = 5
		}
		if nObj > 300 {
			nObj = 300
		}
		origins := 2 + rng.Intn(6)
		page := Page{
			Origins: origins,
			BaseRTT: 0.020 + rng.Float64()*0.130,
		}
		for o := 0; o < nObj; o++ {
			size := int(math.Exp(rng.NormFloat64()*1.4 + math.Log(9_000)))
			if size < 120 {
				size = 120
			}
			if size > 2_000_000 {
				size = 2_000_000
			}
			parent := -1
			if o > 0 {
				// Chain to a random earlier object with probability that
				// shapes 2-4 dependency levels; root HTML is object 0.
				switch {
				case o == 0:
				case rng.Float64() < 0.55:
					parent = 0 // discovered from the HTML
				default:
					parent = rng.Intn(o)
				}
			}
			page.Objects = append(page.Objects, Object{
				Size:   size,
				Parent: parent,
				Origin: rng.Intn(origins),
			})
		}
		pages[i] = page
	}
	return pages
}

// Client, server and transfer model of a load (§7.2).
const (
	// cpuPerObject is client compute (parse/eval) per object, seconds,
	// paid before an object's children become fetchable.
	cpuPerObject = 0.015
	// renderTime is the page's serial script/layout work included in the
	// onLoad PLT but independent of the network, seconds. Together with
	// cpuPerObject this is why PLT improves less than RTT (§7.2).
	renderTime = 0.65
	// bandwidth is the effective end-to-end transfer rate in bps; the
	// size/bandwidth term puts a floor under large-object times that RTT
	// reduction cannot remove (why small objects improve most, §7.2).
	bandwidth = 20e6
	// serverThink is per-request server processing, seconds.
	serverThink = 0.005
	// connsPerOrigin is the parallel-connection limit.
	connsPerOrigin = 6
	// handshakeRTTs is connection setup cost in round trips (DNS + SYN +
	// TLS), paid once per connection.
	handshakeRTTs = 3
)

// ReplayConfig controls a load.
type ReplayConfig struct {
	// RTTScaleC2S scales the client→server direction; RTTScaleS2C the
	// reverse. Baseline is 1/1; the paper's cISP condition is 0.33/0.33 and
	// cISP-selective 0.33/1.0.
	RTTScaleC2S float64
	RTTScaleS2C float64
}

func (c *ReplayConfig) setDefaults() {
	if c.RTTScaleC2S == 0 {
		c.RTTScaleC2S = 1
	}
	if c.RTTScaleS2C == 0 {
		c.RTTScaleS2C = 1
	}
}

// Result of a page load.
type Result struct {
	PLT         float64   // onLoad-equivalent: all objects fetched + processed
	ObjectTimes []float64 // per-object load time (request start → bytes done)
	BytesC2S    int64     // request-direction bytes
	BytesS2C    int64     // response-direction bytes
}

const requestBytes = 700 // request + headers on the upstream path

// Replay loads the page and returns timings. The model: each object fetch
// needs one round trip (request upstream at the C2S scale, response
// downstream at the S2C scale, with a size-dependent number of delivery
// round trips for large objects standing in for congestion-window growth),
// over a limited per-origin connection pool; an object's children become
// fetchable after its CPU processing completes.
func Replay(p Page, cfg ReplayConfig) Result {
	cfg.setDefaults()
	oneWayC2S := p.BaseRTT / 2 * cfg.RTTScaleC2S
	oneWayS2C := p.BaseRTT / 2 * cfg.RTTScaleS2C
	rtt := oneWayC2S + oneWayS2C

	// Delivery round trips grow with object size (slow-start-like): 1 RTT
	// per 15 KB window doubling, capped.
	deliveryRTTs := func(size int) float64 {
		windows := math.Ceil(math.Log2(float64(size)/14_600 + 1))
		if windows < 1 {
			windows = 1
		}
		if windows > 6 {
			windows = 6
		}
		return windows
	}

	n := len(p.Objects)
	res := Result{ObjectTimes: make([]float64, n)}

	// Per-origin connection pools: next free time per connection slot.
	pools := make([][]float64, p.Origins)
	for o := range pools {
		pools[o] = make([]float64, connsPerOrigin)
		for k := range pools[o] {
			pools[o][k] = -1 // -1: connection not yet established
		}
	}

	children := make([][]int, n)
	indeg := make([]int, n)
	var ready []readyItem
	for i, obj := range p.Objects {
		if obj.Parent >= 0 {
			children[obj.Parent] = append(children[obj.Parent], i)
			indeg[i] = 1
		} else {
			xheap.Push(&ready, readyItem{at: 0, obj: i}, readyLess)
		}
	}

	var plt float64
	for len(ready) > 0 {
		it := xheap.Pop(&ready, readyLess)
		obj := p.Objects[it.obj]
		// Claim the earliest-free connection of the origin.
		pool := pools[obj.Origin]
		best := 0
		for k := range pool {
			if connAvail(pool[k]) < connAvail(pool[best]) {
				best = k
			}
		}
		start := math.Max(it.at, connAvail(pool[best]))
		setup := 0.0
		if pool[best] < 0 {
			setup = handshakeRTTs * rtt
		}
		// Request upstream once, then the response spends d downstream legs
		// plus (d-1) upstream ACK legs while the window opens; transfer and
		// server time are RTT-independent floors.
		d := deliveryRTTs(obj.Size)
		fetchTime := oneWayC2S + d*oneWayS2C + (d-1)*oneWayC2S +
			float64(obj.Size)*8/bandwidth + serverThink
		done := start + setup + fetchTime
		pool[best] = done
		res.ObjectTimes[it.obj] = done - it.at
		res.BytesC2S += requestBytes + int64(d-1)*40*int64(1+obj.Size/14600)
		res.BytesS2C += int64(obj.Size)

		processed := done + cpuPerObject
		if processed > plt {
			plt = processed
		}
		for _, c := range children[it.obj] {
			indeg[c]--
			if indeg[c] == 0 {
				xheap.Push(&ready, readyItem{at: processed, obj: c}, readyLess)
			}
		}
	}
	res.PLT = plt + renderTime
	return res
}

func connAvail(v float64) float64 {
	if v < 0 {
		return 0 // unestablished connection is available immediately
	}
	return v
}

type readyItem struct {
	at  float64
	obj int
}

func readyLess(a, b readyItem) bool {
	return a.at < b.at || (a.at == b.at && a.obj < b.obj)
}
