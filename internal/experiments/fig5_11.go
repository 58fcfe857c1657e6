package experiments

import (
	"math/rand"

	"cisp"
	"cisp/internal/capacity"
	"cisp/internal/geo"
	"cisp/internal/netsim"
	"cisp/internal/traffic"
	"cisp/internal/units"
)

// LoadPoint is one (load %, delay ms, loss %) sample of a packet simulation.
type LoadPoint struct {
	LoadPct float64
	DelayMs float64
	LossPct float64
}

// simConfig bundles the packet-level simulation parameters shared by the
// Fig 5 and Fig 11 studies.
type simConfig struct {
	scenario   *cisp.Scenario
	top        *cisp.Topology
	plan       *capacity.Plan
	designGbps float64
	scheme     netsim.Scheme
	seed       int64
}

// Every packet-level study simulates the same scaled-down network:
// simRateScale scales all link rates down from design capacity to keep
// packet counts sane, and every link queues up to simQueueCap packets.
// runPacketSim offers load for simTime seconds before draining.
const (
	simRateScale = 1.0 / 50
	simQueueCap  = 100
	simTime      = 0.35
)

// hybridLinks builds the site-level simulation links for a design, split
// into the microwave layer (built links at provisioned capacity, series² ×
// 1 Gbps per §3.3, in Built order so per-link weather conditions align)
// and the fiber substrate (plentiful bandwidth, 1.5× propagation penalty).
// A conduit parallel to a *live* built microwave link is dropped, unless
// keepParallel carries it through a midpoint transit node (half the delay
// per half) — netsim paths are node sequences, so parallel capacity must
// be expressed as distinct nodes. failed, when non-nil, marks built links
// (in Built order) that are weather-failed: their parallel conduits are
// kept directly, since the fiber fallback is exactly what the degraded
// network routes over. Pass nil for clear sky. nodes counts the sites plus
// any midpoints.
func hybridLinks(s *cisp.Scenario, top *cisp.Topology, plan *capacity.Plan,
	designGbps float64, failed []bool, keepParallel bool) (mw, fiberLs []netsim.TopoLink, nodes int) {
	mwPairs := make(map[[2]int]bool)
	for li, l := range top.Built {
		key := [2]int{l.I, l.J}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		if failed == nil || !failed[li] {
			mwPairs[key] = true
		}
		series := plan.Series[key]
		if series == 0 {
			series = 1
		}
		capBps := units.Gbps(float64(series*series) * simRateScale)
		mw = append(mw, netsim.TopoLink{
			A: l.I, B: l.J,
			RateBps:   capBps,
			PropDelay: units.Seconds(l.Dist / geo.C),
			QueueCap:  simQueueCap,
		})
	}
	fiberG := s.FiberNet.Graph()
	fiberCap := units.Gbps(designGbps * 2 * simRateScale)
	nodes = fiberG.N()
	for u := 0; u < fiberG.N(); u++ {
		for _, e := range fiberG.Neighbors(u) {
			if e.To <= u {
				continue
			}
			delay := units.Seconds(float64(e.Weight) * geo.FiberLatencyFactor / geo.C)
			switch {
			case !mwPairs[[2]int{u, e.To}]:
				fiberLs = append(fiberLs, netsim.TopoLink{
					A: u, B: e.To,
					RateBps:   fiberCap,
					PropDelay: delay,
					QueueCap:  simQueueCap,
				})
			case keepParallel:
				mid := nodes
				nodes++
				fiberLs = append(fiberLs,
					netsim.TopoLink{A: u, B: mid, RateBps: fiberCap, PropDelay: delay / 2, QueueCap: simQueueCap},
					netsim.TopoLink{A: mid, B: e.To, RateBps: fiberCap, PropDelay: delay / 2, QueueCap: simQueueCap})
			}
		}
	}
	return mw, fiberLs, nodes
}

// runPacketSim builds the site-level packet network for the design (built
// microwave links at their provisioned capacities plus the fiber conduit
// graph) and offers the demand matrix, returning mean one-way delay and
// loss after draining.
func runPacketSim(cfg simConfig, demand traffic.Matrix) (delayMs, lossPct float64) {
	s := cfg.scenario
	n := len(s.Cities)
	var sim netsim.Simulator
	nw := netsim.NewNetwork(&sim, n)

	mw, fiberLs, _ := hybridLinks(s, cfg.top, cfg.plan, cfg.designGbps, nil, false)
	links := append(mw, fiberLs...)
	netsim.BuildTopology(nw, links)

	// Commodities from the demand matrix.
	var comms []netsim.Commodity
	flow := 1
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if demand[i][j] <= 0 {
				continue
			}
			comms = append(comms, netsim.Commodity{
				Flow: flow, Src: i, Dst: j,
				Demand: units.Gbps(demand[i][j] * simRateScale),
			})
			flow++
		}
	}
	netsim.InstallRoutes(nw, links, comms, cfg.scheme)

	mon := netsim.NewFlowMonitor()
	rng := rand.New(rand.NewSource(cfg.seed))
	var sources []*netsim.UDPSource
	for _, c := range comms {
		src := &netsim.UDPSource{
			Net: nw, Flow: c.Flow, Src: c.Src, Dst: c.Dst,
			RateBps: float64(c.Demand), PktSize: 500, Poisson: true, Rng: rng,
			Monitor: mon,
		}
		src.Start()
		sources = append(sources, src)
	}
	sim.Run(simTime)
	for _, src := range sources {
		src.Stop()
	}
	sim.Run(simTime + 2) // drain
	return mon.MeanDelay() * 1000, mon.LossRate() * 100
}

// Fig5Result holds one perturbation curve.
type Fig5Result struct {
	Gamma  float64
	Points []LoadPoint
}

// Fig5Perturbation reproduces Fig 5: mean delay and loss versus aggregate
// input rate, with the city populations perturbed by γ ∈ {0 (matching TM),
// 0.1, 0.3, 0.5}. Shortest-path routing, 500-byte UDP packets.
func Fig5Perturbation(opt Options, gammas []float64, loads []float64) []Fig5Result {
	w := opt.out()
	s := opt.scenario()
	tm := s.PopulationTraffic()
	top, err := s.DesignGreedy(tm, s.DefaultBudget())
	if err != nil {
		fprintf(w, "fig5: %v\n", err)
		return nil
	}
	designGbps := opt.simAggregateGbps()
	plan := s.Provision(top, scaleTo(tm, designGbps))

	fprintf(w, "Fig 5 — delay & loss vs load under population perturbation\n")
	fprintf(w, "%8s %8s %12s %10s\n", "gamma", "load%", "delay(ms)", "loss%")

	var out []Fig5Result
	for _, gamma := range gammas {
		cities := s.Cities
		if gamma > 0 {
			cities = traffic.PerturbPopulations(cities, gamma, opt.Seed+int64(gamma*100))
		}
		offered := traffic.PopulationProduct(cities)
		res := Fig5Result{Gamma: gamma}
		for _, load := range loads {
			demand := scaleTo(offered, designGbps*load/100)
			d, l := runPacketSim(simConfig{
				scenario: s, top: top, plan: plan, designGbps: designGbps,
				scheme: netsim.ShortestPath, seed: opt.Seed,
			}, demand)
			res.Points = append(res.Points, LoadPoint{LoadPct: load, DelayMs: d, LossPct: l})
			fprintf(w, "%8.1f %8.0f %12.3f %10.3f\n", gamma, load, d, l)
		}
		out = append(out, res)
	}
	return out
}

// Fig11Result holds one traffic-mix curve.
type Fig11Result struct {
	MixName string
	Points  []LoadPoint
}

// Fig11MixDeviation reproduces Fig 11: a network designed for a 4:3:3
// City-City : City-DC : DC-DC mix is offered deviating mixes (5:3:3, 4:4:3,
// 4:3:4); delay and loss stay consistent up to ~70% load.
func Fig11MixDeviation(opt Options, loads []float64) []Fig11Result {
	w := opt.out()
	s, models := opt.dcWorld()
	mix := models.mix
	designTM := mix(4, 3, 3)
	top, err := s.DesignGreedy(designTM, s.DefaultBudget())
	if err != nil {
		fprintf(w, "fig11: %v\n", err)
		return nil
	}
	designGbps := opt.simAggregateGbps()
	plan := s.Provision(top, scaleTo(designTM, designGbps))

	fprintf(w, "Fig 11 — traffic-mix deviations (designed for 4:3:3)\n")
	fprintf(w, "%8s %8s %12s %10s\n", "mix", "load%", "delay(ms)", "loss%")

	mixes := []struct {
		name    string
		a, b, c float64
	}{
		{"4:3:3", 4, 3, 3},
		{"5:3:3", 5, 3, 3},
		{"4:4:3", 4, 4, 3},
		{"4:3:4", 4, 3, 4},
	}
	var out []Fig11Result
	for _, m := range mixes {
		offered := mix(m.a, m.b, m.c)
		res := Fig11Result{MixName: m.name}
		for _, load := range loads {
			demand := scaleTo(offered, designGbps*load/100)
			d, l := runPacketSim(simConfig{
				scenario: s, top: top, plan: plan, designGbps: designGbps,
				scheme: netsim.ShortestPath, seed: opt.Seed,
			}, demand)
			res.Points = append(res.Points, LoadPoint{LoadPct: load, DelayMs: d, LossPct: l})
			fprintf(w, "%8s %8.0f %12.3f %10.3f\n", m.name, load, d, l)
		}
		out = append(out, res)
	}
	return out
}

// RoutingSchemeComparison quantifies §5's observation that non-shortest-path
// schemes sacrifice latency: it returns mean delay at the given load for
// each routing scheme.
func RoutingSchemeComparison(opt Options, loadPct float64) map[string]float64 {
	w := opt.out()
	s := opt.scenario()
	tm := s.PopulationTraffic()
	top, err := s.DesignGreedy(tm, s.DefaultBudget())
	if err != nil {
		return nil
	}
	designGbps := opt.simAggregateGbps()
	plan := s.Provision(top, scaleTo(tm, designGbps))
	demand := scaleTo(tm, designGbps*loadPct/100)

	out := make(map[string]float64)
	fprintf(w, "Routing schemes at %.0f%% load:\n", loadPct)
	for _, scheme := range []netsim.Scheme{netsim.ShortestPath, netsim.MinMaxUtilization, netsim.ThroughputOptimal} {
		d, l := runPacketSim(simConfig{
			scenario: s, top: top, plan: plan, designGbps: designGbps,
			scheme: scheme, seed: opt.Seed,
		}, demand)
		out[scheme.String()] = d
		fprintf(w, "  %-22s delay %.3f ms, loss %.3f%%\n", scheme.String(), d, l)
	}
	return out
}
