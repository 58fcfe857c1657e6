package main

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"time"

	"cisp"
	"cisp/internal/ctlplane"
	"cisp/internal/experiments"
	"cisp/internal/geo"
	"cisp/internal/netsim"
	"cisp/internal/te"
	"cisp/internal/units"
	"cisp/internal/weather"
	"cisp/internal/workload"
)

// worldSeed fixes the synthetic geography — terrain, towers, fiber
// conduits and the designed backbone — that every workload runs on, and
// the storms the daemon replays. It stands in for the real maps and
// weather records, so it does not change with the benchmark's seed: a
// different world changes how much work a design is (by ±15% between
// worlds), and the benchmark compares runs across seeds. The seed draws
// the rest of what users feed the system: the weather a plan is judged
// under, the daemon's hardware failures, and the flows.
const worldSeed = 1

// sizes fixes how much work one run does. fullSizes is the benchmark; the
// smoke test passes tiny sizes.
type sizes struct {
	setups int // set-ups per run; setup_s is their median

	planCities int // largest US cities in the plan world
	planDays   int // weather days each plan pass analyses

	backboneCities int // cities (plus six data centers) in the designed backbone; 0 = small scale
	churnEvents    int // cap on events per churn pass, 0 for the whole stream

	usersSpecs       int // how many of the four users scenarios run
	usersFlows       int // fluid-engine flows per scenario
	usersPacketFlows int // packet-engine flows per scenario

	crowdFlows int
}

var fullSizes = sizes{
	setups:     3,
	planCities: 25, planDays: 60,
	usersSpecs: 4, usersFlows: 5000, usersPacketFlows: 100,
	crowdFlows: 15000,
}

// runner is one workload's system, built by set-up and driven in passes.
// Every pass does the same work on the same inputs.
type runner interface {
	// pass runs one unit of timed work, recording its layer calls on tr
	// (nil when the pass is untraced).
	pass(tr *tracer) error
	// check verifies the last pass's outputs after the clock stops.
	check() (passResult, error)
	// ops returns the operations attempted and failed so far.
	ops() (attempted, failed int)
	// close stops the runner and adds its workload-specific lines to rep.
	close(rep *report)
}

// passResult is what check extracts from one pass.
type passResult struct {
	outputs []output           // deterministic results; the same every pass
	figures map[string]float64 // per-layer figures only the runner can measure
}

// workloadSpec is one entry of the benchmark's workload table.
type workloadSpec struct {
	name  string
	why   string
	setup func(sz sizes, seed int64, tr *tracer) (runner, error)
}

var workloads = []workloadSpec{
	{"plan", "the planner's design, provisioning and weather study: greedy and branch-and-bound design and the weather year do the work; te, lp and netsim do none", setupPlan},
	{"churn", "the cispd daemon replaying a day of storms and failures one event at a time while a reader polls snapshots: te reopt, lp and fast reroute", setupChurn},
	{"users", "the four population scenarios end to end on both engines: the packet engine dominates, with te, resilience and fluid", setupUsers},
	{"crowd", "an overloaded fluid replay of TE-split flows: fluid max-min recompute dominates; packet, design and ctlplane do none", setupCrowd},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// backboneOptions selects the designed §6.4 backbone the daemon, users and
// crowd workloads run on.
func backboneOptions(sz sizes) experiments.Options {
	return experiments.Options{Scale: cisp.ScaleSmall, Seed: worldSeed, MaxCities: sz.backboneCities}
}

// plan: design → provision → price → a weather study of the design.
type plan struct {
	s      *cisp.Scenario
	tm     cisp.TrafficMatrix
	demand cisp.TrafficMatrix
	budget float64
	gen    *weather.Generator
	wcfg   weather.Config

	top       *cisp.Topology
	costPerGB float64
	year      *weather.YearAnalysis
	yearTime  time.Duration
	attempted int
	failed    int
}

// planGbps is the aggregate demand the plan provisions and prices for,
// the paper's 100 Gbps operating point.
const planGbps = 100

func setupPlan(sz sizes, seed int64, tr *tracer) (runner, error) {
	sp := tr.begin("cisp.scenario")
	s := cisp.NewScenario(cisp.ScenarioConfig{Region: cisp.US, Scale: cisp.ScaleSmall, Seed: worldSeed, MaxCities: sz.planCities})
	tr.end(sp)
	pts := make([]geo.Point, len(s.Cities))
	for i, c := range s.Cities {
		pts[i] = c.Loc
	}
	tm := s.PopulationTraffic()
	return &plan{
		s: s, tm: tm, demand: cisp.ScaleTraffic(tm, planGbps), budget: s.DefaultBudget(),
		gen:  weather.NewRegionGenerator(seed, pts),
		wcfg: weather.Config{Days: sz.planDays, Seed: seed},
	}, nil
}

func (p *plan) pass(tr *tracer) error {
	p.attempted++
	sp := tr.begin("design.cisp")
	top, err := p.s.DesignCISP(p.tm, p.budget)
	tr.end(sp)
	if err != nil {
		p.failed++
		return fmt.Errorf("design: %w", err)
	}
	p.attempted += 3 // provision, price and the weather study cannot fail
	sp = tr.begin("capacity.provision")
	pl := p.s.Provision(top, p.demand)
	tr.end(sp)
	sp = tr.begin("capacity.price")
	p.costPerGB = p.s.CostPerGB(pl, planGbps)
	tr.end(sp)
	sp = tr.begin("weather.year")
	t0 := time.Now()
	p.year = weather.AnalyzeYear(top, p.s.Links, p.gen, p.wcfg)
	p.yearTime = time.Since(t0)
	tr.end(sp)
	p.top = top
	return nil
}

func (p *plan) check() (passResult, error) {
	top, an := p.top, p.year
	if top.CostUsed() > p.budget {
		return passResult{}, fmt.Errorf("design spent %v towers, budget %v", top.CostUsed(), p.budget)
	}
	stretch := top.MeanStretch()
	if !(stretch >= 1) {
		return passResult{}, fmt.Errorf("design mean stretch %v below 1", stretch)
	}
	if !(p.costPerGB > 0) || math.IsInf(p.costPerGB, 0) {
		return passResult{}, fmt.Errorf("cost per GB %v", p.costPerGB)
	}
	if len(an.P99) == 0 || len(an.P99) != len(an.Best) {
		return passResult{}, fmt.Errorf("weather study covered %d pairs (best %d)", len(an.P99), len(an.Best))
	}
	for k := range an.P99 {
		if an.P99[k] < an.Best[k] {
			return passResult{}, fmt.Errorf("pair %d: p99 stretch %v below its best %v", k, an.P99[k], an.Best[k])
		}
	}
	failedDays := 0
	for _, n := range an.FailedLinksPerDay {
		failedDays += n
	}
	return passResult{
		outputs: []output{
			{"design.mean_stretch", stretch},
			{"design.towers_used", top.CostUsed()},
			{"capacity.cost_per_gb", p.costPerGB},
			{"weather.p99_stretch_median", weather.Median(an.P99)},
			{"weather.failed_link_days", float64(failedDays)},
		},
		figures: map[string]float64{"weather.days_per_s": float64(p.wcfg.Days) / p.yearTime.Seconds()},
	}, nil
}

func (p *plan) ops() (int, int) { return p.attempted, p.failed }
func (p *plan) close(*report)   {}

// churn: a fresh daemon per pass applies a day of control events one at a
// time (the closed-loop injector of cispd's replay path), while one
// open-loop reader fetches the current snapshot over loopback HTTP.
type churn struct {
	b      *ctlplane.Backbone
	comms  []netsim.Commodity
	events []ctlplane.Event
	want   int // snapshots a pass publishes when every event succeeds

	ln     net.Listener
	srv    *http.Server
	served chan struct{}                 // closed when the server goroutine returns
	mux    atomic.Pointer[http.ServeMux] // the current daemon's API
	stop   chan struct{}
	done   chan struct{}
	reader *reader

	d         *ctlplane.Daemon
	published []published // recorded by OnPublish on the daemon's event loop
	apply     []float64   // Apply latency of every event, ms
	attempted int
	failed    int
}

type published struct {
	version uint64
	mlu     float64
	bytes   int
}

// churnFlows, churnFlowBytes and churnWindow size the daemon's commodities
// the way the TE study does: 20 000 flows of 250 KiB arriving over 30 s.
const (
	churnFlows     = 20000
	churnFlowBytes = 250 << 10
	churnWindow    = 30.0
	readsPerSecond = 100 // open-loop snapshot reads
)

// churnHorizon is the modeled time one churn pass replays, and churnMTBF
// the hardware MTBF its failures are drawn with: a month rather than
// DrawStream's default six months, so that every pass has failures (5 to
// 10 a day) for fast reroute to patch.
const (
	churnHorizon               = 86400
	churnMTBF    units.Seconds = 30 * 86400
)

func setupChurn(sz sizes, seed int64, tr *tracer) (runner, error) {
	sp := tr.begin("experiments.backbone")
	tt, err := experiments.DesignedTETopology(backboneOptions(sz))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	c := &churn{
		b:     &ctlplane.Backbone{Sites: tt.Sites, Nodes: tt.Nodes, Mw: tt.Mw, Fiber: tt.Fiber},
		comms: experiments.DemandCommodities(tt.DesignTM, churnFlows, churnFlowBytes, churnWindow),
	}
	sp = tr.begin("ctlplane.stream")
	c.events = churnStream(c.b, seed)
	tr.end(sp)
	if sz.churnEvents > 0 && len(c.events) > sz.churnEvents {
		c.events = c.events[:sz.churnEvents]
	}
	c.want = 1
	for _, ev := range c.events {
		if ev.Type == ctlplane.EventFade {
			c.want++
		} else {
			c.want += 2 // fast-reroute snapshot, then the reoptimized one
		}
	}
	c.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if mux := c.mux.Load(); mux != nil {
			mux.ServeHTTP(w, r)
			return
		}
		http.Error(w, "no daemon yet", http.StatusServiceUnavailable)
	})}
	c.served = make(chan struct{})
	go func() {
		defer close(c.served)
		c.srv.Serve(c.ln) // returns http.ErrServerClosed once close shuts it down
	}()
	return c, nil
}

// churnStream is the control-event stream one churn pass replays: a day of
// ctlplane.DrawStream, the stream cispd replays, in DrawStream's order.
// Its fades are the world's storms (DrawStream at worldSeed) and its
// failures and repairs are DrawStream's at the run's seed. The storms stay
// with the world because they set a pass's cost: 350 events of a day's
// storms took from 0.9 to 3.2 s to apply across sixteen seeds, while the
// seeded failures leave pass time within run-to-run noise.
func churnStream(b *ctlplane.Backbone, seed int64) []ctlplane.Event {
	cfg := ctlplane.StreamConfig{Seed: worldSeed, Horizon: churnHorizon, MTBF: churnMTBF}
	var tevs []ctlplane.TimedEvent
	for _, tev := range ctlplane.DrawStream(b, cfg) {
		if tev.Ev.Type == ctlplane.EventFade {
			tevs = append(tevs, tev)
		}
	}
	// A weather step as long as the horizon samples no weather, so this
	// draw is the hardware transitions alone.
	cfg.Seed, cfg.StepSeconds = seed, churnHorizon
	tevs = append(tevs, ctlplane.DrawStream(b, cfg)...)
	slices.SortStableFunc(tevs, func(x, y ctlplane.TimedEvent) int {
		return cmp.Or(cmp.Compare(x.At, y.At), cmp.Compare(x.Ev.Type, y.Ev.Type), cmp.Compare(x.Ev.Link, y.Ev.Link))
	})
	evs := make([]ctlplane.Event, len(tevs))
	for i, tev := range tevs {
		evs[i] = tev.Ev
	}
	return evs
}

func (c *churn) onPublish(s *ctlplane.Snapshot) {
	c.published = append(c.published, published{s.Version, s.MLU, len(s.JSON())})
}

func (c *churn) pass(tr *tracer) error {
	c.published = c.published[:0]
	c.attempted++
	sp := tr.begin("ctlplane.boot")
	d, err := ctlplane.New(ctlplane.Config{Backbone: c.b, Comms: c.comms, OnPublish: c.onPublish})
	tr.end(sp)
	if err != nil {
		c.failed++
		return fmt.Errorf("booting the daemon: %w", err)
	}
	c.mux.Store(d.NewMux(nil))
	c.d = d
	if c.reader == nil { // reads begin once there is a daemon to serve them
		c.stop, c.done = make(chan struct{}), make(chan struct{})
		c.reader = &reader{url: "http://" + c.ln.Addr().String() + "/v1/snapshot"}
		go c.reader.run(c.stop, c.done)
	}
	var firstErr error
	for _, ev := range c.events {
		c.attempted++
		sp := tr.begin("ctlplane.apply")
		t0 := time.Now()
		_, err := d.Apply([]ctlplane.Event{ev})
		lat := time.Since(t0)
		tr.end(sp)
		c.apply = append(c.apply, ms(lat))
		if err != nil {
			c.failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("applying %+v: %w", ev, err)
			}
		}
	}
	return firstErr
}

func (c *churn) check() (passResult, error) {
	c.d.Close() // waits for the event loop, so published is safe to read
	n := len(c.published)
	if n != c.want {
		return passResult{}, fmt.Errorf("published %d snapshots, want %d", n, c.want)
	}
	mlu, bytes := 0.0, 0
	for i, p := range c.published {
		if p.version != uint64(i+1) {
			return passResult{}, fmt.Errorf("snapshot %d has version %d: versions are not contiguous", i, p.version)
		}
		if math.IsNaN(p.mlu) || math.IsInf(p.mlu, 0) || p.mlu < 0 {
			return passResult{}, fmt.Errorf("snapshot v%d has MLU %v", p.version, p.mlu)
		}
		mlu += p.mlu
		bytes += p.bytes
	}
	if v := c.d.Snapshot().Version; v != uint64(n) {
		return passResult{}, fmt.Errorf("final version %d after %d publishes", v, n)
	}
	return passResult{
		outputs: []output{
			{"ctlplane.events", float64(len(c.events))},
			{"ctlplane.final_version", float64(n)},
			{"ctlplane.mean_mlu", mlu / float64(n)},
		},
		figures: map[string]float64{"ctlplane.snapshot_kb": float64(bytes) / float64(n) / 1024},
	}, nil
}

// ops counts events and daemon boots, plus reads once close has stopped
// the reader.
func (c *churn) ops() (int, int) {
	if c.reader == nil {
		return c.attempted, c.failed
	}
	return c.attempted + c.reader.attempted, c.failed + c.reader.failed
}

func (c *churn) close(rep *report) {
	if c.reader != nil {
		close(c.stop)
		<-c.done
	}
	c.srv.Close()
	<-c.served
	if c.d != nil {
		c.d.Close()
	}
	if rep == nil || c.reader == nil {
		return
	}
	r := c.reader
	rep.percentile("churn.apply_p50_ms", c.apply, 0.50)
	rep.percentile("churn.apply_p99_ms", c.apply, 0.99)
	rep.percentile("churn.read_p50_ms", r.latency, 0.50)
	rep.percentile("churn.read_p99_ms", r.latency, 0.99)
	rep.values["ctlplane.apply_tail_ratio"] = rep.own["churn.apply_p99_ms"].value / rep.own["churn.apply_p50_ms"].value
	lateMax := 0.0
	for _, l := range r.late {
		lateMax = math.Max(lateMax, l)
	}
	rep.details = append(rep.details,
		fmt.Sprintf("%d of %d snapshot reads failed; the read generator ran at most %.3f ms late", r.failed, r.attempted, lateMax))
}

// reader is the open-loop snapshot client: it issues GET /v1/snapshot on a
// fixed schedule whether or not earlier reads have finished, and times each
// read from when it was due, so a stall counts against every read it holds
// up.
type reader struct {
	url       string
	latency   []float64 // ms, from due time to the body fully read
	late      []float64 // ms the request left after its due time
	attempted int
	failed    int
}

// run reads until stop closes, then closes done. Its fields belong to the
// reader goroutine until done is closed.
func (r *reader) run(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 10 * time.Second}
	period := time.Second / readsPerSecond
	timer := time.NewTimer(0)
	defer timer.Stop()
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		timer.Reset(time.Until(due))
		select {
		case <-stop:
			return
		case <-timer.C:
		}
		r.late = append(r.late, ms(time.Since(due)))
		r.attempted++
		ok := false
		if resp, err := client.Get(r.url); err == nil {
			n, err := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ok = err == nil && n > 0 && resp.StatusCode == http.StatusOK
		}
		if !ok {
			r.failed++
			continue
		}
		r.latency = append(r.latency, ms(time.Since(due)))
	}
}

// users: the four population scenarios through workload.Pipeline.
type users struct {
	b       *workload.Backbone
	specs   []workload.Spec
	p       workload.Pipeline
	reports []*workload.ScenarioReport

	attempted int
	failed    int
}

func setupUsers(sz sizes, seed int64, tr *tracer) (runner, error) {
	sp := tr.begin("experiments.backbone")
	b, err := experiments.UsersBackbone(backboneOptions(sz))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	specs := []workload.Spec{
		{Name: "evening-peak", Kind: workload.Diurnal, Seed: seed},
		{Name: "flash-crowd", Kind: workload.FlashCrowd, Seed: seed},
		{Name: "disaster-storm", Kind: workload.Disaster, Seed: seed},
		{Name: "cdn-anycast", Kind: workload.CDNPlacement, Seed: seed, SinkCount: 4},
	}
	return &users{
		b: b, specs: specs[:sz.usersSpecs],
		p: workload.Pipeline{Backbone: b, TotalFlows: sz.usersFlows, PacketFlows: sz.usersPacketFlows, Seed: seed},
	}, nil
}

func (u *users) pass(tr *tracer) error {
	u.reports = u.reports[:0]
	for _, spec := range u.specs {
		u.attempted++
		sp := tr.begin("workload.compile")
		c, err := workload.Compile(spec, u.b)
		tr.end(sp)
		if err != nil {
			u.failed++
			return fmt.Errorf("compiling %s: %w", spec.Name, err)
		}
		u.attempted++
		sp = tr.begin("workload.pipeline")
		rep, err := u.p.Run(c)
		tr.end(sp)
		if err != nil {
			u.failed++
			return fmt.Errorf("running %s: %w", spec.Name, err)
		}
		u.reports = append(u.reports, rep)
	}
	return nil
}

func (u *users) check() (passResult, error) {
	if len(u.reports) != len(u.specs) {
		return passResult{}, fmt.Errorf("%d scenario reports, want %d", len(u.reports), len(u.specs))
	}
	runs, flows, completed := 0, 0, 0
	var rttCISP, rttFiber float64
	for _, rep := range u.reports {
		for _, run := range rep.Runs {
			runs++
			if run.Completed > run.Flows || run.Completed < 0 {
				return passResult{}, fmt.Errorf("%s %s/%s: %d of %d flows completed", rep.Name, run.Substrate, run.Mode, run.Completed, run.Flows)
			}
			flows += run.Flows
			completed += run.Completed
		}
		for _, mode := range []string{"fluid", "packet"} {
			h, f := rep.Run(workload.SubstrateCISP, mode), rep.Run(workload.SubstrateFiber, mode)
			if h == nil || f == nil {
				return passResult{}, fmt.Errorf("%s: missing a %s run", rep.Name, mode)
			}
			for a := range h.Apps {
				if h.Apps[a].Flows == 0 {
					continue
				}
				if h.Apps[a].RTTMs > f.Apps[a].RTTMs {
					return passResult{}, fmt.Errorf("%s %s %s: cisp RTT %.3f ms above fiber %.3f ms",
						rep.Name, mode, h.Apps[a].App, h.Apps[a].RTTMs, f.Apps[a].RTTMs)
				}
				rttCISP += h.Apps[a].RTTMs * float64(h.Apps[a].Flows)
				rttFiber += f.Apps[a].RTTMs * float64(h.Apps[a].Flows)
			}
		}
	}
	if want := 4 * len(u.specs); runs != want {
		return passResult{}, fmt.Errorf("%d runs, want %d", runs, want)
	}
	return passResult{outputs: []output{
		{"workload.runs", float64(runs)},
		{"workload.flows", float64(flows)},
		{"workload.completed_frac", float64(completed) / float64(flows)},
		{"workload.rtt_ratio", rttCISP / rttFiber},
	}}, nil
}

func (u *users) ops() (int, int) { return u.attempted, u.failed }
func (u *users) close(*report)   {}

// crowd: a cold TE solve and an overloaded fluid replay of its splits.
type crowd struct {
	nodes int
	links []netsim.TopoLink
	comms []netsim.Commodity
	seed  int64
	flows int

	sol    *te.Solution
	res    *netsim.ScenarioResult
	allocs float64 // heap objects the traced fluid run allocated per event

	attempted int
	failed    int
}

// crowdFlowBytes and crowdWindow size the crowd's flows: 1 MiB each,
// arriving over 30 s, which offers 2.7 times what the backbone's busiest
// link carries (the TE solve's predicted MLU).
const (
	crowdFlowBytes = 1 << 20
	crowdWindow    = 30.0
	crowdHorizon   = 60.0
)

func setupCrowd(sz sizes, seed int64, tr *tracer) (runner, error) {
	sp := tr.begin("experiments.backbone")
	tt, err := experiments.DesignedTETopology(backboneOptions(sz))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	comms := experiments.DemandCommodities(tt.DesignTM, sz.crowdFlows, crowdFlowBytes, crowdWindow)
	flows := 0
	for _, c := range comms {
		flows += c.Count
	}
	return &crowd{nodes: tt.Nodes, links: tt.Links(), comms: comms, seed: seed, flows: flows}, nil
}

// heapObjects reads the runtime's cumulative count of heap allocations
// without stopping the world.
func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (c *crowd) pass(tr *tracer) error {
	c.attempted++
	sp := tr.begin("te.solve")
	sol, err := te.Solve(c.nodes, c.links, c.comms, te.Config{})
	tr.end(sp)
	if err != nil {
		c.failed++
		return fmt.Errorf("te solve: %w", err)
	}
	c.attempted++
	sc := &netsim.Scenario{
		Nodes: c.nodes, Links: c.links, Comms: c.comms, Splits: sol.Splits,
		FlowBytes: crowdFlowBytes, Horizon: crowdHorizon, StartSpread: crowdWindow, Seed: c.seed,
	}
	var before uint64
	if tr != nil {
		before = heapObjects()
	}
	sp = tr.begin("netsim.fluid")
	c.res = sc.Run(netsim.FluidMode)
	tr.end(sp)
	if tr != nil {
		c.allocs = float64(heapObjects()-before) / float64(c.res.EventsProcessed)
	}
	c.sol = sol
	return nil
}

func (c *crowd) check() (passResult, error) {
	res := c.res
	if len(res.Flows) != c.flows {
		return passResult{}, fmt.Errorf("%d flows accounted for, %d offered", len(res.Flows), c.flows)
	}
	done := 0
	for _, f := range res.Flows {
		if f.Completed {
			done++
		}
	}
	if done != res.Completed {
		return passResult{}, fmt.Errorf("%d flows marked complete, result says %d", done, res.Completed)
	}
	mlu := float64(res.MLU)
	if math.IsNaN(mlu) || math.IsInf(mlu, 0) || mlu < 0 {
		return passResult{}, fmt.Errorf("measured MLU %v", mlu)
	}
	r := passResult{outputs: []output{
		{"netsim.flows", float64(len(res.Flows))},
		{"netsim.completed_frac", float64(res.Completed) / float64(len(res.Flows))},
		{"netsim.mlu", mlu},
		{"te.predicted_mlu", float64(c.sol.MLU)},
	}}
	if c.allocs > 0 {
		r.figures = map[string]float64{"netsim.fluid_allocs_per_event": c.allocs}
		c.allocs = 0
	}
	return r, nil
}

func (c *crowd) ops() (int, int) { return c.attempted, c.failed }
func (c *crowd) close(*report)   {}
