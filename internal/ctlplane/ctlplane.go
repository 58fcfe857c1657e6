// Package ctlplane is the long-running control plane of the hybrid cISP
// backbone: where cispbench designs a network, replays a figure, and
// exits, a ctlplane.Daemon owns a designed backbone for its lifetime,
// ingests a live stream of weather-grading and hard-failure events (from
// the seeded internal/weather and internal/resilience engines, or from an
// HTTP injection endpoint), drives te.Controller warm reoptimization and
// fast-reroute activation in response, and serves versioned, immutable
// forwarding snapshots over HTTP/JSON at high QPS.
//
// Concurrency model: one event-loop goroutine owns all mutable state
// (graded capacities, down-set, the TE controller) and publishes
// copy-on-write snapshots through an atomic pointer — readers never take a
// lock and never block behind a reoptimization; they see the last
// published version until the swap. Hard failures follow the resilience
// contract: the fast-reroute patch publishes first, with zero LP solves on
// that path (pinned by the cisp_ctlplane_frr_lp_solves gauge and the
// ctltest harness), and the warm reoptimization swaps in as a separate
// snapshot version. The snapshot sequence is a pure function of the event
// sequence and the daemon's seed-determined inputs: same events, same
// bytes, at any worker-pool width. See DESIGN.md §13.
package ctlplane

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cisp/internal/netsim"
	"cisp/internal/obs"
	"cisp/internal/resilience"
	"cisp/internal/te"
)

// Config assembles a Daemon. Backbone and Comms are required. The daemon
// boots under the te and resilience defaults; Reload retunes TE.
type Config struct {
	Backbone *Backbone
	Comms    []netsim.Commodity

	// Clock stamps snapshots and feeds latency histograms. Defaults to a
	// fixed epoch clock, keeping library use deterministic; cmd/cispd
	// injects obs.WallClock, tests an obs.ManualClock.
	Clock obs.Clock

	// OnPublish, when non-nil, observes every published snapshot,
	// synchronously and in version order, from the event loop. Used by the
	// ctltest harness to record byte-exact snapshot sequences and by
	// cmd/cispd for logging; must not block.
	OnPublish func(*Snapshot)
}

// Daemon is a running control plane. Create with New, stop with Close.
type Daemon struct {
	cfg   Config
	nodes int
	nMw   int
	clear []netsim.TopoLink // clear-sky hybrid list (mw prefix + fiber)
	comms []netsim.Commodity
	snap  atomic.Pointer[Snapshot]

	drain  atomic.Bool
	mu     sync.RWMutex // guards reqs against close; held only around the send
	closed bool
	reqs   chan request
	loopWG sync.WaitGroup

	// Event-loop-owned state (never touched outside the loop after New).
	capFrac []float64 // per-microwave-link graded fraction
	down    []bool    // per-hybrid-link hard-failure state
	ctrl    *te.Controller
	prot    *resilience.Protection
	version uint64
	epoch   uint64

	// Publication state over clear and comms, which are fixed for the
	// daemon's lifetime: split validation, whose link index also sums the
	// snapshot MLU's load, and the encoder with its per-flow cache.
	rules *netsim.SplitRules
	enc   *encoder

	eff []netsim.TopoLink // effective's output, refilled at every call
}

// request is one serialized unit of work for the event loop.
type request struct {
	events []Event    // Apply
	reload *te.Config // Reload
	reply  chan result
}

type result struct {
	snap *Snapshot
	err  error
}

// New builds the control plane at clear sky — TE solve, disjoint-backup
// precomputation, initial snapshot (version 1, epoch 1) — and starts the
// event loop.
func New(cfg Config) (*Daemon, error) {
	if err := cfg.Backbone.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Comms) == 0 {
		return nil, fmt.Errorf("ctlplane: no commodities")
	}
	if cfg.Clock == nil {
		epoch := time.Unix(0, 0)
		cfg.Clock = func() time.Time { return epoch }
	}
	d := &Daemon{
		cfg:   cfg,
		nodes: cfg.Backbone.Nodes,
		nMw:   len(cfg.Backbone.Mw),
		clear: cfg.Backbone.Links(),
		comms: cfg.Comms,
		reqs:  make(chan request),
	}
	d.capFrac = make([]float64, d.nMw)
	for i := range d.capFrac {
		d.capFrac[i] = 1
	}
	d.down = make([]bool, len(d.clear))
	d.epoch = 1
	rules, err := netsim.NewSplitRules(d.nodes, d.clear, d.comms)
	if err != nil {
		return nil, fmt.Errorf("ctlplane: split rules: %w", err)
	}
	d.rules = rules
	d.enc = newEncoder(d.comms)
	if err := d.rebuild(te.Config{}); err != nil {
		return nil, err
	}
	if err := d.publish(KindInitial, d.ctrl.Solution().Splits); err != nil {
		return nil, err
	}
	d.loopWG.Add(1)
	go d.loop()
	return d, nil
}

// NumLinks returns the hybrid topology's link count (microwave prefix
// first); NumMw the microwave prefix length — the two ranges event
// validation is performed against.
func (d *Daemon) NumLinks() int { return len(d.clear) }

// NumMw returns the microwave link count (the fade-event index range).
func (d *Daemon) NumMw() int { return d.nMw }

// Snapshot returns the current forwarding snapshot: an atomic pointer
// load, safe from any goroutine, never blocking behind the event loop.
func (d *Daemon) Snapshot() *Snapshot { return d.snap.Load() }

// Apply injects events in order and returns the snapshot current after
// the last one published. It serializes through the event loop; readers
// calling Snapshot are unaffected while it runs.
func (d *Daemon) Apply(events []Event) (*Snapshot, error) {
	for i, ev := range events {
		if err := validateEvent(ev, d.nMw, len(d.clear)); err != nil {
			return nil, fmt.Errorf("ctlplane: event %d: %w", i, err)
		}
	}
	return d.send(request{events: events})
}

// Reload rebuilds the control plane under new TE tuning — a fresh
// controller and backup set at clear sky, replayed to the current
// graded/failed link state — and publishes a reload snapshot with the
// epoch incremented. Serving continues uninterrupted throughout. Tuning
// outside the reload bounds is refused before anything rebuilds.
func (d *Daemon) Reload(teCfg te.Config) (*Snapshot, error) {
	if err := checkReload(teCfg); err != nil {
		return nil, err
	}
	return d.send(request{reload: &teCfg})
}

// The reload bounds. A controller's build grows with K times the paths
// inside the stretch and runs on the event loop, so a reload may not ask
// for more than these; zero keeps te's default.
const (
	maxReloadK       = 16
	maxReloadStretch = 3
)

// checkReload rejects TE tuning outside the reload bounds, naming the
// field: K in [0, maxReloadK], Stretch 0 or in [1, maxReloadStretch].
func checkReload(c te.Config) error {
	if c.K < 0 || c.K > maxReloadK {
		return fmt.Errorf("ctlplane: reload te.K %d outside [0, %d]", c.K, maxReloadK)
	}
	if c.Stretch != 0 && !(c.Stretch >= 1 && c.Stretch <= maxReloadStretch) {
		return fmt.Errorf("ctlplane: reload te.Stretch %v outside [1, %d] (0 keeps the default)", c.Stretch, maxReloadStretch)
	}
	return nil
}

func (d *Daemon) send(req request) (*Snapshot, error) {
	req.reply = make(chan result, 1)
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		return nil, fmt.Errorf("ctlplane: daemon is draining")
	}
	// The loop is alive until Close, and Close cannot proceed while a read
	// lock is held, so this send always finds a consumer.
	d.reqs <- req
	d.mu.RUnlock()
	r := <-req.reply
	return r.snap, r.err
}

// Close drains the daemon: readiness drops immediately, new Apply/Reload
// calls are refused, and the event loop finishes its queue and exits.
// Idempotent.
func (d *Daemon) Close() {
	d.drain.Store(true)
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	close(d.reqs)
	d.mu.Unlock()
	d.loopWG.Wait()
}

// Draining reports whether Close has begun (readiness turns false first).
func (d *Daemon) Draining() bool { return d.drain.Load() }

func (d *Daemon) loop() {
	defer d.loopWG.Done()
	for req := range d.reqs {
		var res result
		switch {
		case req.reload != nil:
			res.snap, res.err = d.handleReload(*req.reload)
		default:
			res.snap, res.err = d.handleEvents(req.events)
		}
		req.reply <- res
	}
	// Nothing reoptimizes after the loop: drop the controller and the
	// backups, so a closed daemon whose owner still holds it (to serve its
	// last snapshot) keeps no solver storage alive.
	d.ctrl, d.prot = nil, nil
}

// effective is the current link state: netsim.Graded over the clear-sky
// list the controller was built over, the fade fractions and the
// down-set. It refills the daemon's one list, so callers read it only
// until the next call (UpdateCapacities and netsim.MaxUtilization keep
// nothing of it).
func (d *Daemon) effective() []netsim.TopoLink {
	d.eff = netsim.Graded(d.eff, d.clear, d.capFrac, d.down)
	return d.eff
}

func (d *Daemon) handleEvents(events []Event) (*Snapshot, error) {
	snk := obs.Active()
	for _, ev := range events {
		snk.Counter("cisp_ctlplane_events_total", "type", ev.Type).Inc()
		switch ev.Type {
		case EventFade:
			d.capFrac[ev.Link] = ev.CapFrac
			if err := d.reoptimize(KindReopt); err != nil {
				return nil, err
			}
		case EventFail, EventRepair:
			d.down[ev.Link] = ev.Type == EventFail
			// Fast reroute first: pure table lookups against the current
			// base, published before any solver runs. The controller's
			// LP-solve delta across this path is exported and must stay
			// zero.
			before := d.ctrl.LPSolves()
			if err := d.publish(KindFRR, d.patched()); err != nil {
				return nil, err
			}
			snk.Gauge("cisp_ctlplane_frr_lp_solves").Add(float64(d.ctrl.LPSolves() - before))
			if err := d.reoptimize(KindReopt); err != nil {
				return nil, err
			}
		}
	}
	return d.Snapshot(), nil
}

// reoptimize feeds the composed capacities into the warm controller and
// publishes its (fast-reroute-patched) solution.
func (d *Daemon) reoptimize(kind string) error {
	if _, err := d.ctrl.UpdateCapacities(d.effective()); err != nil {
		return fmt.Errorf("ctlplane: reoptimizing: %w", err)
	}
	return d.publish(kind, d.patched())
}

// patched is the controller's solution under fast reroute for the current
// down-set. A failed update leaves the controller's solution as it was,
// so the solution is always the latest successful one.
func (d *Daemon) patched() map[int][]netsim.SplitPath {
	return d.prot.PatchedFrom(d.ctrl.Solution().Splits, d.down)
}

func (d *Daemon) handleReload(teCfg te.Config) (*Snapshot, error) {
	if err := d.rebuild(teCfg); err != nil {
		return nil, err
	}
	d.epoch++
	if err := d.publish(KindReload, d.patched()); err != nil {
		return nil, err
	}
	return d.Snapshot(), nil
}

// rebuild constructs controller + protection at clear sky under the given
// TE tuning and replays the current graded/failed state into the
// controller. Called at New (epoch stays 1) and on Reload (caller bumps the
// epoch).
func (d *Daemon) rebuild(teCfg te.Config) error {
	ctrl, err := te.NewController(d.nodes, d.clear, d.comms, teCfg)
	if err != nil {
		return fmt.Errorf("ctlplane: clear-sky TE solve: %w", err)
	}
	prot, err := resilience.NewProtection(ctrl, ctrl.Solution().Splits)
	if err != nil {
		return fmt.Errorf("ctlplane: backup precomputation: %w", err)
	}
	d.ctrl, d.prot = ctrl, prot
	degraded := false
	for i := range d.capFrac {
		if d.capFrac[i] != 1 {
			degraded = true
		}
	}
	for _, dn := range d.down {
		if dn {
			degraded = true
		}
	}
	if degraded {
		if _, err := d.ctrl.UpdateCapacities(d.effective()); err != nil {
			return fmt.Errorf("ctlplane: replaying link state: %w", err)
		}
	}
	flows := make([]int, 0, len(prot.Backups))
	for flow := range prot.Backups {
		flows = append(flows, flow)
	}
	sort.Ints(flows)
	// A fresh slice: published snapshots keep the one they were built with.
	var backups []BackupWire
	for _, flow := range flows {
		backups = append(backups, BackupWire{Flow: flow, Path: prot.Backups[flow].Path})
	}
	return d.enc.setBackups(backups)
}

// publish validates, versions, encodes, and atomically swaps in a new
// snapshot, then notifies metrics and the OnPublish hook. Only commodities
// whose splits differ from their last published entry are validated and
// encoded: validity depends on nothing but the splits, clear and comms,
// and the last two never change, so an unchanged entry is still valid.
// MLU is the splits' load over the composed link state's rates.
func (d *Daemon) publish(kind string, splits map[int][]netsim.SplitPath) error {
	snk := obs.Active()
	stop := snk.StartTimer("cisp_ctlplane_publish_seconds")
	defer stop()
	entries, err := d.enc.stage(splits, d.rules.Check)
	if err != nil {
		return fmt.Errorf("ctlplane: refusing to publish: %w", err)
	}
	load, err := d.rules.Index().SplitLoad(d.comms, splits)
	if err != nil {
		return fmt.Errorf("ctlplane: snapshot MLU: %w", err)
	}
	mlu := netsim.MaxUtilization(d.effective(), load)
	d.version++
	snap, err := d.enc.snapshot(d.version, d.epoch, kind, d.cfg.Clock().Unix(),
		d.ctrl.Solution().Method, float64(mlu), d.down, entries)
	if err != nil {
		return err
	}
	d.snap.Store(snap)
	snk.Counter("cisp_ctlplane_snapshots_total", "kind", kind).Inc()
	snk.Gauge("cisp_ctlplane_snapshot_version").Set(float64(snap.Version))
	snk.Gauge("cisp_ctlplane_snapshot_epoch").Set(float64(snap.Epoch))
	snk.Gauge("cisp_ctlplane_mlu").Set(snap.MLU)
	if d.cfg.OnPublish != nil {
		d.cfg.OnPublish(snap)
	}
	return nil
}
