// Package te is the traffic-engineering control plane over the hybrid
// cISP backbone: where the design pipeline (Steps 1–3) decides which links
// to build and how much capacity to provision, and internal/netsim forwards
// each commodity on a single path, te decides how offered traffic is
// *split* across the built capacity.
//
// For every commodity it enumerates k latency-diverse candidate paths
// (Yen's algorithm, capped at a configurable stretch of the commodity's
// shortest path, so no split ever leaves the paper's latency envelope),
// then solves a path-based multi-commodity flow program on internal/lp that
// minimises the maximum link utilization subject to demand satisfaction —
// the classic min-MLU TE objective of centralized SDN controllers. An
// instance of up to 1 500 LP variables is one global simplex solve ("lp");
// a larger one is sharded into commodity blocks refined Jacobi-style over
// internal/parallel ("block-lp"). The result installs into both netsim
// engines as netsim.Scenario.Splits, and a Controller supports
// warm-started reoptimization when weather degrades link capacities
// (internal/weather feeds graded CapFrac rates in; only commodities whose
// candidate paths cross a changed link are re-solved). See DESIGN.md §7.
package te

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"cisp/internal/netsim"
	"cisp/internal/obs"
	"cisp/internal/parallel"
	"cisp/internal/units"
)

// Config tunes the candidate paths and the LP objective. The zero value
// selects sensible defaults. Which solver runs is not configurable: it
// follows from the instance size (lpVarLimit).
type Config struct {
	K       int     // candidate paths per commodity (default 4)
	Stretch float64 // candidate delay cap, × the commodity's shortest-path delay (default 1.5)

	// UtilFloor is the utilization hinge below which a link counts as
	// uncongested: the LP objective only charges for the worst utilization
	// *above* this level, so light traffic stays on its lowest-latency
	// candidate instead of spreading for marginal MLU gains. Default 0.5;
	// set to 1 to spread only under genuine overload, or to a negative
	// value for the classic always-minimise-MLU objective.
	UtilFloor units.Utilization
}

// check refuses a Stretch or UtilFloor that is NaN or +Inf: a NaN stretch
// would lift the latency cap and a NaN floor stop the LP spreading load.
// Negative values mean the defaults, as withDefaults reads them.
func (c Config) check() error {
	if math.IsNaN(c.Stretch) || math.IsInf(c.Stretch, 1) {
		return fmt.Errorf("te: Stretch %v is not a finite factor", c.Stretch)
	}
	if u := float64(c.UtilFloor); math.IsNaN(u) || math.IsInf(u, 1) {
		return fmt.Errorf("te: UtilFloor %v is not a finite utilization", u)
	}
	return nil
}

// The scale ladder: an instance of up to lpVarLimit LP variables is one
// dense simplex solve; a larger one is sharded into commodity blocks of
// blockSize, refined for blockRounds Jacobi rounds.
const (
	lpVarLimit  = 1500
	blockSize   = 48
	blockRounds = 3
)

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 4
	}
	if c.Stretch <= 0 {
		c.Stretch = 1.5
	}
	switch {
	case c.UtilFloor == 0:
		c.UtilFloor = 0.5
	case c.UtilFloor < 0:
		c.UtilFloor = 0
	}
	return c
}

// teComm is the control plane's view of one commodity; its endpoints are
// the Controller's commodities entry at the same position.
type teComm struct {
	flow   int
	demand float64
	cands  []Path
	fracs  []float64 // current split, aligned with cands
}

// Solution is an installed-able TE routing decision.
type Solution struct {
	// Splits maps commodity flow IDs to weighted paths, ready for
	// netsim.Scenario.Splits. Commodities with no path on the current
	// topology are absent.
	Splits map[int][]netsim.SplitPath
	// MLU is the predicted maximum directed-link utilization under the
	// splits (offered demand over capacity, queuing ignored).
	MLU units.Utilization
	// Method records how the splits were computed: "lp" (one global
	// simplex) or "block-lp" (sharded Jacobi refinement).
	Method string
}

// Solve computes latency-bounded fractional splits for the commodities over
// the duplex topology: the one-shot entry point when no weather
// reoptimization is needed.
func Solve(n int, links []netsim.TopoLink, comms []netsim.Commodity, cfg Config) (*Solution, error) {
	ctrl, err := NewController(n, links, comms, cfg)
	if err != nil {
		return nil, err
	}
	return ctrl.Solution(), nil
}

// Controller holds the control-plane state between reoptimizations: the TE
// graph, each commodity's candidate paths (enumerated once, on the
// clear-sky topology), the current splits, and the storage its warm
// re-solves reuse. A Controller serves one goroutine at a time.
type Controller struct {
	cfg    Config
	g      *graph
	comms  []teComm
	sol    *Solution
	method string
	solves int64 // simplex solves run, the initial solve included

	// The constructor's links and commodities, and each commodity's first
	// K candidates over them. A teComm's cands is a clipped pool entry, so
	// a re-enumeration's append never writes into the pool.
	clear       []netsim.TopoLink
	commodities []netsim.Commodity
	pool        [][]Path

	// lp is the LP storage of every "lp"-method solve after construction.
	// The constructor's solve, the largest by far, runs on fresh storage,
	// so the controller does not keep a tableau that size alive.
	lp *lpScratch
}

// NewController builds the TE graph, enumerates candidate paths for every
// commodity in parallel, and solves the initial splits. It rejects a NaN,
// infinite or negative link rate or commodity demand, and a NaN or +Inf
// Stretch or UtilFloor.
func NewController(n int, links []netsim.TopoLink, comms []netsim.Commodity, cfg Config) (*Controller, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	for _, cm := range comms {
		if d := float64(cm.Demand); !solvable(d) {
			return nil, fmt.Errorf("te: commodity %d has demand %v", cm.Flow, d)
		}
	}
	g, err := buildGraph(n, links)
	if err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg, g: g, clear: slices.Clone(links), commodities: slices.Clone(comms)}
	c.pool = c.enumerate(cfg.K)
	c.comms = make([]teComm, len(comms))
	for i, cm := range comms {
		c.comms[i] = teComm{flow: cm.Flow, demand: float64(cm.Demand), cands: slices.Clip(c.pool[i])}
	}
	if err := c.reroute(allIndices(len(c.comms))); err != nil {
		return nil, err
	}
	c.lp = new(lpScratch)
	return c, nil
}

// Solution returns the current routing decision. A later update replaces
// the controller's Solution and never changes one already returned, so
// callers keep it, and its Splits, without copying; they must not modify
// it, since nothing else copies it either.
func (c *Controller) Solution() *Solution { return c.sol }

// Topology returns the link index, the clear-sky links and the commodities
// the controller was built over. They are shared: callers must not modify
// them.
func (c *Controller) Topology() (*netsim.LinkIndex, []netsim.TopoLink, []netsim.Commodity) {
	return c.g.index, c.clear, c.commodities
}

// Candidates returns each commodity's first k candidate paths at clear
// sky, aligned with the commodities; an unroutable commodity gets none. Up
// to K they are the pool's prefixes; a deeper k runs Yen afresh at k over
// the clear-sky links, at the controller's stretch. Both give what a
// controller built at K k splits over (Yen's first k paths do not depend
// on how many it was asked for), and no update changes them. The paths
// are shared: callers must not modify them.
func (c *Controller) Candidates(k int) [][]Path {
	if k > c.cfg.K {
		return c.enumerate(k)
	}
	out := make([][]Path, len(c.pool))
	for i, p := range c.pool {
		out[i] = slices.Clip(p[:min(k, len(p))])
	}
	return out
}

// LPSolves returns the number of simplex solves this controller has run,
// its initial solve included. Unlike the process-wide LPSolves it counts
// no other controller's work, so a delta across an operation stays exact
// while other TE work runs concurrently.
func (c *Controller) LPSolves() int64 { return c.solves }

// UpdateCapacities installs new per-link capacities (the link list must
// match the constructor's positionally — same endpoints, new RateBps, a
// finite rate ≥ 0; a rate of 0 marks a failed link) and re-solves only the
// affected commodities: those with a candidate path crossing a changed
// link. The others keep their splits, entering the re-solve as pinned load
// — a warm start that keeps storm-interval reoptimization cheap. Returns
// the sorted affected commodity flow IDs. An update is all or nothing: on
// any error the controller keeps its capacities, candidates and splits.
func (c *Controller) UpdateCapacities(links []netsim.TopoLink) ([]int, error) {
	snk := obs.Active()
	stop := snk.StartTimer("cisp_te_reopt_seconds")
	defer stop()
	if len(links) != len(c.g.links) {
		return nil, fmt.Errorf("te: capacity update has %d links, controller topology has %d", len(links), len(c.g.links))
	}
	// Validate the whole list before touching any capacity: a partial
	// mutation on a rejected update would desync the controller's graph
	// from its installed splits.
	for i, l := range links {
		if e := c.g.links[i]; e.A != l.A || e.B != l.B {
			return nil, fmt.Errorf("te: capacity update link %d is %d-%d, controller has %d-%d", i, l.A, l.B, e.A, e.B)
		}
		if r := float64(l.RateBps); !solvable(r) {
			return nil, fmt.Errorf("te: capacity update link %d has rate %v", i, r)
		}
	}
	changed := make([]bool, len(links))
	prev := make([]units.BitsPerSecond, len(links))
	anyChanged := false
	for i, l := range links {
		e := &c.g.links[i]
		prev[i] = e.RateBps
		if e.RateBps != l.RateBps {
			changed[i] = true
			anyChanged = true
			e.RateBps = l.RateBps
		}
	}
	if !anyChanged {
		return nil, nil
	}
	var affected []int
	for i := range c.comms {
		cm := &c.comms[i]
		hit := false
		for _, p := range cm.cands {
			for _, ei := range p.edges {
				if changed[ei/2] {
					hit = true
					break
				}
			}
			if hit {
				break
			}
		}
		if hit {
			affected = append(affected, i)
		}
	}
	// reroute clears the affected commodities' splits and may append
	// re-enumerated candidates. If it fails, put back what it found and
	// the old capacities, or the next update would drop those commodities.
	saved := make([]teComm, len(affected))
	for k, i := range affected {
		saved[k] = c.comms[i]
	}
	if err := c.reroute(affected); err != nil {
		for i := range c.g.links {
			c.g.links[i].RateBps = prev[i]
		}
		for k, i := range affected {
			c.comms[i] = saved[k]
		}
		return nil, err
	}
	snk.Counter("cisp_te_reopts_total").Inc()
	snk.Counter("cisp_te_reopt_commodities_total").Add(int64(len(affected)))
	ids := make([]int, len(affected))
	for k, i := range affected {
		ids[k] = c.comms[i].flow
	}
	sort.Ints(ids)
	return ids, nil
}

// reroute recomputes splits for the commodity indices in idxs, keeping
// every other commodity's current split pinned as base load. Candidates
// crossing a downed (zero-capacity) link are masked; a commodity left with
// no usable candidate is re-enumerated on the degraded topology.
func (c *Controller) reroute(idxs []int) error {
	inSet := make([]bool, len(c.comms))
	for _, i := range idxs {
		inSet[i] = true
	}
	base := make([]float64, 2*len(c.g.links))
	for i := range c.comms {
		if !inSet[i] {
			c.comms[i].addLoad(base)
		}
	}

	// The full candidate set is kept for the controller's lifetime (so a
	// restored link's paths come back after a storm); each reroute works on
	// the usable subset — candidates whose every edge is up. A commodity
	// with no usable candidate is re-enumerated on the degraded topology
	// and keeps any new paths for later.
	var search *netsim.DelaySearch
	usableOf := func(cm *teComm) []int {
		var usable []int
		for pi, p := range cm.cands {
			up := true
			for _, ei := range p.edges {
				if c.g.capBps(ei) <= 0 {
					up = false
					break
				}
			}
			if up {
				usable = append(usable, pi)
			}
		}
		return usable
	}

	// Partition the re-solved set: zero-demand or single-candidate
	// commodities are fixed on their best usable path (their load joins the
	// base); the rest go to the optimizer via shadow commodities holding
	// just the usable candidates.
	var (
		shadows []*teComm
		owners  []*teComm
		usables [][]int
	)
	for _, i := range idxs {
		cm := &c.comms[i]
		cm.fracs = nil
		usable := usableOf(cm)
		if len(usable) == 0 {
			if search == nil {
				search = netsim.NewDelaySearch(c.g.index, c.g.links)
			}
			for _, p := range yen(c.g, search, c.commodities[i].Src, c.commodities[i].Dst, c.cfg.K, c.cfg.Stretch) {
				dup := false
				for _, q := range cm.cands {
					if slices.Equal(p.edges, q.edges) {
						dup = true
						break
					}
				}
				if !dup {
					cm.cands = append(cm.cands, p)
				}
			}
			usable = usableOf(cm)
		}
		if len(usable) == 0 {
			continue // unroutable on the current topology
		}
		if len(usable) == 1 || cm.demand <= 0 {
			cm.fracs = make([]float64, len(cm.cands))
			cm.fracs[usable[0]] = 1
			cm.addLoad(base)
			continue
		}
		sub := make([]Path, len(usable))
		for k, pi := range usable {
			sub[k] = cm.cands[pi]
		}
		shadows = append(shadows, &teComm{flow: cm.flow, demand: cm.demand, cands: sub})
		owners = append(owners, cm)
		usables = append(usables, usable)
	}

	if len(shadows) > 0 {
		nx := 1
		for _, cm := range shadows {
			nx += len(cm.cands)
		}
		var (
			fracs  [][]float64
			method string
			err    error
		)
		if nx <= lpVarLimit {
			method = "lp"
			c.solves++
			floor := float64(netsim.MaxUtilization(c.g.links, base))
			fracs, _, err = solveLP(c.g, shadows, base, floor, float64(c.cfg.UtilFloor), c.lp)
		} else {
			method = "block-lp"
			fracs, err = c.solveBlocks(shadows, base)
		}
		if err != nil {
			return err
		}
		for k, cm := range owners {
			cm.fracs = make([]float64, len(cm.cands))
			for j, pi := range usables[k] {
				cm.fracs[pi] = fracs[k][j]
			}
		}
		c.method = method
	} else if c.method == "" {
		c.method = "lp"
	}

	c.rebuildSolution()
	return nil
}

// solveBlocks shards the commodities into demand-balanced blocks and
// refines them Jacobi-style: each round, every block re-solves its own LP
// against a snapshot of the other blocks' load from the previous round,
// fanned out over the shared worker pool. The snapshot discipline makes the
// result independent of the worker count.
func (c *Controller) solveBlocks(lpComms []*teComm, fixed []float64) ([][]float64, error) {
	order := sortByDemand(lpComms)
	nb := (len(lpComms) + blockSize - 1) / blockSize
	blocks := make([][]int, nb) // indices into lpComms
	for k, ci := range order {
		blocks[k%nb] = append(blocks[k%nb], ci)
	}

	// Initial iterate: everything on its shortest candidate.
	fracs := make([][]float64, len(lpComms))
	for i, cm := range lpComms {
		f := make([]float64, len(cm.cands))
		f[0] = 1
		fracs[i] = f
	}

	loadOf := func(fr [][]float64) []float64 {
		load := make([]float64, 2*len(c.g.links))
		copy(load, fixed)
		for i, cm := range lpComms {
			cm.addLoadFracs(load, fr[i])
		}
		return load
	}

	for round := 0; round < blockRounds; round++ {
		load := loadOf(fracs)
		type blockResult struct {
			fracs [][]float64
			err   error
		}
		results := parallel.Map(nb, 1, func(b int) blockResult {
			base := make([]float64, len(load))
			copy(base, load)
			cs := make([]*teComm, len(blocks[b]))
			for k, ci := range blocks[b] {
				cs[k] = lpComms[ci]
				cs[k].subLoadFracs(base, fracs[ci])
			}
			floor := float64(netsim.MaxUtilization(c.g.links, base))
			f, _, err := solveLP(c.g, cs, base, floor, float64(c.cfg.UtilFloor), nil)
			return blockResult{fracs: f, err: err}
		})
		c.solves += int64(nb)
		next := make([][]float64, len(lpComms))
		for b, r := range results {
			if r.err != nil {
				return nil, fmt.Errorf("te: block %d round %d: %w", b, round, r.err)
			}
			for k, ci := range blocks[b] {
				next[ci] = r.fracs[k]
			}
		}
		if round > 0 {
			// Damp later rounds: simultaneous block moves onto the same
			// alternate capacity would otherwise oscillate.
			for i := range next {
				for pi := range next[i] {
					next[i][pi] = 0.5*next[i][pi] + 0.5*fracs[i][pi]
				}
			}
		}
		fracs = next
	}
	return fracs, nil
}

// sortByDemand returns commodity indices in descending demand order, ties
// broken by ascending flow ID — the deterministic order solveBlocks deals
// commodities into blocks.
func sortByDemand(cs []*teComm) []int {
	order := make([]int, len(cs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := cs[order[a]], cs[order[b]]
		if ca.demand != cb.demand {
			return ca.demand > cb.demand
		}
		return ca.flow < cb.flow
	})
	return order
}

// rebuildSolution reassembles Splits and the predicted MLU from the
// commodity table.
func (c *Controller) rebuildSolution() {
	load := make([]float64, 2*len(c.g.links))
	splits := make(map[int][]netsim.SplitPath, len(c.comms))
	for i := range c.comms {
		cm := &c.comms[i]
		if cm.fracs == nil {
			continue
		}
		cm.addLoad(load)
		var sp []netsim.SplitPath
		for pi, f := range cm.fracs {
			if f < 1e-6 {
				continue
			}
			sp = append(sp, netsim.SplitPath{Path: cm.cands[pi].Nodes, Frac: f})
		}
		if len(sp) > 0 {
			splits[cm.flow] = sp
		}
	}
	c.sol = &Solution{Splits: splits, MLU: netsim.MaxUtilization(c.g.links, load), Method: c.method}
}

// addLoad accrues the commodity's current split load onto the edge vector.
func (cm *teComm) addLoad(load []float64) { cm.addLoadFracs(load, cm.fracs) }

func (cm *teComm) addLoadFracs(load []float64, fracs []float64) {
	for pi, f := range fracs {
		if f <= 0 {
			continue
		}
		for _, ei := range cm.cands[pi].edges {
			load[ei] += cm.demand * f
		}
	}
}

func (cm *teComm) subLoadFracs(load []float64, fracs []float64) {
	for pi, f := range fracs {
		if f <= 0 {
			continue
		}
		for _, ei := range cm.cands[pi].edges {
			load[ei] -= cm.demand * f
			if load[ei] < 0 {
				load[ei] = 0
			}
		}
	}
}

// solvable reports whether a rate or demand is one te can solve over:
// finite and ≥ 0. Zero is legal: a down link or an idle commodity.
func solvable(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 }

func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
