package resilience

import (
	"math"
	"sort"

	"cisp/internal/netsim"
)

// Stats is the analytic outcome of running a protection mode against a
// failure schedule — computed by walking the schedule's piecewise-constant
// topology states, so year-scale horizons cost milliseconds.
type Stats struct {
	Mode Mode

	// Availability is the demand-weighted fraction of (time × traffic)
	// with a live forwarding path, over all protected commodities and the
	// whole horizon. Detection and reoptimization delays are charged as
	// downtime.
	Availability float64

	// Nines is -log10(1 - Availability), capped at 9 (a schedule with no
	// downtime would otherwise be infinite).
	Nines float64

	// MeanStretch and MaxStretch describe the latency cost of surviving:
	// the demand-weighted mean (and worst) ratio of the in-force path's
	// delay to the commodity's clear-sky shortest delay, over live traffic
	// during periods when any link is down. 1.0 = failures never pushed
	// live traffic off shortest paths; 0 = the schedule has no failures.
	MeanStretch float64
	MaxStretch  float64

	// Reroutes counts the per-commodity routing changes the mode issued.
	Reroutes int
}

// split is a weighted path with its delay resolved once.
type split struct {
	path  []int
	frac  float64
	delay float64
}

func (p *Protection) toSplits(sps []netsim.SplitPath) []split {
	out := make([]split, len(sps))
	for i, sp := range sps {
		out[i] = split{path: sp.Path, frac: sp.Frac, delay: p.pathDelay(sp.Path)}
	}
	return out
}

// deadFrac sums the fractions of a split set whose path crosses a down link.
func (p *Protection) deadFrac(sps []split, down []bool) float64 {
	dead := 0.0
	for _, sp := range sps {
		if !p.pathUp(sp.path, down) {
			dead += sp.frac
		}
	}
	return dead
}

// Availability analytically evaluates a protection mode against a failure
// schedule. NoProtection leaves traffic where the primaries put it; FRR
// moves failed fractions to the precomputed backup detectDelay after each
// event; FRRReopt additionally rescues fractions whose primary and backup
// are both dead, provided the residual topology still connects the
// commodity, reoptDelay after the event — the connectivity-level effect of
// the background full reoptimization (load shaping, the LP's actual
// output, is the simulation study's concern, not availability's). A
// rescue, once installed, keeps carrying the commodity's dead fractions
// until its own links die or the primaries recover. A schedule that does
// not cover exactly the topology's links is refused, as Plan refuses it.
func (p *Protection) Availability(sched *Schedule, mode Mode) (Stats, error) {
	if err := p.covers(sched); err != nil {
		return Stats{}, err
	}
	st := Stats{Mode: mode}

	// Boundaries: every topology change and every one of Plan's decisions
	// inside the horizon. Between consecutive boundaries both the down-set
	// and the in-force routing are constant.
	events := sched.Events()
	decs := decisions(events, mode)
	bset := map[float64]bool{0: true, sched.Horizon: true}
	for _, ev := range events {
		bset[ev.Time] = true
	}
	for _, d := range decs {
		if d.t <= sched.Horizon {
			bset[d.t] = true
		}
	}
	var bounds []float64
	for t := range bset {
		if t <= sched.Horizon {
			bounds = append(bounds, t)
		}
	}
	sort.Float64s(bounds)

	type rescue struct {
		path  []int
		delay float64
	}
	installed := p.primaryKeys()
	inForce := make(map[int][]split, len(p.flows))
	for _, c := range p.flows {
		inForce[c.Flow] = p.toSplits(p.primaries[c.Flow])
	}
	rescues := map[int]rescue{}
	search := netsim.NewDelaySearch(p.index, p.links)

	demandTime, liveTime := 0.0, 0.0
	stretchW, stretchSum := 0.0, 0.0
	sweep := newDownSweep(sched)
	decIdx := 0
	for bi := 0; bi+1 < len(bounds); bi++ {
		t, next := bounds[bi], bounds[bi+1]
		down := sweep.advance(t)
		anyDown := false
		for _, d := range down {
			if d {
				anyDown = true
				break
			}
		}

		// Apply the decisions landing at this boundary (their times are
		// boundaries by construction): a patch re-patches from the
		// primaries, a reopt evaluates rescues.
		patch, rescueEval := false, false
		for ; decIdx < len(decs) && decs[decIdx].t <= t; decIdx++ {
			if decs[decIdx].reopt {
				rescueEval = true
			} else {
				patch = true
			}
		}
		if patch {
			p.repatch(installed, p.primaries, down, func(flow int, sps []netsim.SplitPath) {
				inForce[flow] = p.toSplits(sps)
				st.Reroutes++
			})
		}
		// Rescues die with the links they ride or when the patched split
		// recovers on its own.
		for flow, r := range rescues {
			if !p.pathUp(r.path, down) || p.deadFrac(inForce[flow], down) == 0 {
				delete(rescues, flow)
			}
		}
		if rescueEval {
			// A rescue is the least-delay path over the up links.
			for li := range p.links {
				search.BanLink(int32(2*li), down[li])
				search.BanLink(int32(2*li+1), down[li])
			}
			for _, c := range p.flows {
				if _, have := rescues[c.Flow]; have || p.deadFrac(inForce[c.Flow], down) == 0 {
					continue
				}
				if ids, delay := search.Run(c.Src, c.Dst, 0, math.Inf(1)); ids != nil {
					rescues[c.Flow] = rescue{path: p.index.Nodes(c.Src, ids), delay: delay}
					st.Reroutes++
				}
			}
		}

		dt := next - t
		if dt <= 0 {
			continue
		}
		for _, c := range p.flows {
			demand := float64(c.Demand)
			if demand <= 0 {
				demand = 1 // count zero-demand commodities uniformly
			}
			demandTime += demand * dt
			for _, sp := range inForce[c.Flow] {
				delay := sp.delay
				live := p.pathUp(sp.path, down)
				if !live {
					if r, ok := rescues[c.Flow]; ok {
						live, delay = true, r.delay
					}
				}
				if !live {
					continue
				}
				liveTime += demand * sp.frac * dt
				if anyDown {
					if s0, ok := p.shortest[c.Flow]; ok && s0 > 0 {
						str := delay / s0
						w := demand * sp.frac * dt
						stretchW += w
						stretchSum += w * str
						if str > st.MaxStretch {
							st.MaxStretch = str
						}
					}
				}
			}
		}
	}
	if demandTime > 0 {
		st.Availability = liveTime / demandTime
	}
	if st.Availability >= 1 {
		st.Availability, st.Nines = 1, 9
	} else {
		st.Nines = math.Min(9, -math.Log10(1-st.Availability))
	}
	if stretchW > 0 {
		st.MeanStretch = stretchSum / stretchW
	}
	return st, nil
}

func (p *Protection) pathDelay(path []int) float64 {
	d := 0.0
	for i := 0; i+1 < len(path); i++ {
		if li, ok := p.link(path[i], path[i+1]); ok {
			d += float64(p.links[li].PropDelay)
		}
	}
	return d
}
