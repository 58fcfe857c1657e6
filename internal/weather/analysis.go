package weather

import (
	"math/rand"
	"sort"

	"cisp/internal/design"
	"cisp/internal/linkbuild"
	"cisp/internal/netsim"
	"cisp/internal/parallel"
)

// YearAnalysis is the Fig 7 result: per-city-pair stretch statistics across
// a year of sampled weather intervals, plus the fiber-only baseline and the
// graded capacity record of the link fleet.
type YearAnalysis struct {
	// Per-pair stretch values (unsorted, one per city pair with traffic).
	Best  []float64 // fair-weather (minimum across the year)
	P99   []float64 // 99th percentile across the year
	Worst []float64 // maximum across the year
	Fiber []float64 // fiber-only stretch

	// FailedLinksPerDay records how many built links were down each day
	// (the paper's binary model: worst hop past the fade margin).
	FailedLinksPerDay []int

	// DegradedLinksPerDay records how many links were below clear-sky rate
	// but still up — the graded adaptive-modulation refinement.
	DegradedLinksPerDay []int

	// MeanCapacityPerDay is the mean adaptive-modulation capacity fraction
	// across built links each day (1 = whole fleet at clear-sky rate).
	MeanCapacityPerDay []float64

	// Intervals is the pre-drawn half-hour interval schedule (one per day),
	// exposed so packet-level studies can revisit specific intervals.
	Intervals []int
}

// Config for the year-long analysis.
type Config struct {
	Days int   // default 365
	Seed int64 // interval-picking seed
}

func (c *Config) setDefaults() {
	if c.Days == 0 {
		c.Days = 365
	}
	if c.Days < 0 { // an explicit negative yields an empty analysis
		c.Days = 0
	}
}

// dayResult is one day's contribution, produced independently per day so
// the days can fan out across the pool.
type dayResult struct {
	failed, degraded int
	meanCap          float64
	stretch          []float64 // per traffic pair, in pair-list order
}

// AnalyzeYear reproduces §6.1 with the graded dynamic-network engine: for
// each day a uniformly random 30-minute interval is drawn (the schedule is
// pre-drawn sequentially, so it is a pure function of the seed), every
// built link's graded condition is evaluated under that interval's
// precipitation field, failed links are removed from the hybrid APSP
// incrementally (design.Dynamic — no per-day topology rebuild), and
// per-pair stretch plus fleet capacity statistics are recorded.
//
// Days are evaluated concurrently on the shared pool; each day's result is
// a pure function of (topology, generator, cfg, day), and aggregation runs
// sequentially in day order, so the analysis is bit-identical at every
// worker count, including one.
func AnalyzeYear(top *design.Topology, links *linkbuild.Links, gen *Generator, cfg Config) *YearAnalysis {
	cfg.setDefaults()

	// Pre-draw the interval schedule sequentially for determinism.
	rng := rand.New(rand.NewSource(cfg.Seed))
	intervals := make([]int, cfg.Days)
	for day := range intervals {
		intervals[day] = rng.Intn(48)
	}

	lg := NewLinkGeometry(top, links)
	dyn := design.NewDynamic(top)
	p := top.P
	n := p.N

	// Fixed pair order shared by every day.
	type pairIdx struct{ s, t int }
	var pairs []pairIdx
	for s := 0; s < n; s++ {
		for t := s + 1; t < n; t++ {
			if p.Traffic[s][t] > 0 {
				pairs = append(pairs, pairIdx{s, t})
			}
		}
	}

	// Fan the days out; per-chunk scratch keeps workers from contending.
	results := make([]dayResult, cfg.Days)
	parallel.For(cfg.Days, 1, func(lo, hi int) {
		sc := dyn.NewScratch()
		var conds []LinkCondition
		var removed []int
		for day := lo; day < hi; day++ {
			field := gen.FieldAt(day, intervals[day])
			conds = lg.Conditions(field, conds)
			removed = removed[:0]
			res := dayResult{stretch: make([]float64, len(pairs))}
			capSum := 0.0
			for li, c := range conds {
				capSum += c.CapFrac
				if c.Failed {
					removed = append(removed, li)
					res.failed++
				} else if c.CapFrac < 1 {
					res.degraded++
				}
			}
			if len(conds) > 0 {
				res.meanCap = capSum / float64(len(conds))
			} else {
				res.meanCap = 1
			}
			d := dyn.DistWithout(removed, sc)
			for k, pr := range pairs {
				res.stretch[k] = d[pr.s][pr.t] / p.Geodesic[pr.s][pr.t]
			}
			results[day] = res
		}
	})

	// Sequential, day-ordered aggregation.
	an := &YearAnalysis{Intervals: intervals}
	for _, res := range results {
		an.FailedLinksPerDay = append(an.FailedLinksPerDay, res.failed)
		an.DegradedLinksPerDay = append(an.DegradedLinksPerDay, res.degraded)
		an.MeanCapacityPerDay = append(an.MeanCapacityPerDay, res.meanCap)
	}
	if cfg.Days == 0 {
		return an
	}
	sorted := make([]float64, cfg.Days)
	for k, pr := range pairs {
		for day := range results {
			sorted[day] = results[day].stretch[k]
		}
		sort.Float64s(sorted)
		an.Best = append(an.Best, sorted[0])
		an.Worst = append(an.Worst, sorted[len(sorted)-1])
		an.P99 = append(an.P99, netsim.Percentile(sorted, 99))
		an.Fiber = append(an.Fiber, top.FiberDist(pr.s, pr.t)/p.Geodesic[pr.s][pr.t])
	}
	return an
}

// Median of an unsorted slice (convenience for reporting); NaN for an
// empty input.
func Median(v []float64) float64 { return netsim.Percentile(v, 50) }
