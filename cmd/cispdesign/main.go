// Command cispdesign designs a cISP topology and prints it, optionally as
// GeoJSON for mapping (the paper's Fig 3 / Fig 8 views).
//
// Usage:
//
//	cispdesign [-region us|europe] [-scale small|medium|full] [-seed N]
//	           [-budget towers] [-aggregate gbps] [-geojson] [-workers N]
//
// -workers bounds the worker pool the link-build and design hot paths fan
// out on (0 = GOMAXPROCS); the designed topology is identical at every
// width.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"cisp"
	"cisp/internal/parallel"
)

func main() {
	region := flag.String("region", "us", "us or europe")
	scale := flag.String("scale", "small", "small, medium or full")
	seed := flag.Int64("seed", 1, "scenario seed")
	budget := flag.Float64("budget", 0, "tower budget (0 = 25 per city, as in the paper)")
	aggregate := flag.Float64("aggregate", 0, "aggregate Gbps to provision (0 = scale default)")
	geojson := flag.Bool("geojson", false, "emit the topology as GeoJSON on stdout")
	workers := flag.Int("workers", 0, "worker-pool width for the design/link-build hot paths (0 = GOMAXPROCS)")
	flag.Parse()
	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}

	sc, err := cisp.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := cisp.ScenarioConfig{Seed: *seed, Scale: sc}
	switch strings.ToLower(*region) {
	case "europe":
		cfg.Region = cisp.Europe
	default:
		cfg.Region = cisp.US
	}

	fmt.Fprintf(os.Stderr, "building scenario (%s, %s, seed %d)...\n", *region, *scale, *seed)
	s := cisp.NewScenario(cfg)
	fmt.Fprintf(os.Stderr, "  %d cities, %d towers, %d feasible hops\n",
		len(s.Cities), s.Registry.Len(), s.Links.FeasibleHops())

	b := *budget
	if b == 0 {
		b = s.DefaultBudget()
	}
	tm := s.PopulationTraffic()
	fmt.Fprintf(os.Stderr, "designing (budget %.0f towers)...\n", b)
	top, err := s.DesignCISP(tm, b)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	agg := *aggregate
	if agg == 0 {
		switch cfg.Scale {
		case cisp.ScaleFull:
			agg = 100
		case cisp.ScaleMedium:
			agg = 40
		default:
			agg = 10
		}
	}
	demand := cisp.ScaleTraffic(tm, agg)
	plan := s.Provision(top, demand)

	if *geojson {
		emitGeoJSON(s, top)
		return
	}

	fmt.Printf("cISP design: %d cities, budget %.0f towers (used %.0f)\n",
		len(s.Cities), b, top.CostUsed())
	fmt.Printf("mean stretch: %.4f   fiber-only: %.4f\n", top.MeanStretch(), top.MeanFiberStretch())
	fmt.Printf("microwave links built: %d\n", len(top.Built))

	type row struct {
		name string
		st   float64
	}
	var rows []row
	for _, l := range top.Built {
		geod := s.Cities[l.I].Loc.DistanceTo(s.Cities[l.J].Loc)
		rows = append(rows, row{
			name: fmt.Sprintf("%s <-> %s", s.Cities[l.I].Name, s.Cities[l.J].Name),
			st:   l.Dist / float64(geod),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	for _, r := range rows {
		fmt.Printf("  %-55s stretch %.3f\n", r.name, r.st)
	}
	fmt.Printf("provisioned for %.0f Gbps: %d hop installs, %d new towers, %d towers used\n",
		agg, plan.HopInstalls, plan.NewTowers, plan.TowersUsed)
	fmt.Printf("cost: $%.2f/GB\n", s.CostPerGB(plan, agg))
}

// emitGeoJSON writes a FeatureCollection: city points plus built links.
func emitGeoJSON(s *cisp.Scenario, top *cisp.Topology) {
	type feature struct {
		Type       string                 `json:"type"`
		Geometry   map[string]interface{} `json:"geometry"`
		Properties map[string]interface{} `json:"properties"`
	}
	var features []feature
	for _, c := range s.Cities {
		features = append(features, feature{
			Type: "Feature",
			Geometry: map[string]interface{}{
				"type":        "Point",
				"coordinates": []float64{c.Loc.Lon, c.Loc.Lat},
			},
			Properties: map[string]interface{}{"name": c.Name, "population": c.Population},
		})
	}
	for _, l := range top.Built {
		a, b := s.Cities[l.I], s.Cities[l.J]
		features = append(features, feature{
			Type: "Feature",
			Geometry: map[string]interface{}{
				"type": "LineString",
				"coordinates": [][]float64{
					{a.Loc.Lon, a.Loc.Lat}, {b.Loc.Lon, b.Loc.Lat},
				},
			},
			Properties: map[string]interface{}{
				"kind": "microwave", "towers": l.Cost, "meters": l.Dist,
			},
		})
	}
	out := map[string]interface{}{"type": "FeatureCollection", "features": features}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
