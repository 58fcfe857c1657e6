package te_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"sync"
	"testing"

	"cisp"
	"cisp/internal/experiments"
	"cisp/internal/netsim"
	"cisp/internal/te"
	"cisp/internal/units"
)

// designed is the §6.4 designed backbone at small scale and seed 1 with
// the daemon's commodities over it: 20 000 flows of 250 KiB arriving over
// 30 s, 340 commodities.
var designed = sync.OnceValues(func() (*experiments.TETopology, error) {
	return experiments.DesignedTETopology(experiments.Options{Scale: cisp.ScaleSmall, Seed: 1})
})

func designedInstance(t *testing.T) (int, []netsim.TopoLink, []netsim.Commodity) {
	t.Helper()
	tt, err := designed()
	if err != nil {
		t.Fatal(err)
	}
	comms := experiments.DemandCommodities(tt.DesignTM, 20000, 250<<10, 30)
	if len(comms) != 340 {
		t.Fatalf("%d commodities, want 340", len(comms))
	}
	return tt.Nodes, tt.Links(), comms
}

// poolHash is an FNV-1a hash over every candidate's node sequence and
// delay bits, commodity by commodity, and the total path count.
func poolHash(pools [][]te.Path) (paths int, sum uint64) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, pool := range pools {
		put(uint64(len(pool)))
		for _, p := range pool {
			paths++
			put(uint64(len(p.Nodes)))
			for _, v := range p.Nodes {
				put(uint64(v))
			}
			put(math.Float64bits(p.Delay))
		}
	}
	return paths, h.Sum64()
}

// TestCandidatePoolPinned pins the candidate pools over the designed
// backbone at TE's K 4 and fast reroute's K 8, read through a K 4
// controller: its own pool and a fresh enumeration at K 8. It pins the
// path count and a hash of every path's nodes and delay bits, recorded at
// the scan-Dijkstra enumeration.
func TestCandidatePoolPinned(t *testing.T) {
	n, links, comms := designedInstance(t)
	ctrl, err := te.NewController(n, links, comms, te.Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		k     int
		paths int
		hash  uint64
	}{
		{4, 1238, 0x842e64af6811e541},
		{8, 2295, 0x8f0f95ba372a8085},
	} {
		paths, sum := poolHash(ctrl.Candidates(c.k))
		if paths != c.paths || sum != c.hash {
			t.Errorf("K %d: %d paths, hash %#x; want %d, %#x", c.k, paths, sum, c.paths, c.hash)
		}
	}
}

// TestYenPrefixAcrossK: a K k pool is the first k paths of the K 8 pool,
// for every k below 8, so a controller's Candidates may answer any k up to
// its K from its own pool. A K 1 controller's pool is Yen at 1, and each
// deeper k is a fresh Yen run at k.
func TestYenPrefixAcrossK(t *testing.T) {
	n, links, comms := designedInstance(t)
	ctrl, err := te.NewController(n, links, comms, te.Config{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	full := ctrl.Candidates(8)
	for k := 1; k < 8; k++ {
		for i, pool := range ctrl.Candidates(k) {
			want := full[i][:min(k, len(full[i]))]
			if len(pool) != len(want) {
				t.Fatalf("K %d, commodity %d: %d paths, the K 8 pool's prefix has %d", k, comms[i].Flow, len(pool), len(want))
			}
			for j := range want {
				if !slices.Equal(pool[j].Nodes, want[j].Nodes) || math.Float64bits(pool[j].Delay) != math.Float64bits(want[j].Delay) {
					t.Fatalf("K %d, commodity %d: path %d = %v, K 8 has %v", k, comms[i].Flow, j, pool[j].Nodes, want[j].Nodes)
				}
			}
		}
	}
}

// TestTEScaleInvariance scales every link capacity and commodity demand of
// the designed instance by one factor. By a power of two every product and
// quotient in the LP scales exactly, so the splits and the MLU must come
// out bit-identical. Other factors round differently, and the LP has
// alternative optima, so splits may move (scaling by 10 or 1e-3 moves 32
// fractions, the largest by 0.098), but the optimal MLU must stay within
// 1e-12 relative (it moves by one ulp).
func TestTEScaleInvariance(t *testing.T) {
	n, links, comms := designedInstance(t)
	base, err := te.Solve(n, links, comms, te.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		k     float64
		exact bool
	}{{2, true}, {1024, true}, {10, false}, {1e-3, false}} {
		k := c.k
		sl := make([]netsim.TopoLink, len(links))
		for i, l := range links {
			l.RateBps = units.BitsPerSecond(k * float64(l.RateBps))
			sl[i] = l
		}
		sc := make([]netsim.Commodity, len(comms))
		for i, c := range comms {
			c.Demand = units.BitsPerSecond(k * float64(c.Demand))
			sc[i] = c
		}
		got, err := te.Solve(n, sl, sc, te.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !c.exact {
			if rel := math.Abs(float64(got.MLU-base.MLU)) / float64(base.MLU); rel > 1e-12 {
				t.Errorf("×%g: MLU %v, unscaled %v (relative gap %.3g)", k, got.MLU, base.MLU, rel)
			}
			continue
		}
		if math.Float64bits(float64(got.MLU)) != math.Float64bits(float64(base.MLU)) {
			t.Errorf("×%g: MLU %v, unscaled %v", k, got.MLU, base.MLU)
		}
		if len(got.Splits) != len(base.Splits) {
			t.Fatalf("×%g: %d split sets, unscaled %d", k, len(got.Splits), len(base.Splits))
		}
		for _, cm := range comms {
			flow := cm.Flow
			want, sp := base.Splits[flow], got.Splits[flow]
			if len(sp) != len(want) {
				t.Fatalf("×%g: flow %d has %d paths, unscaled %d", k, flow, len(sp), len(want))
			}
			for j := range want {
				if !slices.Equal(sp[j].Path, want[j].Path) || math.Float64bits(sp[j].Frac) != math.Float64bits(want[j].Frac) {
					t.Errorf("×%g: flow %d path %d = %v at %v, unscaled %v at %v",
						k, flow, j, sp[j].Path, sp[j].Frac, want[j].Path, want[j].Frac)
				}
			}
		}
	}
}
