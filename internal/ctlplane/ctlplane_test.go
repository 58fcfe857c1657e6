package ctlplane

import (
	"encoding/json"
	"strings"
	"testing"

	"cisp/internal/netsim"
)

// cloneSplits copies a split set down to its SplitPath slices, so a case
// can edit it in place without touching the controller's Solution, which
// the daemon keeps uncopied as its base.
func cloneSplits(m map[int][]netsim.SplitPath) map[int][]netsim.SplitPath {
	out := make(map[int][]netsim.SplitPath, len(m))
	for k, v := range m {
		out[k] = append([]netsim.SplitPath(nil), v...)
	}
	return out
}

// TestPublishRefusesInvalidSplits changes one commodity of a valid split
// set to each invalid form in turn. Every publish must fail, twice over
// (the refused entry must not be kept as validated), leaving the version
// and the served snapshot as they were; a valid publish afterwards must
// still encode as json.Marshal does.
func TestPublishRefusesInvalidSplits(t *testing.T) {
	b := SyntheticBackbone(fourSites(), 2, 10, 40)
	d, err := New(Config{Backbone: b, Comms: GravityCommodities(fourSites(), 20)})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() // the test drives publish itself; no request reaches the loop
	if err := d.publish(KindReopt, d.ctrl.Solution().Splits); err != nil {
		t.Fatalf("valid publish: %v", err)
	}
	served := d.Snapshot()
	flow := served.Commodities[0].Flow
	src := served.Commodities[0].Src
	dst := served.Commodities[0].Dst
	link := map[[2]int]bool{}
	for _, l := range d.clear {
		link[[2]int{l.A, l.B}], link[[2]int{l.B, l.A}] = true, true
	}
	via := -1
	for v := 0; v < d.nodes && via < 0; v++ {
		if v != src && v != dst && !link[[2]int{src, v}] {
			via = v
		}
	}
	if via < 0 {
		t.Fatalf("no node off a link from %d", src)
	}
	cases := []struct {
		name, want string
		edit       func(map[int][]netsim.SplitPath)
	}{
		{"unknown flow", "unknown commodity", func(s map[int][]netsim.SplitPath) { s[1<<20] = s[flow] }},
		{"empty split set", "empty split set", func(s map[int][]netsim.SplitPath) { s[flow] = nil }},
		{"hop not a link", "not a topology link", func(s map[int][]netsim.SplitPath) {
			s[flow] = []netsim.SplitPath{{Path: []int{src, via, dst}, Frac: 1}}
		}},
		{"fractions sum to 0.9", "fractions sum to", func(s map[int][]netsim.SplitPath) {
			for i := range s[flow] {
				s[flow][i].Frac *= 0.9
			}
		}},
	}
	for _, tc := range cases {
		for try := 0; try < 2; try++ {
			splits := cloneSplits(d.ctrl.Solution().Splits)
			tc.edit(splits)
			err := d.publish(KindReopt, splits)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s (try %d): publish error %v, want one naming %q", tc.name, try, err, tc.want)
			}
			if d.version != served.Version || d.Snapshot() != served {
				t.Fatalf("%s: refused publish moved the daemon to v%d (serving v%d), want v%d",
					tc.name, d.version, d.Snapshot().Version, served.Version)
			}
		}
	}
	if err := d.publish(KindReopt, d.ctrl.Solution().Splits); err != nil {
		t.Fatalf("valid publish after refusals: %v", err)
	}
	s := d.Snapshot()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if s.Version != served.Version+1 || string(s.JSON()) != string(want)+"\n" {
		t.Fatalf("publish after refusals: v%d %s, want v%d %s", s.Version, s.JSON(), served.Version+1, want)
	}
}
