package ctlplane

import (
	"encoding/json"
	"strings"
	"testing"

	"cisp/internal/netsim"
	"cisp/internal/units"
)

func wireFixture() (down []bool, comms []netsim.Commodity, splits map[int][]netsim.SplitPath, backups []BackupWire) {
	down = []bool{false, true, false}
	comms = []netsim.Commodity{
		{Flow: 1, Src: 0, Dst: 1, Demand: units.Gbps(5)},
		{Flow: 2, Src: 0, Dst: 2, Demand: units.Gbps(2.5)},
	}
	splits = map[int][]netsim.SplitPath{
		1: {{Path: []int{0, 1}, Frac: 1}},
		2: {{Path: []int{0, 1, 2}, Frac: 0.75}, {Path: []int{0, 2}, Frac: 0.25}},
	}
	backups = []BackupWire{{Flow: 1, Path: []int{0, 2, 1}}}
	return
}

// buildSnapshot encodes one snapshot through a fresh encoder, without
// validating the splits.
func buildSnapshot(version, epoch uint64, kind string, unixSec int64, method string,
	mlu float64, down []bool, comms []netsim.Commodity,
	splits map[int][]netsim.SplitPath, backups []BackupWire) (*Snapshot, error) {

	e := newEncoder(comms)
	if err := e.setBackups(backups); err != nil {
		return nil, err
	}
	entries, err := e.stage(splits, func(int, []netsim.SplitPath) error { return nil })
	if err != nil {
		return nil, err
	}
	return e.snapshot(version, epoch, kind, unixSec, method, mlu, down, entries)
}

// snapshotWireGolden pins the exact bytes of the snapshot wire format —
// the contract data-plane consumers parse. Any change to field names,
// ordering, or number formatting must be deliberate and show up here.
const snapshotWireGolden = `{"version":3,"epoch":2,"kind":"frr","time_unix":1234,"method":"warm","mlu":0.75,"down_links":[1],"commodities":[{"flow":1,"src":0,"dst":1,"demand_bps":5000000000,"splits":[{"path":[0,1],"frac":1}]},{"flow":2,"src":0,"dst":2,"demand_bps":2500000000,"splits":[{"path":[0,1,2],"frac":0.75},{"path":[0,2],"frac":0.25}]}],"backups":[{"flow":1,"path":[0,2,1]}]}` + "\n"

func TestSnapshotWireGolden(t *testing.T) {
	down, comms, splits, backups := wireFixture()
	s, err := buildSnapshot(3, 2, KindFRR, 1234, "warm", 0.75, down, comms, splits, backups)
	if err != nil {
		t.Fatalf("buildSnapshot: %v", err)
	}
	if got := string(s.JSON()); got != snapshotWireGolden {
		t.Errorf("snapshot wire golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, snapshotWireGolden)
	}
	// The encoding must round-trip to an equivalent snapshot.
	var rt Snapshot
	if err := json.Unmarshal(s.JSON(), &rt); err != nil {
		t.Fatalf("round-trip decode: %v", err)
	}
	if rt.Version != s.Version || rt.Epoch != s.Epoch || rt.Kind != s.Kind ||
		rt.Method != s.Method || rt.MLU != s.MLU || len(rt.Commodities) != len(s.Commodities) {
		t.Fatalf("round-trip mismatch: %+v vs %+v", rt, *s)
	}
}

func TestBuildSnapshotRejectsUnknownFlow(t *testing.T) {
	down, comms, splits, backups := wireFixture()
	splits[99] = []netsim.SplitPath{{Path: []int{0, 1}, Frac: 1}}
	if _, err := buildSnapshot(1, 1, KindInitial, 0, "lp", 0, down, comms, splits, backups); err == nil {
		t.Fatalf("snapshot with split for unknown commodity accepted")
	} else if !strings.Contains(err.Error(), "unknown commodity") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestSnapshotInstall(t *testing.T) {
	down, comms, splits, backups := wireFixture()
	s, err := buildSnapshot(1, 1, KindInitial, 0, "lp", 0.5, down, comms, splits, backups)
	if err != nil {
		t.Fatalf("buildSnapshot: %v", err)
	}
	links := []netsim.TopoLink{
		{A: 0, B: 1, RateBps: units.Gbps(10)},
		{A: 1, B: 2, RateBps: units.Gbps(10)},
		{A: 0, B: 2, RateBps: units.Gbps(10)},
	}
	sc := &netsim.Scenario{Nodes: 3, Links: links, Comms: comms}
	if err := s.Install(sc); err != nil {
		t.Fatalf("Install on matching scenario: %v", err)
	}
	if len(sc.Splits) != 2 || len(sc.Splits[2]) != 2 {
		t.Fatalf("installed splits %+v, want the snapshot's two flows", sc.Splits)
	}
	// A scenario missing a link the splits traverse must be refused.
	bad := &netsim.Scenario{Nodes: 3, Links: links[:2], Comms: comms}
	if err := s.Install(bad); err == nil {
		t.Fatalf("Install accepted splits traversing a link the scenario lacks")
	}
}
