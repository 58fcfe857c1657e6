package ctlplane

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"

	"cisp/internal/netsim"
)

// Snapshot kinds, in publication order of a typical failure episode.
const (
	KindInitial = "initial" // first solve at boot
	KindFRR     = "frr"     // fast-reroute patch: zero LP solves
	KindReopt   = "reopt"   // warm TE reoptimization swapped in
	KindReload  = "reload"  // config reload rebuilt the control plane
)

// SplitWire is one weighted path of a published commodity.
type SplitWire struct {
	Path []int   `json:"path"`
	Frac float64 `json:"frac"`
}

// CommodityWire is one commodity's published forwarding entry.
type CommodityWire struct {
	Flow      int         `json:"flow"`
	Src       int         `json:"src"`
	Dst       int         `json:"dst"`
	DemandBps float64     `json:"demand_bps"`
	Splits    []SplitWire `json:"splits"`
}

// BackupWire is one commodity's precomputed fast-reroute path.
type BackupWire struct {
	Flow int   `json:"flow"`
	Path []int `json:"path"`
}

// Snapshot is one immutable, versioned forwarding state: what the daemon
// serves to the data plane. Versions increase strictly by 1 per publish;
// Epoch increments only when a config reload rebuilds the control plane.
// A snapshot is never mutated after Publish — readers hold it without
// locks, and its JSON encoding is computed once and byte-stable
// (commodities sorted by flow, down links sorted ascending). Snapshots
// share unchanged commodity entries, which are immutable too.
type Snapshot struct {
	Version     uint64          `json:"version"`
	Epoch       uint64          `json:"epoch"`
	Kind        string          `json:"kind"`
	TimeUnix    int64           `json:"time_unix"`
	Method      string          `json:"method"` // te Solution.Method of the underlying solve
	MLU         float64         `json:"mlu"`
	DownLinks   []int           `json:"down_links"`
	Commodities []CommodityWire `json:"commodities"`
	Backups     []BackupWire    `json:"backups"`

	encoded []byte
}

// JSON returns the snapshot's canonical wire encoding (newline-terminated),
// computed once at publish time — serving a snapshot at high QPS is a
// pointer load plus a buffer write. The bytes are json.Marshal's encoding
// of the snapshot plus a newline.
func (s *Snapshot) JSON() []byte { return s.encoded }

// snapshotHeader is a Snapshot's wire form up to its commodities, the
// same fields under the same tags, so that encoding/json formats its
// numbers and escapes its strings as it would in the whole snapshot.
type snapshotHeader struct {
	Version   uint64  `json:"version"`
	Epoch     uint64  `json:"epoch"`
	Kind      string  `json:"kind"`
	TimeUnix  int64   `json:"time_unix"`
	Method    string  `json:"method"`
	MLU       float64 `json:"mlu"`
	DownLinks []int   `json:"down_links"`
}

// encoder builds one daemon's snapshots. It keeps, per flow, the wire
// entry last published and its JSON fragment, and the backups' encoding,
// so a publish encodes only the commodities whose splits changed and
// assembles the rest of its bytes from what it kept.
type encoder struct {
	comms       map[int]netsim.Commodity
	flows       map[int]*flowWire
	backups     []BackupWire
	backupsJSON []byte
}

// flowWire is one commodity's wire entry and its encoding.
type flowWire struct {
	wire CommodityWire
	frag []byte
}

func newEncoder(comms []netsim.Commodity) *encoder {
	e := &encoder{comms: make(map[int]netsim.Commodity, len(comms)), flows: make(map[int]*flowWire, len(comms))}
	for _, c := range comms {
		e.comms[c.Flow] = c
	}
	return e
}

// setBackups replaces the backups every later snapshot carries.
func (e *encoder) setBackups(backups []BackupWire) error {
	enc, err := json.Marshal(backups)
	if err != nil {
		return fmt.Errorf("ctlplane: encoding backups: %w", err)
	}
	e.backups, e.backupsJSON = backups, enc
	return nil
}

// stage returns the wire entries of splits, sorted by flow. A flow whose
// split set is the one its kept entry was built from (the same paths, the
// same fraction bits) reuses that entry. Every other flow, a new or
// unknown one included, must pass check before it is encoded. Nothing is
// kept until snapshot publishes the entries.
func (e *encoder) stage(splits map[int][]netsim.SplitPath, check func(flow int, sps []netsim.SplitPath) error) ([]*flowWire, error) {
	flows := make([]int, 0, len(splits))
	for flow := range splits {
		flows = append(flows, flow)
	}
	sort.Ints(flows)
	out := make([]*flowWire, len(flows))
	for i, flow := range flows {
		sps := splits[flow]
		if fw, ok := e.flows[flow]; ok && fw.carries(sps) {
			out[i] = fw
			continue
		}
		if err := check(flow, sps); err != nil {
			return nil, err
		}
		c, ok := e.comms[flow]
		if !ok {
			return nil, fmt.Errorf("ctlplane: snapshot split for unknown commodity %d", flow)
		}
		cw := CommodityWire{Flow: flow, Src: c.Src, Dst: c.Dst, DemandBps: float64(c.Demand)}
		for _, sp := range sps {
			cw.Splits = append(cw.Splits, SplitWire{Path: sp.Path, Frac: sp.Frac})
		}
		frag, err := json.Marshal(cw)
		if err != nil {
			return nil, fmt.Errorf("ctlplane: encoding snapshot: %w", err)
		}
		out[i] = &flowWire{wire: cw, frag: frag}
	}
	return out, nil
}

// carries reports whether the entry was built from exactly sps.
func (fw *flowWire) carries(sps []netsim.SplitPath) bool {
	if len(fw.wire.Splits) != len(sps) {
		return false
	}
	for i, sp := range sps {
		w := fw.wire.Splits[i]
		if math.Float64bits(w.Frac) != math.Float64bits(sp.Frac) || !slices.Equal(w.Path, sp.Path) {
			return false
		}
	}
	return true
}

// snapshot assembles a snapshot over staged entries and keeps them as the
// last published. Its bytes are the header's encoding, the entries'
// fragments and the backups' encoding, joined as json.Marshal would join
// them: down-set sorted ascending, null for an empty commodity list.
func (e *encoder) snapshot(version, epoch uint64, kind string, unixSec int64, method string,
	mlu float64, down []bool, entries []*flowWire) (*Snapshot, error) {

	s := &Snapshot{
		Version:  version,
		Epoch:    epoch,
		Kind:     kind,
		TimeUnix: unixSec,
		Method:   method,
		MLU:      mlu,
		Backups:  e.backups,
	}
	for li, d := range down {
		if d {
			s.DownLinks = append(s.DownLinks, li)
		}
	}
	hdr, err := json.Marshal(snapshotHeader{s.Version, s.Epoch, s.Kind, s.TimeUnix, s.Method, s.MLU, s.DownLinks})
	if err != nil {
		return nil, fmt.Errorf("ctlplane: encoding snapshot: %w", err)
	}
	size := len(hdr) + len(`,"commodities":null,"backups":}`) + len(e.backupsJSON) + 1
	for _, fw := range entries {
		size += len(fw.frag) + 1
	}
	buf := make([]byte, 0, size)
	buf = append(buf, hdr[:len(hdr)-1]...) // reopen the header's object
	buf = append(buf, `,"commodities":`...)
	if len(entries) == 0 {
		buf = append(buf, "null"...)
	} else {
		s.Commodities = make([]CommodityWire, len(entries))
		buf = append(buf, '[')
		for i, fw := range entries {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, fw.frag...)
			s.Commodities[i] = fw.wire
			e.flows[fw.wire.Flow] = fw
		}
		buf = append(buf, ']')
	}
	buf = append(buf, `,"backups":`...)
	buf = append(buf, e.backupsJSON...)
	s.encoded = append(buf, "}\n"...)
	return s, nil
}

// Splits reconstructs the snapshot's split map in netsim form — the
// installable image for Scenario.Splits. The returned map is fresh; paths
// are shared with the snapshot and must be treated as read-only.
func (s *Snapshot) Splits() map[int][]netsim.SplitPath {
	out := make(map[int][]netsim.SplitPath, len(s.Commodities))
	for _, cw := range s.Commodities {
		sps := make([]netsim.SplitPath, len(cw.Splits))
		for i, sw := range cw.Splits {
			sps[i] = netsim.SplitPath{Path: sw.Path, Frac: sw.Frac}
		}
		out[cw.Flow] = sps
	}
	return out
}

// Install validates the snapshot against a scenario's topology and
// commodity list and installs its splits — the bridge from a live
// control-plane snapshot to a netsim replay. The scenario's Nodes, Links,
// and Comms must already be set.
func (s *Snapshot) Install(sc *netsim.Scenario) error {
	splits := s.Splits()
	if err := netsim.ValidateSplits(sc.Nodes, sc.Links, sc.Comms, splits); err != nil {
		return fmt.Errorf("ctlplane: snapshot v%d does not fit scenario: %w", s.Version, err)
	}
	sc.Splits = splits
	return nil
}
