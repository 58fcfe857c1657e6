// Package ctltest is the in-process integration harness for the control
// plane: it boots a real ctlplane.Daemon with its full HTTP surface on a
// loopback listener, drives it with a virtual clock and deterministic
// event schedules, records the exact snapshot sequence the daemon
// publishes, and asserts the sequence invariants the design promises —
// versions strictly increasing, splits summing to one, backups running
// over the backbone, zero LP solves on the fast-reroute path, and
// byte-identical sequences for the same seed at any worker-pool width. Tests across the repo use it as the one
// honest way to exercise the daemon: nothing is mocked below the HTTP
// client.
package ctltest

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cisp/internal/cities"
	"cisp/internal/ctlplane"
	"cisp/internal/geo"
	"cisp/internal/netsim"
	"cisp/internal/obs"
	"cisp/internal/te"
)

// Backbone returns the harness's standard substrate: four population
// centers and one data center, a microwave backbone with route diversity,
// and parallel fiber conduits through midpoint transit nodes at the
// paper's ~1.5× stretch (ctlplane.PairBackbone) — the same shape the
// workload pipeline tests use.
func Backbone() *ctlplane.Backbone {
	sites := []cities.City{
		{Name: "A", Loc: geo.Point{Lat: 40, Lon: -75}, Population: 8_000_000},
		{Name: "B", Loc: geo.Point{Lat: 41, Lon: -85}, Population: 4_000_000},
		{Name: "C", Loc: geo.Point{Lat: 39, Lon: -95}, Population: 2_000_000},
		{Name: "D", Loc: geo.Point{Lat: 40, Lon: -105}, Population: 1_000_000},
		{Name: "DC", Loc: geo.Point{Lat: 38, Lon: -90}, Population: 500_000},
	}
	return ctlplane.PairBackbone(sites, [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 4}, {2, 4}}, 10, 40)
}

// Commodities returns the standard gravity-model demand over Backbone's
// sites, totaling 20 Gbps — enough load that reoptimizations move splits.
func Commodities() []netsim.Commodity {
	return ctlplane.GravityCommodities(Backbone().Sites, 20)
}

// Options tunes a harness boot. The zero value boots the standard
// backbone and commodities; the daemon always boots under default
// TE/protection tuning.
type Options struct {
	Backbone *ctlplane.Backbone
	Comms    []netsim.Commodity
}

// Harness is one booted daemon plus everything a test needs to drive and
// observe it: the virtual clock, the metrics sink, the HTTP base URL, and
// the recorded publication sequence.
type Harness struct {
	T     testing.TB
	D     *ctlplane.Daemon
	Clock *obs.ManualClock
	Sink  *obs.Sink
	URL   string // http://127.0.0.1:<port>, no trailing slash

	client *http.Client
	rules  *netsim.SplitRules // the backbone and commodities, for checking backups

	mu     sync.Mutex
	seq    []*ctlplane.Snapshot
	solves []int64 // te.LPSolves() as each snapshot in seq published
}

// Start boots a daemon with its HTTP surface on a loopback listener and a
// virtual clock at the Unix epoch, installs a fresh metrics sink as the
// process sink for the test's duration, and registers cleanup that drains
// the server. Every published snapshot — including the initial one — is
// recorded in publication order, with the process-wide LP solve count at
// its publication.
func Start(t testing.TB, opts Options) *Harness {
	t.Helper()
	if opts.Backbone == nil {
		opts.Backbone = Backbone()
	}
	if opts.Comms == nil {
		opts.Comms = ctlplane.GravityCommodities(opts.Backbone.Sites, 20)
	}
	rules, err := netsim.NewSplitRules(opts.Backbone.Nodes, opts.Backbone.Links(), opts.Comms)
	if err != nil {
		t.Fatalf("ctltest: split rules over the backbone: %v", err)
	}
	h := &Harness{
		T:      t,
		Clock:  obs.NewManualClock(time.Unix(0, 0)),
		client: &http.Client{Timeout: 30 * time.Second},
		rules:  rules,
	}
	h.Sink = &obs.Sink{Reg: obs.NewRegistry(), Clock: h.Clock.Clock()}
	prev := obs.SetActive(h.Sink)
	t.Cleanup(func() { obs.SetActive(prev) })

	d, err := ctlplane.New(ctlplane.Config{
		Backbone: opts.Backbone,
		Comms:    opts.Comms,
		Clock:    h.Clock.Clock(),
		OnPublish: func(s *ctlplane.Snapshot) {
			h.mu.Lock()
			h.seq = append(h.seq, s)
			h.solves = append(h.solves, te.LPSolves())
			h.mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("ctltest: booting daemon: %v", err)
	}
	h.D = d
	srv, err := d.Serve("127.0.0.1:0", h.Sink)
	if err != nil {
		d.Close()
		t.Fatalf("ctltest: starting server: %v", err)
	}
	h.URL = "http://" + srv.Addr()
	t.Cleanup(func() { srv.Close() })
	return h
}

// Sequence returns a copy of the publication sequence so far, in version
// order (OnPublish runs synchronously on the event loop).
func (h *Harness) Sequence() []*ctlplane.Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*ctlplane.Snapshot(nil), h.seq...)
}

// SequenceSolves returns te.LPSolves() as read when each snapshot of
// Sequence published, aligned with it.
func (h *Harness) SequenceSolves() []int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int64(nil), h.solves...)
}

// SequenceBytes returns the canonical JSON encodings of the publication
// sequence — the byte-exact record determinism pins compare.
func (h *Harness) SequenceBytes() [][]byte {
	seq := h.Sequence()
	out := make([][]byte, len(seq))
	for i, s := range seq {
		out[i] = s.JSON()
	}
	return out
}

// Inject POSTs an event batch over HTTP and fails the test unless the
// daemon accepts it. It returns the decoded injection reply version.
func (h *Harness) Inject(events ...ctlplane.Event) uint64 {
	h.T.Helper()
	body, err := json.Marshal(map[string][]ctlplane.Event{"events": events})
	if err != nil {
		h.T.Fatalf("ctltest: encoding events: %v", err)
	}
	status, reply := h.post("/v1/events", string(body))
	if status != http.StatusOK {
		h.T.Fatalf("ctltest: inject: status %d: %s", status, reply)
	}
	var r struct {
		Applied int    `json:"applied"`
		Version uint64 `json:"version"`
		Epoch   uint64 `json:"epoch"`
	}
	if err := json.Unmarshal([]byte(reply), &r); err != nil {
		h.T.Fatalf("ctltest: decoding inject reply %q: %v", reply, err)
	}
	return r.Version
}

// InjectRaw POSTs an arbitrary body to the injection endpoint and returns
// the status code and response body — the negative-path probe.
func (h *Harness) InjectRaw(body string) (int, string) {
	h.T.Helper()
	return h.post("/v1/events", body)
}

func (h *Harness) post(path, body string) (int, string) {
	h.T.Helper()
	resp, err := h.client.Post(h.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		h.T.Fatalf("ctltest: POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		h.T.Fatalf("ctltest: reading %s reply: %v", path, err)
	}
	return resp.StatusCode, string(b)
}

// Get fetches a daemon URL path and returns status and body.
func (h *Harness) Get(path string) (int, string) {
	h.T.Helper()
	resp, err := h.client.Get(h.URL + path)
	if err != nil {
		h.T.Fatalf("ctltest: GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		h.T.Fatalf("ctltest: reading %s reply: %v", path, err)
	}
	return resp.StatusCode, string(b)
}

// GetSnapshot fetches and decodes /v1/snapshot, returning the decoded
// snapshot and the raw bytes served.
func (h *Harness) GetSnapshot() (*ctlplane.Snapshot, []byte) {
	h.T.Helper()
	status, body := h.Get("/v1/snapshot")
	if status != http.StatusOK {
		h.T.Fatalf("ctltest: /v1/snapshot: status %d: %s", status, body)
	}
	var s ctlplane.Snapshot
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		h.T.Fatalf("ctltest: decoding snapshot: %v", err)
	}
	return &s, []byte(body)
}

// Metrics fetches the Prometheus rendering of the harness sink.
func (h *Harness) Metrics() string {
	h.T.Helper()
	status, body := h.Get("/metrics")
	if status != http.StatusOK {
		h.T.Fatalf("ctltest: /metrics: status %d", status)
	}
	return body
}

// FRRLPSolves returns the cisp_ctlplane_frr_lp_solves gauge — the
// cumulative LP-solve count observed across fast-reroute publications,
// which the design requires to stay exactly zero.
func (h *Harness) FRRLPSolves() float64 {
	return h.Sink.Reg.Gauge("cisp_ctlplane_frr_lp_solves").Value()
}

// AssertInvariants checks the publication sequence against the contract
// every snapshot stream must satisfy, regardless of the event schedule:
// versions strictly increase by one from 1, epochs are monotone, every
// commodity's split fractions sum to one within netsim.SplitSumTol, every
// backup is sound (checkBackups), every snapshot's JSON is json.Marshal of
// the snapshot plus a newline (the oracle for the daemon's per-flow
// encoding), and no LP solve ever ran on a fast-reroute publication.
func (h *Harness) AssertInvariants() {
	h.T.Helper()
	seq := h.Sequence()
	if len(seq) == 0 {
		h.T.Fatalf("ctltest: no snapshots published")
	}
	for i, s := range seq {
		if want := uint64(i + 1); s.Version != want {
			h.T.Fatalf("ctltest: snapshot %d has version %d, want %d (versions must increase by 1)", i, s.Version, want)
		}
		if i > 0 && s.Epoch < seq[i-1].Epoch {
			h.T.Fatalf("ctltest: epoch regressed %d -> %d at version %d", seq[i-1].Epoch, s.Epoch, s.Version)
		}
		want, err := json.Marshal(s)
		if err != nil {
			h.T.Fatalf("ctltest: marshaling snapshot v%d: %v", s.Version, err)
		}
		if string(s.JSON()) != string(want)+"\n" {
			h.T.Fatalf("ctltest: snapshot v%d encoding differs from json.Marshal:\n  got:  %s  want: %s", s.Version, s.JSON(), want)
		}
		for _, cw := range s.Commodities {
			sum := 0.0
			for _, sp := range cw.Splits {
				if sp.Frac <= 0 || math.IsNaN(sp.Frac) || math.IsInf(sp.Frac, 0) {
					h.T.Fatalf("ctltest: snapshot v%d flow %d has bad fraction %v", s.Version, cw.Flow, sp.Frac)
				}
				sum += sp.Frac
			}
			if math.Abs(sum-1) > netsim.SplitSumTol {
				h.T.Fatalf("ctltest: snapshot v%d flow %d splits sum to %v, want 1±%v", s.Version, cw.Flow, sum, netsim.SplitSumTol)
			}
		}
		if err := checkBackups(s, h.rules); err != nil {
			h.T.Fatalf("ctltest: snapshot v%d: %v", s.Version, err)
		}
		if math.IsNaN(s.MLU) || math.IsInf(s.MLU, 0) || s.MLU < 0 {
			h.T.Fatalf("ctltest: snapshot v%d has bad MLU %v", s.Version, s.MLU)
		}
	}
	if n := h.FRRLPSolves(); n != 0 {
		h.T.Fatalf("ctltest: %v LP solves observed on the fast-reroute path, want 0", n)
	}
}

// checkBackups returns an error unless the snapshot's backups list flows
// in strictly ascending order, each flow one of the snapshot's
// commodities, and each path runs that commodity's Src to its Dst over
// the backbone's links, as rules check a one-path split.
func checkBackups(s *ctlplane.Snapshot, rules *netsim.SplitRules) error {
	for i, bk := range s.Backups {
		if i > 0 && bk.Flow <= s.Backups[i-1].Flow {
			return fmt.Errorf("backup flows %d then %d, want strictly ascending", s.Backups[i-1].Flow, bk.Flow)
		}
		if _, ok := slices.BinarySearchFunc(s.Commodities, bk.Flow, func(c ctlplane.CommodityWire, flow int) int { return c.Flow - flow }); !ok {
			return fmt.Errorf("backup for flow %d, which is not a commodity", bk.Flow)
		}
		if err := rules.Check(bk.Flow, []netsim.SplitPath{{Path: bk.Path, Frac: 1}}); err != nil {
			return fmt.Errorf("backup: %w", err)
		}
	}
	return nil
}

// Diff returns a description of the first difference between two recorded
// byte sequences, or "" when identical — the determinism pin's comparator.
func Diff(a, b [][]byte) string {
	if len(a) != len(b) {
		return fmt.Sprintf("sequence lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if string(a[i]) != string(b[i]) {
			return fmt.Sprintf("snapshot %d differs:\n  a: %s\n  b: %s", i, a[i], b[i])
		}
	}
	return ""
}
