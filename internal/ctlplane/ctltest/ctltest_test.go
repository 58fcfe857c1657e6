package ctltest

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cisp/internal/ctlplane"
	"cisp/internal/netsim"
	"cisp/internal/parallel"
	"cisp/internal/te"
	"cisp/internal/units"
)

func TestBootServesInitialSnapshot(t *testing.T) {
	h := Start(t, Options{})
	snap, raw := h.GetSnapshot()
	if snap.Version != 1 || snap.Epoch != 1 || snap.Kind != ctlplane.KindInitial {
		t.Fatalf("initial snapshot = v%d e%d kind %q, want v1 e1 initial", snap.Version, snap.Epoch, snap.Kind)
	}
	if len(snap.Commodities) == 0 || len(snap.Backups) == 0 {
		t.Fatalf("initial snapshot missing commodities (%d) or backups (%d)", len(snap.Commodities), len(snap.Backups))
	}
	if len(snap.DownLinks) != 0 {
		t.Fatalf("clear-sky snapshot reports down links %v", snap.DownLinks)
	}
	// The served bytes are the canonical encoding, newline-terminated.
	if raw[len(raw)-1] != '\n' {
		t.Fatalf("served snapshot not newline-terminated")
	}
	if status, body := h.Get("/v1/snapshot/version"); status != http.StatusOK ||
		!strings.Contains(body, `"version":1`) || !strings.Contains(body, `"epoch":1`) {
		t.Fatalf("/v1/snapshot/version = %d %q", status, body)
	}
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		if status, _ := h.Get(path); status != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, status)
		}
	}
	h.AssertInvariants()
}

func TestFadeDrivesReopt(t *testing.T) {
	h := Start(t, Options{})
	v := h.Inject(ctlplane.Event{Type: ctlplane.EventFade, Link: 0, CapFrac: 0.25})
	if v != 2 {
		t.Fatalf("fade advanced to version %d, want 2", v)
	}
	snap, _ := h.GetSnapshot()
	if snap.Kind != ctlplane.KindReopt {
		t.Fatalf("post-fade snapshot kind %q, want reopt", snap.Kind)
	}
	// Clearing the fade publishes again; state is not sticky.
	if v := h.Inject(ctlplane.Event{Type: ctlplane.EventFade, Link: 0, CapFrac: 1}); v != 3 {
		t.Fatalf("clear fade advanced to version %d, want 3", v)
	}
	h.AssertInvariants()
}

func TestFailurePublishesFRRThenReopt(t *testing.T) {
	h := Start(t, Options{})
	v := h.Inject(ctlplane.Event{Type: ctlplane.EventFail, Link: 0})
	if v != 3 {
		t.Fatalf("failure advanced to version %d, want 3 (frr then reopt)", v)
	}
	seq := h.Sequence()
	kinds := []string{seq[0].Kind, seq[1].Kind, seq[2].Kind}
	want := []string{ctlplane.KindInitial, ctlplane.KindFRR, ctlplane.KindReopt}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("publication kinds %v, want %v", kinds, want)
		}
	}
	bb := Backbone()
	a, b := bb.Mw[0].A, bb.Mw[0].B
	crosses := func(path []int) bool {
		for i := 0; i+1 < len(path); i++ {
			u, v := path[i], path[i+1]
			if (u == a && v == b) || (u == b && v == a) {
				return true
			}
		}
		return false
	}
	for _, s := range seq[1:] {
		if len(s.DownLinks) != 1 || s.DownLinks[0] != 0 {
			t.Fatalf("snapshot v%d down links %v, want [0]", s.Version, s.DownLinks)
		}
		// Every protected flow whose backup avoids the dead link must have
		// been steered off it; only unprotected fractions may stall there.
		protected := map[int]bool{}
		for _, bw := range s.Backups {
			if !crosses(bw.Path) {
				protected[bw.Flow] = true
			}
		}
		if len(protected) == 0 {
			t.Fatalf("snapshot v%d protects no flows off link %d-%d", s.Version, a, b)
		}
		for _, cw := range s.Commodities {
			if !protected[cw.Flow] {
				continue
			}
			for _, sp := range cw.Splits {
				if crosses(sp.Path) {
					t.Fatalf("snapshot v%d protected flow %d still routes over failed link %d-%d", s.Version, cw.Flow, a, b)
				}
			}
		}
	}
	if v := h.Inject(ctlplane.Event{Type: ctlplane.EventRepair, Link: 0}); v != 5 {
		t.Fatalf("repair advanced to version %d, want 5", v)
	}
	h.AssertInvariants()
}

// TestFRRZeroLPSolves pins the design's core latency claim: activating or
// deactivating fast reroute never runs the LP solver — the patch is pure
// table lookups — across an episode of failures and repairs, neither on
// the daemon's controller nor anywhere else in the process. Each event's
// reoptimization runs after its frr snapshot publishes, so every frr
// snapshot reads the process-wide solve count of the snapshot before it.
func TestFRRZeroLPSolves(t *testing.T) {
	h := Start(t, Options{})
	for _, ev := range []ctlplane.Event{
		{Type: ctlplane.EventFail, Link: 1},
		{Type: ctlplane.EventFail, Link: 3},
		{Type: ctlplane.EventRepair, Link: 1},
		{Type: ctlplane.EventRepair, Link: 3},
	} {
		h.Inject(ev)
	}
	if n := h.FRRLPSolves(); n != 0 {
		t.Fatalf("FRR path ran %v LP solves, want 0", n)
	}
	seq, solves := h.Sequence(), h.SequenceSolves()
	if len(seq) != 9 {
		t.Fatalf("%d publications, want 9 (initial + 4 × frr, reopt)", len(seq))
	}
	for i, s := range seq[1:] {
		want := ctlplane.KindFRR
		if i%2 == 1 {
			want = ctlplane.KindReopt
		}
		if s.Kind != want {
			t.Fatalf("snapshot v%d kind %q, want %q", s.Version, s.Kind, want)
		}
		if s.Kind == ctlplane.KindFRR && solves[i+1] != solves[i] {
			t.Fatalf("frr snapshot v%d ran %d LP solves process-wide, want 0", s.Version, solves[i+1]-solves[i])
		}
	}
	h.AssertInvariants()
}

// TestFailFadeRepairComposition drives the same microwave link through
// fade, hard failure, and repair: the repaired link must come back at its
// graded rate (fade persists through the outage), and only clearing the
// fade restores the clear-sky MLU.
func TestFailFadeRepairComposition(t *testing.T) {
	h := Start(t, Options{})
	clearMLU := h.Sequence()[0].MLU

	h.Inject(ctlplane.Event{Type: ctlplane.EventFade, Link: 0, CapFrac: 0.5})
	fadedMLU, _ := h.GetSnapshot()
	h.Inject(ctlplane.Event{Type: ctlplane.EventFail, Link: 0})
	h.Inject(ctlplane.Event{Type: ctlplane.EventRepair, Link: 0})
	repaired, _ := h.GetSnapshot()
	if math.Abs(repaired.MLU-fadedMLU.MLU) > 1e-9 {
		t.Fatalf("post-repair MLU %v differs from faded MLU %v: fade state lost across the outage", repaired.MLU, fadedMLU.MLU)
	}
	h.Inject(ctlplane.Event{Type: ctlplane.EventFade, Link: 0, CapFrac: 1})
	final, _ := h.GetSnapshot()
	if math.Abs(final.MLU-clearMLU) > 1e-9 {
		t.Fatalf("clear-sky MLU %v after the episode, want %v", final.MLU, clearMLU)
	}
	h.AssertInvariants()
}

func TestReloadBumpsEpoch(t *testing.T) {
	h := Start(t, Options{})
	status, body := h.post("/v1/reload", `{"te":{"K":6}}`)
	if status != http.StatusOK {
		t.Fatalf("/v1/reload = %d: %s", status, body)
	}
	snap, _ := h.GetSnapshot()
	if snap.Epoch != 2 || snap.Kind != ctlplane.KindReload {
		t.Fatalf("post-reload snapshot = e%d kind %q, want e2 reload", snap.Epoch, snap.Kind)
	}
	// Reload with unknown tuning fields is refused: protection tuning and
	// the TE sizing knobs are constants, not reload keys.
	for _, body := range []string{
		`{"bogus":1}`,
		`{"prot":{}}`,
		`{"te":{"K":6},"prot":{"K":8}}`,
		`{"te":{"LPVarLimit":1500}}`,
	} {
		if status, _ := h.post("/v1/reload", body); status != http.StatusBadRequest {
			t.Fatalf("reload spec %s = %d, want 400", body, status)
		}
	}
	if snap, _ := h.GetSnapshot(); snap.Epoch != 2 {
		t.Fatalf("refused reloads moved the epoch to %d", snap.Epoch)
	}
	h.AssertInvariants()
}

// TestReloadRejectsOutOfRangeTuning: a K outside [0, 16] or a nonzero
// Stretch outside [1, 3] is refused before anything rebuilds — 400 over
// HTTP naming the field, the same error from Daemon.Reload — while the
// bounds themselves reload. A NaN UtilFloor, which te refuses, fails the
// rebuild and leaves the epoch put.
func TestReloadRejectsOutOfRangeTuning(t *testing.T) {
	h := Start(t, Options{})
	for _, tc := range []struct {
		body, field string
		cfg         te.Config
	}{
		{`{"te":{"K":64,"Stretch":3}}`, "te.K", te.Config{K: 64, Stretch: 3}},
		{`{"te":{"K":17}}`, "te.K", te.Config{K: 17}},
		{`{"te":{"K":-1}}`, "te.K", te.Config{K: -1}},
		{`{"te":{"Stretch":0.5}}`, "te.Stretch", te.Config{Stretch: 0.5}},
		{`{"te":{"Stretch":-1}}`, "te.Stretch", te.Config{Stretch: -1}},
		{`{"te":{"K":4,"Stretch":3.5}}`, "te.Stretch", te.Config{K: 4, Stretch: 3.5}},
	} {
		status, body := h.post("/v1/reload", tc.body)
		if status != http.StatusBadRequest || !strings.Contains(body, tc.field) {
			t.Errorf("reload %s = %d %q, want 400 naming %s", tc.body, status, body, tc.field)
		}
		if _, err := h.D.Reload(tc.cfg); err == nil || err.Error() != strings.TrimSpace(body) {
			t.Errorf("Daemon.Reload(%+v) = %v, want the HTTP error %q", tc.cfg, err, body)
		}
	}
	if _, err := h.D.Reload(te.Config{Stretch: math.NaN()}); err == nil || !strings.Contains(err.Error(), "te.Stretch") {
		t.Errorf("Daemon.Reload with a NaN stretch = %v, want an error naming te.Stretch", err)
	}
	if _, err := h.D.Reload(te.Config{UtilFloor: units.Utilization(math.NaN())}); err == nil || !strings.Contains(err.Error(), "UtilFloor") {
		t.Errorf("Daemon.Reload with a NaN utilization floor = %v, want te's error naming UtilFloor", err)
	}
	if snap, _ := h.GetSnapshot(); snap.Epoch != 1 {
		t.Fatalf("refused reloads moved the epoch to %d", snap.Epoch)
	}
	if status, body := h.post("/v1/reload", `{"te":{"K":16,"Stretch":3}}`); status != http.StatusOK {
		t.Fatalf("reload at the upper bounds = %d: %s", status, body)
	}
	if _, err := h.D.Reload(te.Config{Stretch: 1}); err != nil {
		t.Fatalf("reload at stretch 1: %v", err)
	}
	if snap, _ := h.GetSnapshot(); snap.Epoch != 3 {
		t.Fatalf("two accepted reloads left the epoch at %d, want 3", snap.Epoch)
	}
	h.AssertInvariants()
}

// TestReloadBackupsFollowStretch: a reload rebuilds the backups from the
// new controller's candidates, within its stretch, so after a reload at
// stretch 1 no published backup is slower than its commodity's shortest
// path.
func TestReloadBackupsFollowStretch(t *testing.T) {
	h := Start(t, Options{})
	snap, err := h.D.Reload(te.Config{Stretch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 2 {
		t.Fatalf("reload published epoch %d, want 2", snap.Epoch)
	}
	b := Backbone()
	links := b.Links()
	index, err := netsim.NewLinkIndex(b.Nodes, links)
	if err != nil {
		t.Fatal(err)
	}
	search := netsim.NewDelaySearch(index, links)
	comms := map[int]netsim.Commodity{}
	for _, c := range Commodities() {
		comms[c.Flow] = c
	}
	for _, bk := range snap.Backups {
		c := comms[bk.Flow]
		_, shortest := search.Run(c.Src, c.Dst, 0, math.Inf(1))
		delay := 0.0
		for i := 0; i+1 < len(bk.Path); i++ {
			id, _ := index.Lookup(bk.Path[i], bk.Path[i+1])
			delay += float64(links[id/2].PropDelay)
		}
		if delay > shortest {
			t.Errorf("flow %d: backup %v takes %.3f ms, %.2f× its shortest path", bk.Flow, bk.Path, delay*1e3, delay/shortest)
		}
	}
	h.AssertInvariants()
}

func TestInjectRejects(t *testing.T) {
	h := Start(t, Options{})
	cases := []struct{ name, body string }{
		{"garbage", `not json`},
		{"empty batch", `{"events":[]}`},
		{"nan capfrac", `{"events":[{"type":"fade","link":0,"capfrac":NaN}]}`},
		{"overflow capfrac", `{"events":[{"type":"fade","link":0,"capfrac":1e999}]}`},
		{"unknown link", `{"events":[{"type":"fail","link":9999}]}`},
		{"fade outside mw prefix", `{"events":[{"type":"fade","link":14,"capfrac":0.5}]}`},
		{"unknown type", `{"events":[{"type":"flood","link":0}]}`},
	}
	before, _ := h.GetSnapshot()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := h.InjectRaw(tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("%q = %d (%s), want 400", tc.body, status, body)
			}
		})
	}
	after, _ := h.GetSnapshot()
	if after.Version != before.Version {
		t.Fatalf("rejected injections advanced the version %d -> %d", before.Version, after.Version)
	}
	h.AssertInvariants()
}

func TestDrainRefusesWork(t *testing.T) {
	h := Start(t, Options{})
	h.D.Close()
	if status, _ := h.Get("/readyz"); status != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain = %d, want 503", status)
	}
	if status, _ := h.InjectRaw(`{"events":[{"type":"fail","link":0}]}`); status != http.StatusServiceUnavailable {
		t.Fatalf("injection after drain = %d, want 503", status)
	}
	// Snapshots keep serving while the daemon drains.
	if status, _ := h.Get("/v1/snapshot"); status != http.StatusOK {
		t.Fatalf("/v1/snapshot after drain = %d, want 200", status)
	}
	h.D.Close() // idempotent
}

// TestCheckBackupsRefusesBadBackups: the published backups pass the
// harness's backup check, and each way a backup can go wrong (flows out of
// order, a flow that is no commodity, a path between other endpoints, a
// hop off the backbone) fails it.
func TestCheckBackupsRefusesBadBackups(t *testing.T) {
	h := Start(t, Options{})
	snap := h.Sequence()[0]
	if len(snap.Backups) < 2 {
		t.Fatalf("initial snapshot has %d backups, want at least 2", len(snap.Backups))
	}
	if err := checkBackups(snap, h.rules); err != nil {
		t.Fatalf("published backups: %v", err)
	}
	first := snap.Backups[0]
	src, dst := first.Path[0], first.Path[len(first.Path)-1]
	for _, tc := range []struct {
		name string
		edit func([]ctlplane.BackupWire) []ctlplane.BackupWire
		want string
	}{
		{"swapped", func(bs []ctlplane.BackupWire) []ctlplane.BackupWire {
			bs[0], bs[1] = bs[1], bs[0]
			return bs
		}, "strictly ascending"},
		{"repeated", func(bs []ctlplane.BackupWire) []ctlplane.BackupWire { return append(bs[:1], bs...) }, "strictly ascending"},
		{"unknown flow", func(bs []ctlplane.BackupWire) []ctlplane.BackupWire {
			return append(bs, ctlplane.BackupWire{Flow: 1 << 30, Path: first.Path})
		}, "not a commodity"},
		{"reversed", func(bs []ctlplane.BackupWire) []ctlplane.BackupWire {
			bs[0].Path = slices.Clone(first.Path)
			slices.Reverse(bs[0].Path)
			return bs
		}, "does not run"},
		{"off the backbone", func(bs []ctlplane.BackupWire) []ctlplane.BackupWire {
			bs[0].Path = []int{src, src, dst}
			return bs
		}, "is not a topology link"},
	} {
		bad := *snap
		bad.Backups = tc.edit(slices.Clone(snap.Backups))
		if err := checkBackups(&bad, h.rules); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestSnapshotInstallsIntoScenario closes the loop the ISSUE names: a
// snapshot served by the live control plane installs directly as a netsim
// scenario's split set.
func TestSnapshotInstallsIntoScenario(t *testing.T) {
	h := Start(t, Options{})
	h.Inject(ctlplane.Event{Type: ctlplane.EventFail, Link: 2})
	snap, _ := h.GetSnapshot()
	b := Backbone()
	sc := &netsim.Scenario{Nodes: b.Nodes, Links: b.Links(), Comms: Commodities()}
	if err := snap.Install(sc); err != nil {
		t.Fatalf("installing live snapshot: %v", err)
	}
	if len(sc.Splits) != len(snap.Commodities) {
		t.Fatalf("installed %d flows, want %d", len(sc.Splits), len(snap.Commodities))
	}
}

// TestConcurrentReadersUnderChurn hammers the snapshot endpoint from many
// goroutines while the event loop publishes — under -race this is the
// torn-read detector. Every read must decode to a complete snapshot with
// valid splits, and versions seen by one reader never go backwards.
func TestConcurrentReadersUnderChurn(t *testing.T) {
	h := Start(t, Options{})
	const readers = 8
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastVersion uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(h.URL + "/v1/snapshot")
				if err != nil {
					t.Errorf("reader GET: %v", err)
					return
				}
				var s ctlplane.Snapshot
				derr := json.NewDecoder(resp.Body).Decode(&s)
				resp.Body.Close()
				if derr != nil {
					t.Errorf("reader decode: %v", derr)
					return
				}
				if s.Version < lastVersion {
					t.Errorf("version went backwards: %d after %d", s.Version, lastVersion)
					return
				}
				lastVersion = s.Version
				for _, cw := range s.Commodities {
					sum := 0.0
					for _, sp := range cw.Splits {
						sum += sp.Frac
					}
					if math.Abs(sum-1) > netsim.SplitSumTol {
						t.Errorf("torn read: v%d flow %d splits sum %v", s.Version, cw.Flow, sum)
						return
					}
				}
			}
		}()
	}
	events := []ctlplane.Event{
		{Type: ctlplane.EventFade, Link: 0, CapFrac: 0.5},
		{Type: ctlplane.EventFail, Link: 1},
		{Type: ctlplane.EventFade, Link: 2, CapFrac: 0.25},
		{Type: ctlplane.EventRepair, Link: 1},
		{Type: ctlplane.EventFade, Link: 0, CapFrac: 1},
		{Type: ctlplane.EventFail, Link: 7},
		{Type: ctlplane.EventRepair, Link: 7},
		{Type: ctlplane.EventFade, Link: 2, CapFrac: 1},
	}
	for round := 0; round < 4; round++ {
		for _, ev := range events {
			h.Inject(ev)
		}
	}
	close(done)
	wg.Wait()
	h.AssertInvariants()
}

// TestDeterministicSequenceAcrossWorkers pins the acceptance criterion:
// the same event schedule yields byte-identical snapshot sequences at any
// worker-pool width.
func TestDeterministicSequenceAcrossWorkers(t *testing.T) {
	schedule := []ctlplane.Event{
		{Type: ctlplane.EventFade, Link: 0, CapFrac: 0.5},
		{Type: ctlplane.EventFail, Link: 2},
		{Type: ctlplane.EventFade, Link: 3, CapFrac: 0.75},
		{Type: ctlplane.EventRepair, Link: 2},
		{Type: ctlplane.EventFail, Link: 10},
		{Type: ctlplane.EventFade, Link: 0, CapFrac: 1},
		{Type: ctlplane.EventRepair, Link: 10},
	}
	run := func(workers int) [][]byte {
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		h := Start(t, Options{})
		for _, ev := range schedule {
			h.Inject(ev)
		}
		h.AssertInvariants()
		return h.SequenceBytes()
	}
	one := run(1)
	eight := run(8)
	if d := Diff(one, eight); d != "" {
		t.Fatalf("snapshot sequences diverge across worker counts:\n%s", d)
	}
}

// TestSnapshotSequencePinned pins the bytes of one fixed schedule's whole
// publication sequence: fades, fails and repairs on microwave and fiber
// links, and one Reload while links are degraded. The pins were recorded
// when every publish encoded the whole snapshot with json.Marshal.
// TestDeterministicSequenceAcrossWorkers compares two runs of the same
// code, so only this pin catches an encoder that is consistently wrong.
func TestSnapshotSequencePinned(t *testing.T) {
	const (
		wantSnapshots = 23
		wantHash      = 0xb6b85f0a0b06187a
	)
	h := Start(t, Options{})
	steps := [][]ctlplane.Event{
		{{Type: ctlplane.EventFade, Link: 0, CapFrac: 0.5}},
		{{Type: ctlplane.EventFail, Link: 2}},
		{{Type: ctlplane.EventFade, Link: 3, CapFrac: 0.25}, {Type: ctlplane.EventFade, Link: 1, CapFrac: 0}},
		{{Type: ctlplane.EventFail, Link: 9}},
		nil, // Reload
		{{Type: ctlplane.EventFade, Link: 4, CapFrac: 0.75}},
		{{Type: ctlplane.EventRepair, Link: 2}},
		{{Type: ctlplane.EventFade, Link: 1, CapFrac: 1}, {Type: ctlplane.EventFade, Link: 0, CapFrac: 0.25}},
		{{Type: ctlplane.EventRepair, Link: 9}},
		{{Type: ctlplane.EventFail, Link: 0}},
		{{Type: ctlplane.EventFade, Link: 0, CapFrac: 1}},
		{{Type: ctlplane.EventRepair, Link: 0}},
		{{Type: ctlplane.EventFade, Link: 3, CapFrac: 1}, {Type: ctlplane.EventFade, Link: 4, CapFrac: 1}},
	}
	for _, evs := range steps {
		h.Clock.Advance(time.Minute)
		if evs == nil {
			if _, err := h.D.Reload(te.Config{K: 6}); err != nil {
				t.Fatalf("reload: %v", err)
			}
			continue
		}
		h.Inject(evs...)
	}
	h.AssertInvariants()
	seq := h.SequenceBytes()
	sum := fnv.New64a()
	for _, b := range seq {
		sum.Write(b)
	}
	if len(seq) != wantSnapshots || sum.Sum64() != wantHash {
		t.Fatalf("sequence of %d snapshots hashes to %#x, want %d snapshots hashing to %#x", len(seq), sum.Sum64(), wantSnapshots, uint64(wantHash))
	}
}

// metricsGolden pins the control plane's exported metric families — the
// names operators build dashboards on. Histogram series render extra
// _bucket/_sum/_count suffixes; the golden tracks family names.
var metricsGolden = []string{
	"cisp_ctlplane_events_total",
	"cisp_ctlplane_frr_lp_solves",
	"cisp_ctlplane_mlu",
	"cisp_ctlplane_publish_seconds",
	"cisp_ctlplane_snapshot_epoch",
	"cisp_ctlplane_snapshot_version",
	"cisp_ctlplane_snapshots_total",
}

func TestMetricsNamesGolden(t *testing.T) {
	h := Start(t, Options{})
	h.Inject(ctlplane.Event{Type: ctlplane.EventFade, Link: 0, CapFrac: 0.5})
	h.Inject(ctlplane.Event{Type: ctlplane.EventFail, Link: 1})
	h.Inject(ctlplane.Event{Type: ctlplane.EventRepair, Link: 1})

	families := map[string]bool{}
	for _, line := range strings.Split(h.Metrics(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			name = strings.TrimSuffix(name, suf)
		}
		if strings.HasPrefix(name, "cisp_ctlplane_") {
			families[name] = true
		}
	}
	var got []string
	for name := range families {
		got = append(got, name)
	}
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(metricsGolden, "\n") {
		t.Errorf("metric families golden mismatch:\n--- got ---\n%s\n--- want ---\n%s",
			strings.Join(got, "\n"), strings.Join(metricsGolden, "\n"))
	}
}
