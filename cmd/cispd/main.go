// Command cispd runs the cISP control-plane daemon: it owns a hybrid
// microwave/fiber backbone for its lifetime, ingests weather-grading and
// hard-failure events — a seeded replay stream, the HTTP injection
// endpoint, or both — drives warm TE reoptimization and fast-reroute
// activation, and serves versioned forwarding snapshots over HTTP/JSON.
//
//	cispd -addr :8080 -sites 12
//	curl -s localhost:8080/v1/snapshot | jq .version
//	curl -s -XPOST localhost:8080/v1/events \
//	     -d '{"events":[{"type":"fade","link":0,"capfrac":0.5}]}'
//	curl -s localhost:8080/metrics | grep cisp_ctlplane
//
// SIGHUP rebuilds the control plane in place (epoch bump, serving never
// pauses); SIGINT/SIGTERM drain gracefully: readiness drops, in-flight
// requests finish, then the event loop exits. See DESIGN.md §13.
package main

import (
	"context"
	"flag"
	"log"
	"math"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"cisp/internal/cities"
	"cisp/internal/ctlplane"
	"cisp/internal/obs"
	"cisp/internal/te"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address for snapshots, event injection, /metrics, /healthz, /readyz")
	sites := flag.Int("sites", 12, "population centers (largest first from the paper's coalesced US set)")
	nearestK := flag.Int("k", 2, "microwave links per site to its nearest neighbors")
	mwGbps := flag.Float64("mw-gbps", 10, "clear-sky microwave link capacity")
	fiberGbps := flag.Float64("fiber-gbps", 40, "fiber conduit capacity")
	aggGbps := flag.Float64("agg-gbps", 50, "aggregate offered demand across the gravity-model commodities")
	seed := flag.Int64("seed", 1, "seed for the replay stream's weather and failure draws")
	replay := flag.Int("replay", 0, "inject up to this many events from the seeded stream (0 = serve injections only)")
	streamHours := flag.Float64("stream-hours", 24, "modeled horizon of the replay stream")
	pace := flag.Float64("pace", 0, "replay pacing: modeled seconds per wall second (0 = inject as fast as the control plane accepts)")
	flag.Parse()
	if h := *streamHours; math.IsNaN(h) || math.IsInf(h, 0) || h < 0 {
		log.Fatalf("cispd: -stream-hours %v is not a finite number of hours ≥ 0", h)
	}

	cs := cities.USCenters()
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].Population > cs[j].Population })
	if *sites < 2 || *sites > len(cs) {
		log.Fatalf("cispd: -sites %d outside [2,%d]", *sites, len(cs))
	}
	backbone := ctlplane.SyntheticBackbone(cs[:*sites], *nearestK, *mwGbps, *fiberGbps)
	comms := ctlplane.GravityCommodities(backbone.Sites, *aggGbps)

	sink := &obs.Sink{Reg: obs.NewRegistry(), Clock: obs.WallClock}
	obs.SetActive(sink)

	d, err := ctlplane.New(ctlplane.Config{
		Backbone: backbone,
		Comms:    comms,
		Clock:    obs.WallClock,
		OnPublish: func(s *ctlplane.Snapshot) {
			log.Printf("cispd: published v%d e%d %s mlu=%.3f down=%v", s.Version, s.Epoch, s.Kind, s.MLU, s.DownLinks)
		},
	})
	if err != nil {
		log.Fatalf("cispd: %v", err)
	}
	srv, err := d.Serve(*addr, sink)
	if err != nil {
		log.Fatalf("cispd: %v", err)
	}
	log.Printf("cispd: serving %d sites, %d links (%d microwave), %d commodities on http://%s",
		len(backbone.Sites), d.NumLinks(), d.NumMw(), len(comms), srv.Addr())

	if *replay > 0 {
		go replayStream(d, backbone, ctlplane.StreamConfig{Seed: *seed, Horizon: *streamHours * 3600}, *replay, *pace)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	for sig := range sigs {
		if sig == syscall.SIGHUP {
			if snap, err := d.Reload(te.Config{}); err != nil {
				log.Printf("cispd: reload failed: %v", err)
			} else {
				log.Printf("cispd: reloaded, epoch %d", snap.Epoch)
			}
			continue
		}
		log.Printf("cispd: %v received, draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			log.Printf("cispd: drain: %v", err)
			os.Exit(1)
		}
		log.Printf("cispd: drained cleanly at version %d", d.Snapshot().Version)
		return
	}
}

// replayStream feeds the seeded event timeline into the daemon, paced by
// modeled time when pace > 0. Injection errors during drain are expected
// and end the replay quietly.
func replayStream(d *ctlplane.Daemon, b *ctlplane.Backbone, cfg ctlplane.StreamConfig, limit int, pace float64) {
	evs := ctlplane.DrawStream(b, cfg)
	if len(evs) > limit {
		evs = evs[:limit]
	}
	log.Printf("cispd: replaying %d events over %.1f modeled hours", len(evs), cfg.Horizon/3600)
	prev := 0.0
	for _, tev := range evs {
		if pace > 0 {
			time.Sleep(time.Duration((tev.At - prev) / pace * float64(time.Second)))
			prev = tev.At
		}
		if _, err := d.Apply([]ctlplane.Event{tev.Ev}); err != nil {
			if d.Draining() {
				return
			}
			log.Printf("cispd: replay inject: %v", err)
			return
		}
	}
	log.Printf("cispd: replay complete at version %d", d.Snapshot().Version)
}
