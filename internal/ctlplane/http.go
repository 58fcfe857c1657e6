package ctlplane

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"

	"cisp/internal/obs"
	"cisp/internal/te"
)

// NewMux returns the daemon's HTTP API:
//
//	GET  /v1/snapshot          current forwarding snapshot (canonical JSON)
//	GET  /v1/snapshot/version  {"version":V,"epoch":E} — cheap poll target
//	POST /v1/events            inject an event batch; replies with the
//	                           version current after the batch applied
//	POST /v1/reload            rebuild the control plane under new tuning
//	GET  /readyz               200 once serving snapshots, 503 while draining
//
// plus everything obs.NewMux serves for the sink (/metrics, /metrics.json,
// /trace, /healthz, /debug/pprof). Snapshot reads are lock-free pointer
// loads of pre-encoded bytes; injections serialize through the event loop.
func (d *Daemon) NewMux(s *obs.Sink) *http.ServeMux {
	mux := obs.NewMux(s)
	mux.HandleFunc("GET /v1/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		snap := d.Snapshot()
		if snap == nil {
			http.Error(w, "no snapshot published", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Etag", fmt.Sprintf("\"%d-%d\"", snap.Epoch, snap.Version))
		w.Write(snap.JSON())
	})
	mux.HandleFunc("GET /v1/snapshot/version", func(w http.ResponseWriter, _ *http.Request) {
		snap := d.Snapshot()
		if snap == nil {
			http.Error(w, "no snapshot published", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"version\":%d,\"epoch\":%d}\n", snap.Version, snap.Epoch)
	})
	mux.HandleFunc("POST /v1/events", func(w http.ResponseWriter, r *http.Request) {
		body := http.MaxBytesReader(w, r.Body, MaxEventBody)
		events, err := DecodeEvents(body, d.nMw, len(d.clear))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		snap, err := d.Apply(events)
		if err != nil {
			if d.Draining() {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"applied\":%d,\"version\":%d,\"epoch\":%d}\n", len(events), snap.Version, snap.Epoch)
	})
	mux.HandleFunc("POST /v1/reload", func(w http.ResponseWriter, r *http.Request) {
		var spec struct {
			TE te.Config `json:"te"`
		}
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxEventBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil && err != io.EOF {
			http.Error(w, fmt.Sprintf("ctlplane: decoding reload spec: %v", err), http.StatusBadRequest)
			return
		}
		if err := checkReload(spec.TE); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		snap, err := d.Reload(spec.TE)
		if err != nil {
			if d.Draining() {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"version\":%d,\"epoch\":%d}\n", snap.Version, snap.Epoch)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if d.Draining() || d.Snapshot() == nil {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ready\n")
	})
	return mux
}

// Server is a running daemon HTTP endpoint.
type Server struct {
	d   *Daemon
	ln  net.Listener
	srv *http.Server
}

// Serve starts the daemon's API on addr (":0" picks a free port) in a
// background goroutine and returns immediately.
func (d *Daemon) Serve(addr string, s *obs.Sink) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: d.NewMux(s)}
	go srv.Serve(ln)
	return &Server{d: d, ln: ln, srv: srv}, nil
}

// Addr returns the listener's address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown drains gracefully: readiness drops and new injections are
// refused first, in-flight requests finish (bounded by ctx), then the
// event loop exits. The daemon is closed afterwards either way.
func (s *Server) Shutdown(ctx context.Context) error {
	s.d.drain.Store(true) // readyz goes 503 before the listener closes
	err := s.srv.Shutdown(ctx)
	s.d.Close()
	return err
}

// Close stops the server immediately and closes the daemon.
func (s *Server) Close() error {
	err := s.srv.Close()
	s.d.Close()
	return err
}
