package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"strconv"
)

// Handler serves the observer over HTTP:
//
//	GET /metrics       Prometheus text format (version 0.0.4)
//	GET /debug/traces  last-N per-query decision traces as JSON,
//	                   newest first; ?n= limits the count
//	GET /debug/events  structured lifecycle events, newest first;
//	                   ?n= limits the count
func Handler(o *Observer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if o != nil {
			o.Reg.WritePrometheus(w)
		}
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		traces := o.Traces()
		if s := r.URL.Query().Get("n"); s != "" {
			if n, err := strconv.Atoi(s); err == nil && n >= 0 && n < len(traces) {
				traces = traces[:n]
			}
		}
		if traces == nil {
			traces = []*Trace{}
		}
		writeJSON(w, traces)
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		events := o.Events()
		if s := r.URL.Query().Get("n"); s != "" {
			if n, err := strconv.Atoi(s); err == nil && n >= 0 && n < len(events) {
				events = events[:n]
			}
		}
		if events == nil {
			events = []Event{}
		}
		writeJSON(w, events)
	})
	return mux
}

// writeJSON renders v with indentation (these are debug endpoints read
// by humans at least as often as by tools).
func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best effort over HTTP
}

// Server is a running observability endpoint.
type Server struct {
	Addr string // actual listen address (useful with ":0")
	srv  *http.Server
	ln   net.Listener
}

// Serve starts an HTTP server for the observer on addr and enables
// tracing (ring of the last 64 traces) and event capture so the /debug
// endpoints have content. It returns once the listener is bound; serving
// continues in a goroutine.
func Serve(addr string, o *Observer) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	o.EnableTracing(64)
	o.EnableEvents(256)
	s := &Server{Addr: ln.Addr().String(), ln: ln}
	s.srv = &http.Server{Handler: Handler(o)}
	go s.srv.Serve(ln) //nolint:errcheck // closed via Close
	return s, nil
}

// Close shuts the listener down.
func (s *Server) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Close()
}
