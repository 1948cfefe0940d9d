package baoserver

import (
	"encoding/json"
	"net/http"
)

// healthResponse is the /v1/health body for both probe flavors.
type healthResponse struct {
	Live  bool `json:"live"`
	Ready bool `json:"ready"`
	// Detail distinguishes why a live process is not ready (e.g. replay
	// still running) for humans reading the probe by hand.
	Detail string `json:"detail,omitempty"`
	// Durability reports the experience log's write path: "ok" while
	// appends persist, "degraded" while the log is read-only after an
	// unrecoverable disk failure (selections still served, experiences
	// dropped and counted). Empty when no log is configured. Degraded
	// durability never fails either probe flavor: the server is alive
	// and serving — restart-vs-wait is the operator's call, informed by
	// this field and bao_explog_dropped_total.
	Durability string `json:"durability,omitempty"`
}

// healthHandler serves the liveness/readiness probe:
//
//	GET /v1/health             readiness: 200 once ready (explog replay +
//	                           checkpoint rollback complete), 503 before
//	GET /v1/health?probe=live  liveness: 200 whenever the process answers
//
// The router's health checker polls the readiness flavor; orchestrators
// use the liveness flavor to decide restart-vs-wait. The endpoint
// bypasses admission control: a saturated shard must still answer its
// probes, or overload would read as death.
func healthHandler(probe func() healthResponse) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		resp := probe()
		resp.Live = true
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Query().Get("probe") != "live" && !resp.Ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(resp) //nolint:errcheck // best effort over HTTP
	}
}
