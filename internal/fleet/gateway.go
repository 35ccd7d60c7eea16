package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/obs"
)

// Gateway is the HTTP/JSON surface of the daemon:
//
//	POST   /sweeps               submit a sweep spec (strict schema)
//	GET    /sweeps               list sweep statuses
//	GET    /sweeps/{id}          one sweep's status
//	GET    /sweeps/{id}/results  final results (done sweeps), or a live
//	                             SSE stream with ?stream=1 / Accept:
//	                             text/event-stream
//	GET    /sweeps/{id}/metrics  the sweep's own Prometheus snapshot
//	DELETE /sweeps/{id}          cancel (queued or running)
//	GET    /metrics              daemon + all sweeps, Prometheus text
//	GET    /healthz              liveness
//
// Backpressure: when the pending queue is at its bound, POST /sweeps
// answers 429 with a Retry-After header instead of accepting work the
// daemon cannot hold. Bad specs answer 400 with a structured
// {"error":{"field","reason"}} body.
type Gateway struct {
	st  *Store
	agg *obs.Aggregator
	mux *http.ServeMux
}

// NewGateway builds the HTTP handler over a store; agg is the
// daemon-level aggregator merged into /metrics alongside every sweep's.
func NewGateway(st *Store, agg *obs.Aggregator) *Gateway {
	g := &Gateway{st: st, agg: agg, mux: http.NewServeMux()}
	g.mux.HandleFunc("POST /sweeps", g.handleSubmit)
	g.mux.HandleFunc("GET /sweeps", g.handleList)
	g.mux.HandleFunc("GET /sweeps/{id}", g.handleStatus)
	g.mux.HandleFunc("GET /sweeps/{id}/results", g.handleResults)
	g.mux.HandleFunc("GET /sweeps/{id}/metrics", g.handleSweepMetrics)
	g.mux.HandleFunc("DELETE /sweeps/{id}", g.handleCancel)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	g.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"ok":true}`+"\n")
	})
	return g
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// errorBody is every non-2xx JSON response: a human line plus the
// structured field error when the failure is a spec rejection.
type errorBody struct {
	Error struct {
		Message string `json:"message"`
		Field   string `json:"field,omitempty"`
		Reason  string `json:"reason,omitempty"`
	} `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	var b errorBody
	b.Error.Message = msg
	writeJSON(w, code, b)
}

func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
		return
	}
	sw, err := g.st.Submit(body)
	if err != nil {
		var spec *SpecError
		switch {
		case errors.As(err, &spec):
			var b errorBody
			b.Error.Message = "sweep spec rejected"
			b.Error.Field = spec.Field
			b.Error.Reason = spec.Reason
			writeJSON(w, http.StatusBadRequest, b)
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "pending sweep queue is full; retry later")
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusCreated, sw.Status())
}

func (g *Gateway) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Sweeps []Status `json:"sweeps"`
	}{g.st.List()})
}

// sweep resolves {id} or answers 404.
func (g *Gateway) sweep(w http.ResponseWriter, r *http.Request) (*Sweep, bool) {
	id := r.PathValue("id")
	sw, ok := g.st.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no sweep %q", id))
		return nil, false
	}
	return sw, true
}

func (g *Gateway) handleStatus(w http.ResponseWriter, r *http.Request) {
	if sw, ok := g.sweep(w, r); ok {
		writeJSON(w, http.StatusOK, sw.Status())
	}
}

func (g *Gateway) handleCancel(w http.ResponseWriter, r *http.Request) {
	sw, ok := g.sweep(w, r)
	if !ok {
		return
	}
	accepted, err := g.st.Cancel(sw)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if !accepted {
		writeError(w, http.StatusConflict,
			fmt.Sprintf("sweep %s is already %s", sw.ID, sw.State()))
		return
	}
	writeJSON(w, http.StatusAccepted, sw.Status())
}

func (g *Gateway) handleResults(w http.ResponseWriter, r *http.Request) {
	sw, ok := g.sweep(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("stream") != "" || r.Header.Get("Accept") == "text/event-stream" {
		g.streamResults(w, r, sw)
		return
	}
	switch sw.State() {
	case StateDone:
		data, err := sw.Results()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
		w.Write([]byte("\n"))
	case StateFailed, StateCancelled:
		writeError(w, http.StatusConflict,
			fmt.Sprintf("sweep %s is %s; no results", sw.ID, sw.State()))
	default:
		// Not finished: point the client at the terminal states or the
		// stream, and include progress so dumb pollers can just loop.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusAccepted, sw.Status())
	}
}

// streamResults is the SSE path: every completed replication (replayed
// from the checkpoint first, then live) as an `event: rep`, then one
// terminal event — `done` carrying the full merged results document,
// or `failed`/`cancelled` carrying the status. The response is chunked
// and flushed per event, so a consumer sees replications as they land.
func (g *Gateway) streamResults(w http.ResponseWriter, r *http.Request, sw *Sweep) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(event string, data []byte) {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		fl.Flush()
	}

	cursor := 0
	for {
		changed, n, state := sw.Watch()
		for ; cursor < n; cursor++ {
			idx, out := sw.CompletedAt(cursor)
			payload, _ := json.Marshal(struct {
				Index int             `json:"index"`
				Out   json.RawMessage `json:"out"`
			}{idx, out})
			send("rep", payload)
		}
		switch state {
		case StateDone:
			data, err := sw.Results()
			if err != nil {
				payload, _ := json.Marshal(map[string]string{"error": err.Error()})
				send("error", payload)
				return
			}
			send("done", data)
			return
		case StateFailed, StateCancelled:
			payload, _ := json.Marshal(sw.Status())
			send(string(state), payload)
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

func (g *Gateway) handleSweepMetrics(w http.ResponseWriter, r *http.Request) {
	sw, ok := g.sweep(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	sw.Agg.WritePrometheus(w)
}

// handleMetrics renders one merged snapshot: the daemon-level series
// plus every sweep's aggregator folded in with the registry's
// commutative merge — so /metrics stays a single well-formed Prometheus
// document (no duplicate series) while still reflecting each sweep's
// per-replication samples.
func (g *Gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snapshot := obs.NewRegistry()
	if g.agg != nil {
		g.agg.With(func(r *obs.Registry) { snapshot.Merge(r) })
	}
	for _, sw := range g.st.all() {
		sw.Agg.With(func(r *obs.Registry) { snapshot.Merge(r) })
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	snapshot.WritePrometheus(w)
}
