package service

import (
	"encoding/json"
	"errors"
	"io"
	"mime"
	"net/http"

	"repro/internal/cdfg"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/obs"
	"repro/internal/stage"
)

// maxRequestBytes bounds a job submission body; the largest built-in
// benchmark encodes to well under 10 KiB, so 4 MiB leaves room for much
// larger CDFGs while keeping a hostile client from ballooning memory.
const maxRequestBytes = 4 << 20

// JobStatus is the JSON body of job-state responses. Result carries the
// full synthesis document (verbatim, as produced by codec) once the job
// is done.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Mode  string `json:"mode,omitempty"`
	// Stage names the most recently completed pipeline stage while the
	// job runs (fed from obs spans; omitted when tracing is disabled).
	Stage string `json:"stage,omitempty"`
	Error string `json:"error,omitempty"`
	// Dirty reports the expected blast radius of the delta that created
	// this job (PATCH /v1/jobs/{id} responses only).
	Dirty  *DirtyInfo      `json:"dirty,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// DirtyInfo is the wire form of the stage engine's dirty-region
// classification for a patched job.
type DirtyInfo struct {
	// Global reports a full recompute: the edit can change the global
	// transforms' outcome.
	Global bool `json:"global"`
	// FUs lists the functional units expected to recompute when Global is
	// false (sorted; the remaining controllers replay from the stage
	// cache).
	FUs []string `json:"fus,omitempty"`
}

// errorBody is the JSON body of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/jobs       submit a design (?level= selects the
//	                      optimization level, default the full ladder;
//	                      ?mode= selects what runs: "synth" (default) is
//	                      the fixed pipeline, "search" the cost-directed
//	                      rewrite search, which picks the transforms
//	                      itself and ignores ?level=).
//	                      The body is negotiated on Content-Type:
//	                      application/json (or absent) is a codec graph
//	                      document; text/x-adl, text/adl or text/plain is
//	                      ADL behavioral source compiled on submission
//	GET    /v1/jobs/{id}  poll job state; includes the result when done
//	PATCH  /v1/jobs/{id}  apply a CDFG delta document (see
//	                      docs/INTERCHANGE.md) to the job's input design
//	                      and submit the patched design as a new job at
//	                      the same level and mode; the 202 response
//	                      carries the new job plus the edit's dirty
//	                      classification. Unchanged stages replay
//	                      from the engine's stage cache.
//	GET    /v1/jobs/{id}/result  the raw synthesis document, byte-for-byte
//	                      as the codec produced it (409 until done)
//	GET    /v1/jobs/{id}/events  job progress: SSE stream of lifecycle and
//	                      pipeline-span events (?poll=1 long-polls a JSON
//	                      batch instead; see events.go)
//	DELETE /v1/jobs/{id}  cancel a queued or running job
//	GET    /healthz       liveness (503 while draining)
//	GET    /metrics       the obs registry in Prometheus text format
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", m.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", m.handleGet)
	mux.HandleFunc("PATCH /v1/jobs/{id}", m.handlePatch)
	mux.HandleFunc("GET /v1/jobs/{id}/result", m.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", m.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", m.handleCancel)
	mux.HandleFunc("GET /healthz", m.handleHealth)
	mux.HandleFunc("GET /metrics", handleMetrics)
	return mux
}

// writeSubmitOutcome maps a Submit result onto the HTTP status space. An
// admitted job is answered with its state at admission (see admitted).
func writeSubmitOutcome(w http.ResponseWriter, job *Job, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
	default:
		writeJSON(w, http.StatusAccepted, admitted(job))
	}
}

func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	if len(body) > maxRequestBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds limit")
		return
	}
	level := core.OptimizedGTLT
	if lv := r.URL.Query().Get("level"); lv != "" {
		parsed, ok := parseLevel(lv)
		if !ok {
			writeError(w, http.StatusBadRequest, "unknown level "+lv)
			return
		}
		level = parsed
	}
	mode, ok := ParseMode(r.URL.Query().Get("mode"))
	if !ok {
		writeError(w, http.StatusBadRequest, "unknown mode "+r.URL.Query().Get("mode")+
			" (want synth or search)")
		return
	}
	g, err := decodeSubmission(r.Header.Get("Content-Type"), body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	job, err := m.SubmitMode(g, level, mode)
	writeSubmitOutcome(w, job, err)
}

// decodeSubmission negotiates the POST /v1/jobs body on its Content-Type:
// JSON (or no header) is a codec interchange document; the ADL text types
// are behavioral source compiled by the frontend. Anything else is a 415
// mapped to 400 by the caller's error path — explicit, not guessed.
func decodeSubmission(contentType string, body []byte) (*cdfg.Graph, error) {
	mediaType := ""
	if contentType != "" {
		mt, _, err := mime.ParseMediaType(contentType)
		if err != nil {
			return nil, errors.New("malformed Content-Type: " + err.Error())
		}
		mediaType = mt
	}
	switch mediaType {
	case "", "application/json":
		return codec.DecodeGraph(body)
	case "text/x-adl", "text/adl", "text/plain":
		return frontend.Compile("request.adl", body)
	default:
		return nil, errors.New("unsupported Content-Type " + mediaType +
			" (want application/json or text/x-adl)")
	}
}

func (m *Manager) handleGet(w http.ResponseWriter, r *http.Request) {
	job, err := m.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, statusOf(job))
}

// handleResult serves the synthesis document verbatim. The embedded
// Result in JobStatus is re-indented by the status encoder; clients that
// need the codec's exact bytes (the smoke test's bit-identical netlist
// check) read this endpoint instead.
func (m *Manager) handleResult(w http.ResponseWriter, r *http.Request) {
	job, err := m.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	job.mu.Lock()
	state, result := job.state, job.result
	job.mu.Unlock()
	if state != StateDone {
		writeError(w, http.StatusConflict, "job is "+state.String())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(result)
}

// handlePatch applies a CDFG delta to a job's input design and submits
// the patched design as a new job. The base job may be in any state —
// its input graph is retained verbatim for exactly this purpose — and is
// never modified; iterating on a design is a chain of jobs, each
// patching its predecessor. The response is the new job's status plus
// the delta's dirty classification.
func (m *Manager) handlePatch(w http.ResponseWriter, r *http.Request) {
	base, err := m.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	if len(body) > maxRequestBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds limit")
		return
	}
	delta, err := codec.DecodeDelta(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	patched, err := codec.ApplyDelta(base.graph, delta)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	dirty := stage.Classify(base.graph, delta)
	job, serr := m.SubmitMode(patched, base.level, base.mode)
	if serr != nil {
		writeSubmitOutcome(w, job, serr)
		return
	}
	st := admitted(job)
	st.Dirty = &DirtyInfo{Global: dirty.Global, FUs: dirty.FUs}
	writeJSON(w, http.StatusAccepted, st)
}

func (m *Manager) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, err := m.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, statusOf(job))
}

func (m *Manager) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if m.Draining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func handleMetrics(w http.ResponseWriter, _ *http.Request) {
	reg := obs.Gather()
	if reg == nil {
		writeError(w, http.StatusNotFound, "metrics registry not installed")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	reg.WritePrometheus(w)
}

// admitted is the wire status of a job Submit has just admitted: its
// state at admission, which is always queued. A runner may pick the job
// up before the response is written, so a snapshot taken then could
// already read running; the submit response reports the admission, and
// polls report what happened since.
func admitted(job *Job) JobStatus {
	return JobStatus{ID: job.id, State: StateQueued.String(), Mode: string(job.mode)}
}

// statusOf snapshots a job for the wire.
func statusOf(job *Job) JobStatus {
	job.mu.Lock()
	defer job.mu.Unlock()
	st := JobStatus{ID: job.id, State: job.state.String(), Mode: string(job.mode), Stage: job.stage}
	if job.err != nil {
		st.Error = job.err.Error()
	}
	if job.state == StateDone {
		st.Result = json.RawMessage(job.result)
	}
	return st
}

// parseLevel maps the Level.String() forms back to levels.
func parseLevel(s string) (core.Level, bool) {
	for _, l := range []core.Level{core.Unoptimized, core.OptimizedGT, core.OptimizedGTLT} {
		if s == l.String() {
			return l, true
		}
	}
	return 0, false
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}
