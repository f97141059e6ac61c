package service

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/memo"
	"repro/internal/obs"
)

// ForwardHeader marks a submission already routed by a peer. A node
// receiving it executes the job locally, whatever its own ring view
// says — one hop, never a forwarding loop even while ring views diverge
// (e.g. during a health-state transition).
const ForwardHeader = "X-Asyncsynth-Forwarded"

// FleetConfig wires a Manager into a multi-node fleet behind
// FleetHandler.
type FleetConfig struct {
	// Self is this node's advertised base URL (e.g. http://127.0.0.1:8337).
	Self string
	// Nodes lists every job-owning node's base URL, Self included; all
	// nodes must agree on the set for the consistent-hash ring to agree
	// on owners. A list of one (or nil) degrades to purely local serving.
	Nodes []string
	// Peers is the liveness view used to skip dead nodes; probes are the
	// caller's to start. Nil presumes everyone healthy.
	Peers *fleet.Peers
	// Store, when non-nil, is served to peers at GET /v1/cache/{key}
	// (the fleet cache-fill protocol; see memo.Remote): the one store
	// holding both the hfmin records and the stage payloads, so one
	// endpoint ships both kinds between nodes.
	Store *memo.Store
	// Retry shapes forwarding retries; the zero value selects
	// fleet.Backoff's defaults (3 attempts from 50ms).
	Retry fleet.Backoff
	// Client is the forwarding HTTP client. Default: a dedicated client
	// with a 30s overall timeout per attempt.
	Client *http.Client
}

// fleetProxy is the routing layer FleetHandler installs in front of a
// Manager's local Handler.
type fleetProxy struct {
	m     *Manager
	cfg   FleetConfig
	ring  *fleet.Ring
	local http.Handler
	solo  bool // no node but Self is on the ring
}

// FleetHandler returns the node's HTTP API with fleet routing in front
// of the local Handler:
//
//   - POST /v1/jobs is routed by content key: the consistent-hash ring
//     assigns every document a stable owner, so identical submissions
//     meet at one node and share its cache.
//     Non-owned submissions are forwarded (retry with backoff); if the
//     owner is unreachable the node degrades to local execution instead
//     of failing the job, marking the peer down for the health loop.
//     On a ring holding no node but Self, every key is owned here, and
//     submissions are admitted without encoding and hashing the graph.
//   - GET/PATCH/DELETE /v1/jobs/{id}[/...] honour the "@node" ID suffix:
//     requests for a foreign job are proxied to the owning node, so any
//     node can answer for any job (SSE event streams proxy flushed). A
//     PATCH lands where the base job lives, which is also where the
//     stage cache holding its intermediate results is warm.
//   - GET /v1/cache/{key} serves this node's cached minimization records
//     and stage payloads to peers (404 on miss), the pull side of
//     memo.Remote.
//
// Everything else — /healthz, /metrics — is served locally.
func (m *Manager) FleetHandler(cfg FleetConfig) http.Handler {
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	p := &fleetProxy{m: m, cfg: cfg, ring: fleet.NewRing(cfg.Nodes, 0), local: m.Handler()}
	nodes := p.ring.Nodes()
	p.solo = len(nodes) == 0 || len(nodes) == 1 && nodes[0] == cfg.Self
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", p.submit)
	mux.Handle("GET /v1/jobs/{id}", p.byJobID())
	mux.Handle("PATCH /v1/jobs/{id}", p.byJobID())
	mux.Handle("GET /v1/jobs/{id}/result", p.byJobID())
	mux.Handle("GET /v1/jobs/{id}/events", p.byJobID())
	mux.Handle("DELETE /v1/jobs/{id}", p.byJobID())
	mux.HandleFunc("GET /v1/cache/{key}", p.cacheGet)
	mux.Handle("/", p.local)
	return mux
}

// NodeOf returns the fleet node a job ID belongs to ("" when the ID has
// no node suffix).
func NodeOf(jobID string) string {
	if i := strings.LastIndexByte(jobID, '@'); i >= 0 {
		return jobID[i+1:]
	}
	return ""
}

// nodeID reduces a base URL to the host:port identity job IDs carry.
func nodeID(baseURL string) string {
	if u, err := url.Parse(baseURL); err == nil && u.Host != "" {
		return u.Host
	}
	return baseURL
}

// nodeURL resolves a job ID's node suffix back to a base URL using the
// ring membership (the suffix is the host:port of an advertised URL).
func (p *fleetProxy) nodeURL(node string) string {
	for _, n := range p.ring.Nodes() {
		if nodeID(n) == node {
			return n
		}
	}
	return ""
}

func (p *fleetProxy) alive(node string) bool {
	if node == p.cfg.Self || p.cfg.Peers == nil {
		return true
	}
	return p.cfg.Peers.Healthy(node)
}

// submit routes POST /v1/jobs by content key.
func (p *fleetProxy) submit(w http.ResponseWriter, r *http.Request) {
	sub, status, msg := parseSubmission(r)
	if status != 0 {
		writeError(w, status, msg)
		return
	}
	if r.Header.Get(ForwardHeader) != "" {
		// Already routed by a peer: execute here, one hop only.
		obs.Add("fleet/forwards_received", 1)
		p.admit(w, sub)
		return
	}
	if p.solo {
		obs.Add("fleet/local_submits", 1)
		p.admit(w, sub)
		return
	}
	key, canonical, err := ContentKey(sub.graph, sub.level, sub.mode)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	owner := p.ring.OwnerAlive(key, p.alive)
	if owner == "" || owner == p.cfg.Self {
		obs.Add("fleet/local_submits", 1)
		p.admit(w, sub)
		return
	}
	if p.forward(w, r, owner, canonical, sub) {
		obs.Add("fleet/forwarded", 1)
		return
	}
	// The owner is unreachable: degrade to local execution rather than
	// failing the job, and let the health loop chase the peer.
	if p.cfg.Peers != nil {
		p.cfg.Peers.MarkDown(owner)
	}
	obs.Add("fleet/forward_fallbacks", 1)
	p.admit(w, sub)
}

// admit runs a submission on this node's manager.
func (p *fleetProxy) admit(w http.ResponseWriter, sub submission) {
	job, err := p.m.SubmitMode(sub.graph, sub.level, sub.mode)
	writeSubmitOutcome(w, job, err)
}

// forward relays a submission to its owner and copies the response back;
// it reports false when every attempt failed and the caller should run
// the job locally. Owner-side rejections (429/503) are relayed, not
// retried: backpressure is the owner's verdict, not a transport failure.
func (p *fleetProxy) forward(w http.ResponseWriter, r *http.Request, owner string, canonical []byte, sub submission) bool {
	target := owner + "/v1/jobs?level=" + url.QueryEscape(sub.level.String()) +
		"&mode=" + url.QueryEscape(string(sub.mode))
	var resp *http.Response
	err := p.cfg.Retry.Do(r.Context(), func() error {
		req, rerr := http.NewRequestWithContext(r.Context(), http.MethodPost, target, bytes.NewReader(canonical))
		if rerr != nil {
			return rerr
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(ForwardHeader, p.cfg.Self)
		res, rerr := p.cfg.Client.Do(req)
		if rerr != nil {
			return rerr
		}
		resp = res
		return nil
	})
	if err != nil || resp == nil {
		return false
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

// byJobID serves job reads/cancels locally or proxies them to the node
// named in the ID suffix.
func (p *fleetProxy) byJobID() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		node := NodeOf(r.PathValue("id"))
		if node == "" || node == nodeID(p.cfg.Self) {
			p.local.ServeHTTP(w, r)
			return
		}
		target := p.nodeURL(node)
		if target == "" {
			writeError(w, http.StatusNotFound, "job belongs to unknown node "+node)
			return
		}
		u, err := url.Parse(target)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		obs.Add("fleet/proxied", 1)
		proxy := &httputil.ReverseProxy{
			Rewrite: func(pr *httputil.ProxyRequest) {
				pr.SetURL(u)
				pr.Out.URL.Path = r.URL.Path // SetURL keeps the path; be explicit
				pr.Out.URL.RawQuery = r.URL.RawQuery
			},
			// Negative: flush as bytes arrive, so proxied SSE streams move.
			FlushInterval: -1,
			ErrorHandler: func(w http.ResponseWriter, _ *http.Request, err error) {
				if p.cfg.Peers != nil {
					p.cfg.Peers.MarkDown(target)
				}
				writeError(w, http.StatusBadGateway, "node "+node+" unreachable: "+err.Error())
			},
		}
		proxy.ServeHTTP(w, r)
	})
}

// cacheGet serves the fleet cache-fill protocol from the node's store.
func (p *fleetProxy) cacheGet(w http.ResponseWriter, r *http.Request) {
	data, ok := p.cfg.Store.Export(r.PathValue("key"))
	if !ok {
		obs.Add("fleet/cache_serve_misses", 1)
		writeError(w, http.StatusNotFound, "no such cache entry")
		return
	}
	obs.Add("fleet/cache_served", 1)
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}
