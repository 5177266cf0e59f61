package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"hybridpart/internal/cluster"
	"hybridpart/internal/obs"
)

// Fingerprint-sharded peer routing. With Config.Self/Peers set, every
// fingerprint-keyed endpoint consults a consistent-hash ring over the
// replica set: a request whose cache key this replica does not own is
// forwarded to the owning replica over the same HTTP wire types, so N
// replicas keep one copy of each result and coalesce concurrent identical
// requests globally instead of per-process. Forwarded requests carry a
// loop-guard header — the receiving owner always serves locally — and an
// unreachable owner degrades to local computation rather than an error.

// forwardHeader marks a request as already forwarded once (value: the
// forwarding replica's self URL). Its presence pins handling to the local
// replica, so ring disagreement during a membership change can never
// bounce a request in a loop.
const forwardHeader = "X-Hybridpart-Forwarded-From"

// clusterHeader is set on responses that were served by forwarding to the
// owning replica (value: the owner's base URL).
const clusterHeader = "X-Cluster-Forwarded"

// clusterState is a Server's view of the fleet.
type clusterState struct {
	self   string
	ring   *cluster.Ring
	client *http.Client

	forwards       atomic.Int64 // requests this replica forwarded to an owner
	fallbacks      atomic.Int64 // forwards that failed over to local compute
	received       atomic.Int64 // forwarded requests served here as the owner
	relayTruncated atomic.Int64 // relays cut short by a mid-response peer disconnect
}

func newClusterState(self string, peers []string) *clusterState {
	return &clusterState{
		self: cluster.NormalizeNode(self),
		ring: cluster.NewRing(peers, 0),
		// Connection reuse matters here — every non-owned request crosses
		// the fleet — and timeouts ride on the per-request context, which
		// already carries the server's run timeout.
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
	}
}

// routeOwner returns the owning replica's base URL for key when the key
// must be served elsewhere: "" means "serve locally" (no cluster, we are
// the owner, or the request already forwarded once).
func (s *Server) routeOwner(r *http.Request, key string) string {
	cs := s.cluster
	if cs == nil {
		return ""
	}
	if r.Header.Get(forwardHeader) != "" {
		cs.received.Add(1)
		return ""
	}
	if owner := cs.ring.Owner(key); owner != cs.self {
		return owner
	}
	return ""
}

// forwardTimeout returns the per-forward deadline: Config.ForwardTimeout, or
// fleetPeerTimeout when unset, so a black-holed owner (accepts, never
// responds) trips the local-fallback path within a few seconds instead of
// holding the request until the global run timeout's 504.
func (s *Server) forwardTimeout() time.Duration {
	if s.cfg.ForwardTimeout > 0 {
		return s.cfg.ForwardTimeout
	}
	return fleetPeerTimeout
}

// tryForward relays the request to the owning replica and streams its
// response back verbatim (status, body, cache headers). It reports false
// when the owner could not be reached — connection failure, transport
// error, or no response within the per-forward deadline — in which case the
// caller serves locally; any HTTP response from the owner, including its
// error contract, is authoritative and relayed.
func (s *Server) tryForward(w http.ResponseWriter, r *http.Request, endpoint, owner string, req any) bool {
	cs := s.cluster
	body, err := json.Marshal(req)
	if err != nil {
		return false
	}
	ctx, cancel := s.runCtx(r)
	defer cancel()
	// The forward hop gets its own, much shorter deadline than the run
	// timeout: a black-holed owner must fail over to local computation in
	// seconds, not hold the request until the global 504.
	ctx, fwdCancel := context.WithTimeout(ctx, s.forwardTimeout())
	defer fwdCancel()
	// The forward hop gets its own span, and its identity rides the W3C
	// traceparent header so the owner's root span joins this trace — the
	// fleet's replicas then assemble one distributed trace for the request.
	ctx, span := obs.Start(ctx, "cluster.forward", obs.String("owner", owner), obs.String("endpoint", endpoint))
	preq, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+endpoint, bytes.NewReader(body))
	if err != nil {
		span.End()
		return false
	}
	preq.Header.Set("Content-Type", "application/json")
	preq.Header.Set(forwardHeader, cs.self)
	if tp := span.Traceparent(); tp != "" {
		preq.Header.Set("traceparent", tp)
	}
	resp, err := cs.client.Do(preq)
	if err != nil {
		span.Set(obs.Bool("reached", false), obs.String("error", err.Error()))
		span.End()
		return false
	}
	defer resp.Body.Close()
	cs.forwards.Add(1)
	span.Set(obs.Bool("reached", true), obs.Int("status", resp.StatusCode))
	defer span.End()
	for _, h := range []string{"Content-Type", "X-Cache", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(clusterHeader, owner)
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		// The status line is already on the wire, so there is no falling
		// back — the client got a truncated body. Make the failure loud:
		// it is otherwise invisible on the relaying replica.
		cs.relayTruncated.Add(1)
		span.Set(obs.Bool("relay_truncated", true))
		s.logger.Warn("forward relay truncated: peer disconnected mid-response",
			"endpoint", endpoint,
			"trace", obs.SpanFrom(r.Context()).TraceID(),
			"owner", owner,
			"error", err.Error())
	}
	return true
}
