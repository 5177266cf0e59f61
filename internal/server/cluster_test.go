package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hybridpart/internal/cluster"
	"hybridpart/internal/store"
)

// swapHandler lets an httptest.Server start before the *Server it fronts
// exists: replica URLs must be known to build each replica's Config, so the
// handlers are bound after both listeners are up.
type swapHandler struct{ h atomic.Pointer[Server] }

func (sw *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s := sw.h.Load(); s != nil {
		s.ServeHTTP(w, r)
		return
	}
	http.Error(w, "replica not ready", http.StatusServiceUnavailable)
}

// newFleet starts n replicas (httptest listeners + fleet-mode Servers that
// all share the same peer list) and returns their base URLs and Servers.
func newFleet(t *testing.T, n int) ([]string, []*Server) {
	t.Helper()
	swaps := make([]*swapHandler, n)
	urls := make([]string, n)
	for i := range swaps {
		swaps[i] = &swapHandler{}
		ts := httptest.NewServer(swaps[i])
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	servers := make([]*Server, n)
	for i := range servers {
		servers[i] = New(Config{Self: urls[i], Peers: urls})
		swaps[i].h.Store(servers[i])
	}
	return urls, servers
}

// modelBodyOwnedBy walks constraint values until it finds a request whose
// fingerprint the given ring member owns, returning the JSON body and key.
// Model-objective so the fleet tests never pay for a simulation run.
func modelBodyOwnedBy(t *testing.T, ring *cluster.Ring, node string) (string, string) {
	t.Helper()
	for c := int64(9000); c < 9200; c++ {
		req := &PartitionRequest{Source: firSrc, Objective: "model", Constraint: c}
		opts, herr := req.resolveOptions(false)
		if herr != nil {
			t.Fatalf("resolveOptions: %v", herr)
		}
		key := req.fingerprint("partition", opts)
		if ring.Owner(key) == cluster.NormalizeNode(node) {
			body := fmt.Sprintf(`{"source": %q, "objective": "model", "constraint": %d}`, firSrc, c)
			return body, key
		}
	}
	t.Fatalf("no constraint in [9000,9200) hashes onto %s", node)
	return "", ""
}

// httpPost posts a JSON body to a live replica over real HTTP (forwarding
// needs a reachable owner, so recorders are not enough here).
func httpPost(t *testing.T, url, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s%s: %v", url, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

// TestClusterCrossReplicaHit is the acceptance scenario: a request posted to
// the non-owning replica is forwarded to the owner and a repeat — to either
// replica — is a byte-identical cache hit computed exactly once.
func TestClusterCrossReplicaHit(t *testing.T) {
	urls, servers := newFleet(t, 2)
	ring := cluster.NewRing(urls, 0)
	body, key := modelBodyOwnedBy(t, ring, urls[1])
	owner, ownerSrv := urls[1], servers[1]
	nonOwner, nonOwnerSrv := urls[0], servers[0]
	if ring.Owner(key) != cluster.NormalizeNode(owner) {
		t.Fatal("test setup: key not owned by replica 1")
	}

	// Miss through the non-owner: forwarded, computed on the owner.
	resp, first := httpPost(t, nonOwner, "/v1/partition", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded miss: status %d: %s", resp.StatusCode, first)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("forwarded miss: X-Cache %q", got)
	}
	if got := resp.Header.Get(clusterHeader); got != cluster.NormalizeNode(owner) {
		t.Fatalf("forwarded miss: %s = %q, want %q", clusterHeader, got, owner)
	}

	// Repeat through the non-owner: forwarded again, served from the
	// owner's cache, byte-identical.
	resp, second := httpPost(t, nonOwner, "/v1/partition", body)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("forwarded repeat: X-Cache %q", got)
	}
	if resp.Header.Get(clusterHeader) == "" {
		t.Fatal("forwarded repeat: missing forward marker")
	}
	if string(second) != string(first) {
		t.Fatalf("cross-replica responses differ:\n%s\n%s", first, second)
	}

	// Direct to the owner: a plain local hit, no forward marker.
	resp, third := httpPost(t, owner, "/v1/partition", body)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("owner hit: X-Cache %q", got)
	}
	if got := resp.Header.Get(clusterHeader); got != "" {
		t.Fatalf("owner served locally but marked forwarded: %q", got)
	}
	if string(third) != string(first) {
		t.Fatalf("owner response differs from forwarded response:\n%s\n%s", first, third)
	}

	// Counter accounting: two forwards from the non-owner, two received by
	// the owner, one engine run total.
	if got := nonOwnerSrv.cluster.forwards.Load(); got != 2 {
		t.Fatalf("non-owner forwards = %d, want 2", got)
	}
	if got := nonOwnerSrv.cluster.fallbacks.Load(); got != 0 {
		t.Fatalf("non-owner fallbacks = %d, want 0", got)
	}
	if got := ownerSrv.cluster.received.Load(); got != 2 {
		t.Fatalf("owner received = %d, want 2", got)
	}
	if st := ownerSrv.CacheStats(); st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("owner cache stats %+v, want 1 miss / 2 hits", st)
	}
	if st := nonOwnerSrv.CacheStats(); st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("non-owner touched its cache: %+v", st)
	}
}

// TestClusterForwardLoopGuard: a request that already carries the forward
// header is pinned to the local replica even when the ring says another
// replica owns it — ring disagreement can never bounce a request around.
func TestClusterForwardLoopGuard(t *testing.T) {
	self := "http://127.0.0.1:1"
	other := "http://127.0.0.1:2"
	s := newTestServer(t, Config{Self: self, Peers: []string{self, other}})
	body, _ := modelBodyOwnedBy(t, cluster.NewRing([]string{self, other}, 0), other)

	rec := postCtx(t, s, "/v1/partition", body, t.Context(), map[string]string{forwardHeader: other})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(clusterHeader); got != "" {
		t.Fatalf("guarded request re-forwarded to %q", got)
	}
	if got := s.cluster.forwards.Load(); got != 0 {
		t.Fatalf("forwards = %d, want 0", got)
	}
	if got := s.cluster.received.Load(); got != 1 {
		t.Fatalf("received = %d, want 1", got)
	}
	if st := s.CacheStats(); st.Misses != 1 {
		t.Fatalf("guarded request did not compute locally: %+v", st)
	}
}

// TestClusterFallbackWhenOwnerUnreachable: an owner that cannot be reached
// degrades the request to local computation instead of an error.
func TestClusterFallbackWhenOwnerUnreachable(t *testing.T) {
	self := "http://127.0.0.1:1"
	// TEST-NET-1 with an immediate-refusal port would hang on some stacks;
	// a closed loopback port refuses synchronously everywhere.
	dead := deadReplicaURL(t)
	s := newTestServer(t, Config{Self: self, Peers: []string{self, dead}})
	body, _ := modelBodyOwnedBy(t, cluster.NewRing([]string{self, dead}, 0), dead)

	rec := post(t, s, "/v1/partition", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("X-Cache %q", got)
	}
	if got := rec.Header().Get(clusterHeader); got != "" {
		t.Fatalf("fallback response marked forwarded: %q", got)
	}
	if got := s.cluster.fallbacks.Load(); got != 1 {
		t.Fatalf("fallbacks = %d, want 1", got)
	}
	// The repeat also falls back, and hits the local cache.
	rec = post(t, s, "/v1/partition", body)
	if got := rec.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("fallback repeat: X-Cache %q", got)
	}
	if got := s.cluster.fallbacks.Load(); got != 2 {
		t.Fatalf("fallbacks = %d, want 2", got)
	}
}

// TestClusterFallbackWhenOwnerHangs: an owner that accepts the connection
// but never responds (black-holed) trips the per-forward deadline and
// degrades to local computation — well before the global run timeout would
// turn the request into a 504.
func TestClusterFallbackWhenOwnerHangs(t *testing.T) {
	self := "http://127.0.0.1:1"
	stop := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-stop // accept, then never answer
	}))
	t.Cleanup(hung.Close)
	// Cleanups run last-in-first-out: unblock the handler before Close
	// waits on it. (The context-done channel is no release valve here —
	// the handler never reads the body, so the server may not notice the
	// forwarder hanging up.)
	t.Cleanup(func() { close(stop) })
	s := newTestServer(t, Config{
		Self:           self,
		Peers:          []string{self, hung.URL},
		ForwardTimeout: 100 * time.Millisecond,
		Timeout:        30 * time.Second,
	})
	body, _ := modelBodyOwnedBy(t, cluster.NewRing([]string{self, hung.URL}, 0), hung.URL)

	start := time.Now()
	rec := post(t, s, "/v1/partition", body)
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("X-Cache %q", got)
	}
	if got := rec.Header().Get(clusterHeader); got != "" {
		t.Fatalf("hung-owner response marked forwarded: %q", got)
	}
	if got := s.cluster.forwards.Load(); got != 0 {
		t.Fatalf("forwards = %d, want 0 (hop never completed)", got)
	}
	if got := s.cluster.fallbacks.Load(); got != 1 {
		t.Fatalf("fallbacks = %d, want 1", got)
	}
	// The per-forward deadline (100ms), not the 30s run timeout, must be
	// what tripped. Generous bound: CI schedulers stall, 504s do not.
	if elapsed > 10*time.Second {
		t.Fatalf("fallback took %v; per-forward deadline did not trip", elapsed)
	}
}

// TestClusterRelayTruncated: an owner that dies mid-response cannot be
// failed over — the status line is already on the wire — but the truncated
// relay must be counted instead of disappearing silently. The peer declares
// a Content-Length it never delivers, so the relaying io.Copy sees an
// unexpected EOF.
func TestClusterRelayTruncated(t *testing.T) {
	self := "http://127.0.0.1:1"
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", "4096")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"truncated`)
		// Returning short of the declared length makes the server drop the
		// connection, which the relaying client reads as unexpected EOF.
	}))
	t.Cleanup(peer.Close)
	s := newTestServer(t, Config{Self: self, Peers: []string{self, peer.URL}})
	body, _ := modelBodyOwnedBy(t, cluster.NewRing([]string{self, peer.URL}, 0), peer.URL)

	rec := post(t, s, "/v1/partition", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(clusterHeader); got == "" {
		t.Fatal("truncated relay lost its forward marker")
	}
	if got := s.cluster.forwards.Load(); got != 1 {
		t.Fatalf("forwards = %d, want 1", got)
	}
	if got := s.cluster.fallbacks.Load(); got != 0 {
		t.Fatalf("fallbacks = %d, want 0 (no failing over a started response)", got)
	}
	if got := s.cluster.relayTruncated.Load(); got != 1 {
		t.Fatalf("relayTruncated = %d, want 1", got)
	}
}

// deadReplicaURL reserves a loopback port that nothing listens on, so a
// forward to it fails fast with a connection refusal.
func deadReplicaURL(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()
	return url
}

// TestServerDiskRestartWarm: a server constructed over a repopulated disk
// store serves its very first repeat request as a byte-identical hit — the
// restart-warm acceptance scenario at the HTTP layer.
func TestServerDiskRestartWarm(t *testing.T) {
	dir := t.TempDir()
	body := fmt.Sprintf(`{"source": %q, "objective": "model", "constraint": 9000}`, firSrc)

	be, err := store.OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	s1 := newTestServer(t, Config{Store: be})
	rec := post(t, s1, "/v1/partition", body)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first run: status %d, X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
	}
	first := rec.Body.String()
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}

	be2, err := store.OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer be2.Close()
	s2 := newTestServer(t, Config{Store: be2})
	rec = post(t, s2, "/v1/partition", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("restart: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("restarted replica's first request: X-Cache %q, want hit", got)
	}
	if rec.Body.String() != first {
		t.Fatalf("restart-warm response differs:\n%s\n%s", first, rec.Body.String())
	}
	if st := s2.CacheStats(); st.Misses != 0 {
		t.Fatalf("restarted replica recomputed: %+v", st)
	}
}
