package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"hybridpart/internal/obs"
)

// GET /debug/fleet — one merged health document for the whole replica set,
// so a single curl answers "is any replica sick". The handler fans out to
// every peer's /debug/stats and /debug/telemetry concurrently (local-only
// reads: peers never recurse back into their own fleets) and reports
// unreachable replicas inline rather than failing the whole document.
// Outside fleet mode the document holds just this process.

// fleetPeerTimeout bounds each call to one peer: its share of this fan-out
// (a dead peer is reported as unhealthy) or of a trace assembly, and a
// forward hop when Config.ForwardTimeout is unset.
const fleetPeerTimeout = 2 * time.Second

// FleetReplicaJSON is one replica's row of GET /debug/fleet.
type FleetReplicaJSON struct {
	Replica   string               `json:"replica"`
	Self      bool                 `json:"self,omitempty"`
	Healthy   bool                 `json:"healthy"`
	Error     string               `json:"error,omitempty"`
	Stats     *StatsJSON           `json:"stats,omitempty"`
	Telemetry *obs.TelemetrySample `json:"telemetry,omitempty"` // latest sample, when the replica collects telemetry
}

// FleetJSON is the body of GET /debug/fleet.
type FleetJSON struct {
	Self      string             `json:"self"`
	Healthy   int                `json:"healthy"`
	Unhealthy int                `json:"unhealthy"`
	Replicas  []FleetReplicaJSON `json:"replicas"`
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	out := FleetJSON{Self: s.selfName()}

	rows := []FleetReplicaJSON{s.localReplica()}
	if cs := s.cluster; cs != nil {
		peers := make([]string, 0, len(cs.ring.Nodes()))
		for _, peer := range cs.ring.Nodes() {
			if peer != cs.self {
				peers = append(peers, peer)
			}
		}
		sort.Strings(peers)
		peerRows := make([]FleetReplicaJSON, len(peers))
		var wg sync.WaitGroup
		for i, peer := range peers {
			wg.Add(1)
			go func(i int, peer string) {
				defer wg.Done()
				peerRows[i] = s.fetchPeerHealth(r.Context(), peer)
			}(i, peer)
		}
		wg.Wait()
		rows = append(rows, peerRows...)
	}

	for _, row := range rows {
		if row.Healthy {
			out.Healthy++
		} else {
			out.Unhealthy++
		}
	}
	out.Replicas = rows
	s.writeJSON(w, out)
}

// selfName is this replica's identity in the fleet document: its ring URL
// in fleet mode, the tracer's service name otherwise, with a static
// fallback so the document is always well-formed.
func (s *Server) selfName() string {
	if cs := s.cluster; cs != nil {
		return cs.self
	}
	if svc := s.tracer.Service(); svc != "" {
		return svc
	}
	return "hservd"
}

// localReplica assembles this process's own row without HTTP round trips.
func (s *Server) localReplica() FleetReplicaJSON {
	row := FleetReplicaJSON{
		Replica: s.selfName(),
		Self:    true,
		Healthy: true,
	}
	stats := s.statsJSON()
	row.Stats = &stats
	if sample, ok := s.telemetry.Latest(); ok {
		row.Telemetry = &sample
	}
	return row
}

// fetchPeerHealth collects one peer's stats and latest telemetry sample.
// The stats read decides health; missing telemetry (disabled on the peer,
// or an older build) degrades that field only.
func (s *Server) fetchPeerHealth(ctx context.Context, peer string) FleetReplicaJSON {
	row := FleetReplicaJSON{Replica: peer}
	var stats StatsJSON
	if err := s.fetchPeerJSON(ctx, peer+"/debug/stats", &stats); err != nil {
		row.Error = err.Error()
		return row
	}
	row.Healthy = true
	row.Stats = &stats
	var tel TelemetryJSON
	if err := s.fetchPeerJSON(ctx, peer+"/debug/telemetry", &tel); err == nil && len(tel.Samples) > 0 {
		last := tel.Samples[len(tel.Samples)-1]
		row.Telemetry = &last
	}
	return row
}

// fetchPeerJSON GETs url from a peer within fleetPeerTimeout and decodes
// its 200 JSON body into v; any other status is an error.
func (s *Server) fetchPeerJSON(ctx context.Context, url string, v any) error {
	ctx, cancel := context.WithTimeout(ctx, fleetPeerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := s.cluster.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &httpError{status: resp.StatusCode, msg: url + " returned " + resp.Status}
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
