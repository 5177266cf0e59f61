package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// wireKeys runs a decoded request through the same shape checks, knob
// resolution and content addressing the handlers apply before a run —
// /v1/partition, /v1/partition-energy and /v1/simulate, in that order — and
// returns the cache key of every endpoint that accepts it (empty for one
// that rejects it). req is a copy, so the partition path's in-place
// objective default never leaks into the other endpoints.
func wireKeys(req PartitionRequest) [3]string {
	var keys [3]string
	for i, kind := range []string{"partition", "energy"} {
		r, energy := req, kind == "energy"
		if r.validate(energy) != nil {
			continue
		}
		if !energy {
			r.applyDefaultObjective()
		}
		opts, e := r.resolveOptions()
		if e != nil || (!energy && checkScoringCost(opts) != nil) {
			continue
		}
		keys[i] = r.fingerprint(kind, opts)
	}
	sim := SimulateRequest{req}
	if sim.validate() == nil {
		if opts, e := sim.resolveOptions(); e == nil {
			normalizeSimOptions(&opts)
			if checkScoringCost(opts) == nil {
				keys[2] = sim.fingerprint(opts)
			}
		}
	}
	return keys
}

// decodeWire decodes body exactly as a handler does (decodeBody: strict
// fields, body cap).
func decodeWire(body []byte, v any) *httpError {
	r := httptest.NewRequest("POST", "/v1/partition", bytes.NewReader(body))
	return decodeBody(httptest.NewRecorder(), r, v)
}

// FuzzPartitionRequest drives the wire decoders of the partition, energy
// and simulate endpoints with arbitrary bodies. Invariants: decoding,
// validation, option resolution and fingerprinting never panic, and an
// accepted request re-encoded with json.Marshal decodes to a request with
// the same cache key on every endpoint — the fingerprint is a property of
// the request, not of its spelling.
func FuzzPartitionRequest(f *testing.F) {
	for _, s := range []string{
		// The service smoke bodies.
		`{"benchmark": "ofdm", "seed": 1, "constraint": 60000}`,
		`{"benchmark": "ofdm", "seed": 1, "constraint": 60000, "frames": 4, "prefetch": true}`,
		`{"benchmark": "ofdm", "seed": 1, "constraint": 60000, "objective": "model"}`,
		`{`,
		// Every other field, and the mutually exclusive pairs.
		`{"source": "int main_fn() { return 1; }", "entry": "main_fn", "args": [3, -1], "inputs": {"B": [1], "A": [2, 3]}}`,
		`{"benchmark": "jpeg", "preset": "dsp-rich", "regions": 2, "rerank": -1, "ports": 2}`,
		`{"benchmark": "ofdm", "options": {"AFPGA": 1500, "SimFrames": 8, "Objective": 1}}`,
		`{"benchmark": "ofdm", "options": {}, "preset": "dsp-rich"}`,
		`{"benchmark": "ofdm", "energy_budget": 1e9}`,
		`{"benchmark": "ofdm", "frames": 1025}`,
		`{"benchmark": "nope", "unknown": true}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req PartitionRequest
		if decodeWire(body, &req) != nil {
			return
		}
		keys := wireKeys(req)
		again, err := json.Marshal(&req)
		if err != nil {
			t.Fatalf("decoded %q but cannot re-encode it: %v", body, err)
		}
		var back PartitionRequest
		if e := decodeWire(again, &back); e != nil {
			t.Fatalf("re-encoded %q does not decode: %s", again, e.msg)
		}
		if got := wireKeys(back); got != keys {
			t.Fatalf("cache keys changed across a JSON round trip:\n%s -> %v\n%s -> %v", body, keys, again, got)
		}
	})
}
