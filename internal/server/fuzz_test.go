package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	"hybridpart"
)

// wireKeys runs a decoded request through the same shape checks, knob
// resolution and content addressing the handlers apply before a run —
// /v1/partition, /v1/partition-energy and /v1/simulate, in that order — and
// returns the cache key of every endpoint that accepts it (empty for one
// that rejects it). req is a copy, so the partition path's in-place
// objective default never leaks into the other endpoints. Every key must
// equal the one referenceKey builds with fmt.
func wireKeys(t testing.TB, req PartitionRequest) [3]string {
	t.Helper()
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
		if e != nil || (!energy && checkScoringCost(simCost(kind, opts)) != nil) {
			continue
		}
		keys[i] = r.fingerprint(kind, opts)
		checkReferenceKey(t, &r, kind, opts, keys[i])
	}
	sim := SimulateRequest{req}
	if sim.validate() == nil {
		if opts, e := sim.resolveOptions(); e == nil {
			normalizeSimOptions(&opts)
			if checkScoringCost(simCost("simulate", opts)) == nil {
				keys[2] = sim.fingerprint(opts)
				checkReferenceKey(t, &sim.PartitionRequest, "simulate", opts, keys[2])
			}
		}
	}
	return keys
}

// referenceKey is the fmt-based request key encoder fingerprint replaced,
// kept as its oracle.
func referenceKey(r *PartitionRequest, kind string, opts hybridpart.Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "kind=%s\n", kind)
	if r.Benchmark != "" {
		fmt.Fprintf(h, "bench=%s\nseed=%d\n", r.Benchmark, r.Seed)
	} else {
		fmt.Fprintf(h, "src=%s\nentry=%s\n", hybridpart.SourceHash(r.Source), r.entryOrDefault())
		fmt.Fprintf(h, "args=%v\n", r.Args)
		names := make([]string, 0, len(r.Inputs))
		for n := range r.Inputs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(h, "input:%s=%v\n", n, r.Inputs[n])
		}
	}
	fmt.Fprintf(h, "opts=%s\n", opts.Fingerprint())
	if kind == "energy" {
		fmt.Fprintf(h, "budget=%v\n", r.EnergyBudget)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func checkReferenceKey(t testing.TB, r *PartitionRequest, kind string, opts hybridpart.Options, key string) {
	t.Helper()
	if want := referenceKey(r, kind, opts); key != want {
		t.Fatalf("%s key %s, the fmt encoder gives %s", kind, key, want)
	}
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
		// A full override replaces the whole knob set: the first leaves
		// NumCGCs at 0 and the last sets MaxMoves to -2, so both are 400s.
		`{"benchmark": "ofdm", "options": {"AFPGA": 1500, "SimFrames": 8, "Objective": 1}}`,
		`{"benchmark": "ofdm", "options": {"AFPGA": 1500, "NumCGCs": 2, "CGCRows": 2, "CGCCols": 2, "MemPorts": 2, "ClockRatio": 3, "Constraint": 60000}}`,
		`{"benchmark": "ofdm", "options": {"AFPGA": 1500, "NumCGCs": 2, "CGCRows": 2, "CGCCols": 2, "MemPorts": 2, "ClockRatio": 3, "Constraint": 60000, "MaxMoves": -2}}`,
		`{"benchmark": "ofdm", "options": {}, "preset": "dsp-rich"}`,
		`{"benchmark": "ofdm", "energy_budget": 1e9}`,
		`{"benchmark": "jpeg", "seed": 4294967295, "energy_budget": 0.3}`,
		`{"benchmark": "ofdm", "frames": 1025}`,
		`{"benchmark": "nope", "unknown": true}`,
		// Data after the body's one value.
		`{"benchmark":"ofdm","seed":1,"constraint":60000} trailing garbage`,
		`{"benchmark":"ofdm","seed":1,"constraint":60000}{"benchmark":"ofdm","seed":1,"constraint":60000}`,
		// Input lists at the edges of Int32List.
		`{"source": "int A[2]; int main_fn() { return A[0]; }", "inputs": {"A": [null, -0, 2147483647, -2147483648], "B": null, "C": []}}`,
		`{"source": "int main_fn() { return 0; }", "inputs": {"A": [1.0]}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req PartitionRequest
		if decodeWire(body, &req) != nil {
			return
		}
		keys := wireKeys(t, req)
		again, err := json.Marshal(&req)
		if err != nil {
			t.Fatalf("decoded %q but cannot re-encode it: %v", body, err)
		}
		var back PartitionRequest
		if e := decodeWire(again, &back); e != nil {
			t.Fatalf("re-encoded %q does not decode: %s", again, e.msg)
		}
		if got := wireKeys(t, back); got != keys {
			t.Fatalf("cache keys changed across a JSON round trip:\n%s -> %v\n%s -> %v", body, keys, again, got)
		}
	})
}

// FuzzInt32List checks Int32List against encoding/json's reflective decoder
// of a []int32: on every valid JSON input the two agree on acceptance and,
// when they accept, on the values, a nil list included. The list is decoded
// both through json.Unmarshal and by a direct UnmarshalJSON call on the raw
// input, surrounding whitespace and all.
func FuzzInt32List(f *testing.F) {
	for _, s := range []string{
		`[]`, `null`, `[null]`, `[-0]`, "[ 1 ,\n2 ]",
		`[2147483647]`, `[2147483648]`, `[-2147483648]`, `[-2147483649]`,
		`[1.0]`, `[1e2]`, `["1"]`, `[[1]]`, `{}`, `true`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !json.Valid(data) {
			return
		}
		var want []int32
		wantErr := json.Unmarshal(data, &want)
		var viaJSON, direct Int32List
		for _, got := range []struct {
			how string
			err error
			l   *Int32List
		}{
			{"json.Unmarshal", json.Unmarshal(data, &viaJSON), &viaJSON},
			{"UnmarshalJSON", direct.UnmarshalJSON(data), &direct},
		} {
			if (got.err == nil) != (wantErr == nil) {
				t.Fatalf("%q: %s error %v, encoding/json error %v", data, got.how, got.err, wantErr)
			}
			if got.err == nil && !reflect.DeepEqual([]int32(*got.l), want) {
				t.Fatalf("%q: %s gives %#v, encoding/json %#v", data, got.how, []int32(*got.l), want)
			}
		}
	})
}

// FuzzAppendInts checks appendInts against fmt.Sprint of the same []int32,
// read as little-endian 4-byte values: once into a plain buffer, and once
// hashed in chunks after a prefix, with the list repeated until it spans
// several chunks, against the hash of fmt's text.
func FuzzAppendInts(f *testing.F) {
	for _, vs := range [][]int32{nil, {0}, {1, -1}, {math.MaxInt32}, {math.MinInt32}, {0, 1, -1, math.MaxInt32, math.MinInt32, 99, 100, -100}} {
		f.Add(int32Bytes(vs))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		vs := make([]int32, len(data)/4)
		for i := range vs {
			vs[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
		}
		if got, want := string(appendInts(nil, nil, vs)), fmt.Sprint(vs); got != want {
			t.Fatalf("appendInts(%v) = %q, want %q", vs, got, want)
		}
		long := vs
		for len(long) > 0 && len(long) < 3*intsChunk/4 {
			long = append(long, vs...)
		}
		h := sha256.New()
		h.Write(appendInts(h, []byte("x="), long))
		if want := sha256.Sum256([]byte("x=" + fmt.Sprint(long))); !bytes.Equal(h.Sum(nil), want[:]) {
			t.Fatalf("chunked appendInts of %d values hashes unlike fmt.Sprint", len(long))
		}
	})
}

// int32Bytes encodes vs as FuzzAppendInts reads its input.
func int32Bytes(vs []int32) []byte {
	b := make([]byte, 0, 4*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}
