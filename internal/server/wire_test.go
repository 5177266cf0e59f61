package server

import (
	"bytes"
	"net/http"
	"os"
	"testing"
)

// TestReportWireGolden pins the response bytes of /v1/partition,
// /v1/simulate and /v1/partition-energy to testdata/, byte for byte: OFDM
// partitioned under the service default (sim), under the model objective
// without and with a frame count, and an inline source with args and
// inputs; OFDM simulated at the model's operating point and at four
// prefetched frames on two regions; and the OFDM energy run at a budget it
// meets and at one it cannot reach. The bodies are what the cache stores
// and store.Disk persists, so a change to the result types must leave them
// unmoved. Regenerate a file only for a change meant to move the results'
// numbers or schema.
func TestReportWireGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	s := newTestServer(t, Config{})
	for _, c := range []struct{ path, body, golden string }{
		{"/v1/partition", `{"benchmark":"ofdm","seed":1,"constraint":60000}`,
			"testdata/partition_ofdm.json"},
		{"/v1/partition", `{"benchmark":"ofdm","seed":1,"constraint":60000,"objective":"model"}`,
			"testdata/partition_ofdm_model.json"},
		{"/v1/partition", `{"benchmark":"ofdm","seed":1,"constraint":60000,"objective":"model","frames":8}`,
			"testdata/partition_ofdm_model_f8.json"},
		{"/v1/partition", goldenSourceBody, "testdata/partition_source.json"},
		{"/v1/simulate", `{"benchmark":"ofdm","seed":1,"constraint":60000}`,
			"testdata/simulate_ofdm.json"},
		{"/v1/simulate", `{"benchmark":"ofdm","seed":1,"constraint":60000,"frames":4,"prefetch":true,"regions":2}`,
			"testdata/simulate_ofdm_f4_prefetch_r2.json"},
		{"/v1/partition-energy", `{"benchmark":"ofdm","seed":1,"energy_budget":1.2e7}`,
			"testdata/energy_ofdm_met.json"},
		{"/v1/partition-energy", `{"benchmark":"ofdm","seed":1,"energy_budget":1000}`,
			"testdata/energy_ofdm_unmet.json"},
	} {
		rec := post(t, s, c.path, c.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", c.path, c.body, rec.Code, rec.Body)
		}
		want, err := os.ReadFile(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s %s diverges from %s:\n--- got ---\n%s--- want ---\n%s", c.path, c.body, c.golden, rec.Body, want)
		}
	}
}

// goldenSourceBody is an inline-source /v1/partition request with scalar
// args and preloaded input arrays: an 8-tap filter of X by T shifted right
// by shift, then a product sum over the filtered samples.
const goldenSourceBody = `{"source": "int T[8]; int X[48]; int Y[48];\nint main_fn(int n, int shift) {\n  int i; int s = 0;\n  for (i = 8; i < n; i++) {\n    int a = T[0] * X[i] + T[1] * X[i - 1] + T[2] * X[i - 2] + T[3] * X[i - 3] + T[4] * X[i - 4] + T[5] * X[i - 5] + T[6] * X[i - 6] + T[7] * X[i - 7];\n    Y[i] = a >> shift;\n  }\n  for (i = 8; i < n; i++) { s += Y[i] * Y[i] * 3 + Y[i - 1] * Y[i] * 5 + Y[i - 2] * Y[i] * 7; }\n  return s;\n}\n",
	"args": [48, 4],
	"inputs": {"T": [1, 3, 5, 7, 7, 5, 3, 1], "X": [5, 18, 31, 44, 57, 70, 83, 96, 109, 122, 7, 20, 33, 46, 59, 72, 85, 98, 111, 124, 9, 22, 35, 48, 61, 74, 87, 100, 113, 126, 11, 24, 37, 50, 63, 76, 89, 102, 115, 0, 13, 26, 39, 52, 65, 78, 91, 104]},
	"constraint": 3000}`

// TestFingerprintPinned pins the cache key of fixed requests on every
// endpoint that accepts them. The keys address both the in-memory cache and
// store.Disk entries, so a change to how a request is hashed must not move
// them; the expected values were produced by the fmt-based encoder that
// preceded the strconv one.
func TestFingerprintPinned(t *testing.T) {
	cases := []struct {
		name string
		body string
		want [3]string // partition, energy, simulate ("" = rejected)
	}{
		{
			name: "source",
			body: `{"source": "int A[4]; int B[8]; int main_fn(int a, int b) { return A[0] + B[1] + a + b; }",
				"args": [3, -7],
				"inputs": {"B": [0, -1, 2147483647, -2147483648, 12, 0, 9], "A": [5]},
				"constraint": 9000}`,
			want: [3]string{
				"68445a44d7456a0f7a259e07c3a9cc9e0949de986e95ab9fea1d6f570e748d72",
				"",
				"c2a8f978cfb0ef723144ee55bff003ef72097ecace47b541a166986a21c795e7",
			},
		},
		{
			name: "source-energy",
			body: `{"source": "int A[4]; int main_fn() { return A[0]; }", "inputs": {"A": []}, "energy_budget": 0.125}`,
			want: [3]string{"", "12f6b797a0e55e639e24984ee464f1fa0ffa09b8ac0c5774fa8e937d4fb88864", ""},
		},
		{
			name: "benchmark",
			body: `{"benchmark": "jpeg", "seed": 2, "constraint": 21000000}`,
			want: [3]string{
				"21a2332d49da44ce975e0ca1520a557880a4154152136afa89b251b981885536",
				"",
				"f11aaf69795399f62c7448e6e262f3fdb910744ddf51e60623a5458077afaca2",
			},
		},
		{
			name: "benchmark-energy",
			body: `{"benchmark": "ofdm", "seed": 1, "energy_budget": 1.5e+21}`,
			want: [3]string{"", "d5d9ea5a592e63c942534505a47547157e9778fdb108ed7c80823eb179c0fcaf", ""},
		},
	}
	for _, c := range cases {
		var req PartitionRequest
		if err := decodeWire([]byte(c.body), &req); err != nil {
			t.Fatalf("%s: decode: %v", c.name, err.msg)
		}
		if got := wireKeys(t, req); got != c.want {
			t.Errorf("%s: keys\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}
