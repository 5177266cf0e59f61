package server

import "testing"

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
