package obs

import (
	"strings"
	"testing"
)

// FuzzParseTraceparent drives the W3C traceparent parser — the one header
// every replica accepts from outside — with arbitrary input. Invariants:
// ParseTraceparent never panics, and whenever it accepts a header the
// context it returns renders back (Traceparent) to a header that re-parses
// to the same SpanContext.
func FuzzParseTraceparent(f *testing.F) {
	tid, sid := "4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7"
	seeds := []string{
		"00-" + tid + "-" + sid + "-01",                     // valid
		"00-" + tid + "-" + sid + "-00",                     // valid, not sampled
		"01-" + tid + "-" + sid + "-01-extra",               // future version, extra field
		"00-" + strings.ToUpper(tid) + "-" + sid + "-01",    // uppercase trace id
		"00-" + tid + "-" + strings.ToUpper(sid) + "-01",    // uppercase span id
		"ff-" + tid + "-" + sid + "-01",                     // forbidden version
		"00-" + strings.Repeat("0", 32) + "-" + sid + "-01", // zero trace id
		"00-" + tid + "-" + strings.Repeat("0", 16) + "-01", // zero span id
		"00-" + tid[:31] + "-" + sid + "-01",                // short trace id
		"00-" + tid + "-" + sid[:15] + "-01",                // short span id
		"00-" + tid + "-" + sid + "-0",                      // short flags
		"00-" + tid + "-" + sid,                             // missing flags
		"",
		"-",
		"0-" + tid + "-" + sid + "-01", // short version
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, h string) {
		sc, ok := ParseTraceparent(h)
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("rejected %q but returned non-zero context %+v", h, sc)
			}
			return
		}
		back, ok := ParseTraceparent(sc.Traceparent())
		if !ok || back != sc {
			t.Fatalf("accepted %q as %+v, but its rendering %q re-parses to %+v (ok=%v)",
				h, sc, sc.Traceparent(), back, ok)
		}
	})
}
