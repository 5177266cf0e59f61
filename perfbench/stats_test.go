package main

import (
	"errors"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct {
		p    int
		want float64
	}{{50, 50}, {90, 90}, {1, 1}} {
		got, err := percentile(xs, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%d of 1..100 = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n, p int
		ok   bool
	}{
		{100, 90, true}, // 10 beyond p90
		{99, 90, false}, // 9 beyond
		{20, 50, true},
		{19, 50, false},
		{0, 50, false},
	} {
		_, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("p%d of %d samples: err = %v, want ok=%v", c.p, c.n, err, c.ok)
		}
	}
	if _, err := percentile(seq(1000), 100); err == nil {
		t.Error("p100 accepted")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
}

func TestTallyAccounting(t *testing.T) {
	var tl tally
	if tl.failedRatio() != 0 {
		t.Error("empty tally has a failure ratio")
	}
	tl.record(3*time.Millisecond, nil)
	tl.record(time.Millisecond, nil)
	tl.record(50*time.Millisecond, errors.New("mismatch"))
	tl.record(2*time.Millisecond, nil)
	if tl.attempted != 4 || tl.failed != 1 || tl.nOps() != 3 {
		t.Fatalf("attempted/failed/nOps = %d/%d/%d, want 4/1/3", tl.attempted, tl.failed, tl.nOps())
	}
	if got := tl.failedRatio(); got != 0.25 {
		t.Errorf("failedRatio = %v, want 0.25", got)
	}
	lat := tl.latencies()
	if len(lat) != 3 || lat[0] != 1 || lat[1] != 2 || lat[2] != 3 {
		t.Errorf("latencies = %v, want [1 2 3] (failed op excluded)", lat)
	}
}

var sink []*[64]byte

func TestAllocCounterCountsWindowOnly(t *testing.T) {
	const outside, inside = 20000, 1000
	for i := 0; i < outside; i++ {
		sink = append(sink, new([64]byte))
	}
	var ac allocCounter
	ac.start()
	sink = make([]*[64]byte, 0, inside)
	for i := 0; i < inside; i++ {
		sink = append(sink, new([64]byte))
	}
	got := ac.stop()
	if got < inside || got > inside+500 {
		t.Errorf("window counted %d allocations, want %d (+ a little runtime noise)", got, inside)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []span{
		{Name: "probe.ofdm", Start: 0, End: 10 * ms, Parent: -1},
		{Name: "sim.NewReplayer", Start: 1 * ms, End: 3 * ms, Parent: 0},
		{Name: "sim.Makespan", Start: 3 * ms, End: 7 * ms, Parent: 0},
		{Name: "engine.Partition", Start: 20 * ms, End: 25 * ms, Parent: -1},
	}}
	got := tr.selfTimes()
	want := map[string]time.Duration{"probe": 4 * ms, "sim": 6 * ms, "engine": 5 * ms}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, got[k], v)
		}
	}
	if d := tr.durations("sim.Makespan", ""); len(d) != 1 || d[0] != 4*ms {
		t.Errorf("durations = %v", d)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x.y", -1)
	tr.end(id, "a")
	if id != -1 {
		t.Errorf("nil tracer returned span id %d", id)
	}
}

func TestLRUMirror(t *testing.T) {
	l := newLRUMirror(2)
	steps := []struct {
		k   int
		hit bool
	}{{1, false}, {2, false}, {1, true}, {3, false}, {2, false}, {1, false}, {2, true}}
	for i, s := range steps {
		if got := l.touch(s.k); got != s.hit {
			t.Errorf("step %d key %d: hit=%v, want %v", i, s.k, got, s.hit)
		}
	}
}

func TestSubSeed(t *testing.T) {
	seen := map[uint32]bool{}
	for i := 0; i < 1000; i++ {
		s := subSeed(7, streamJPEGImage, i)
		if s == 0 || seen[s] {
			t.Fatalf("op %d: seed %d is zero or repeated", i, s)
		}
		seen[s] = true
	}
	if subSeed(7, streamJPEGImage, 3) != subSeed(7, streamJPEGImage, 3) {
		t.Error("subSeed is not deterministic")
	}
	if subSeed(7, streamJPEGImage, 3) == subSeed(8, streamJPEGImage, 3) ||
		subSeed(7, streamJPEGImage, 3) == subSeed(7, streamZipf, 3) {
		t.Error("seed or stream does not change the draw")
	}
}

func TestCalibrationScale(t *testing.T) {
	if got := (&calibration{}).scale(); got != 1 {
		t.Errorf("scale with no samples = %v, want 1", got)
	}
	c := &calibration{ns: []float64{4 * calibRefNS, 2 * calibRefNS, 2 * calibRefNS}}
	if got := c.scale(); got != 0.5 {
		t.Errorf("scale on a host at half the reference speed = %v, want 0.5", got)
	}
}
