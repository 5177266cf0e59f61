package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minTail is how many samples must lie strictly beyond a reported
// percentile. With fewer, the percentile is one or two outliers wide and is
// refused rather than reported.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples, which must be sorted ascending. It refuses when fewer than
// minTail samples lie beyond the selected rank.
func percentile(sorted []float64, p int) (float64, error) {
	n := len(sorted)
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %d outside (0,100)", p)
	}
	if n == 0 {
		return 0, fmt.Errorf("p%d of no samples", p)
	}
	rank := (p*n + 99) / 100 // ceil(p·n/100), 1-based
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%d of %d samples has only %d beyond it (need %d)", p, n, beyond, minTail)
	}
	return sorted[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tally accounts the ops of one timed window: every attempt, every
// failure, and the latency of every op that succeeded.
type tally struct {
	attempted int
	failed    int
	latMS     []float64
}

// record accounts one op. A failed op is counted but contributes no
// latency sample.
func (t *tally) record(lat time.Duration, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		return
	}
	t.latMS = append(t.latMS, float64(lat)/float64(time.Millisecond))
}

// nOps is the number of ops that completed successfully.
func (t *tally) nOps() int { return t.attempted - t.failed }

// failedRatio is failed ops over attempted ops (0 with no attempts).
func (t *tally) failedRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// latencies returns the successful ops' latencies in ms, sorted ascending.
func (t *tally) latencies() []float64 {
	s := append([]float64(nil), t.latMS...)
	sort.Float64s(s)
	return s
}

// allocCounter counts heap objects allocated between start and stop, from
// the runtime's cumulative allocation counter. ReadMemStats stops the world
// briefly, so it is read only at the two edges of a timed window.
type allocCounter struct{ base uint64 }

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (a *allocCounter) start()       { a.base = mallocs() }
func (a *allocCounter) stop() uint64 { return mallocs() - a.base }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
