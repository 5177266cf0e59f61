package main

import (
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on shared hosts whose effective CPU speed drifts by a
// third or more over minutes, as neighbours come and go; that drift swamps
// the differences the benchmark exists to detect. Each run therefore also
// times a fixed calibration kernel, in short bursts between the slices of
// its timed window, and reports its timings scaled to a reference speed:
//
//	reported time = measured time × calibRefNS / calibration median
//
// (rates scale the other way). The kernel lives in this file so no change
// to the repository can move it. It mixes the kinds of work the workloads
// do: switch dispatch over a bytecode loop, random reads over a table
// larger than a core's caches, small heap allocations with pointer chasing,
// and map traffic.

// calibRefNS is the kernel's median time on the reference host, a 2-vCPU
// 2.1 GHz VM: the speed every reported time is scaled to.
const calibRefNS = 1.7e6

// calibBurst is how many kernel calls one calibration burst makes.
const calibBurst = 5

var calibSink int

// calibTable is the kernel's 4 MiB random-read working set, larger than a
// core's private caches. It is mapped outside the Go heap: on the heap it
// would raise the collector's heap goal and make peak_rss_mb vary with GC
// timing.
var calibTable = func() []int32 {
	const n = 1 << 20
	b, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("perfbench: mapping the calibration table: " + err.Error())
	}
	t := unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
	for i := range t {
		t[i] = int32(i*2654435761) >> 7
	}
	return t
}()

type calNode struct {
	v    int
	next *calNode
}

func calibKernel() int {
	code := [8]byte{0, 1, 2, 3, 1, 0, 2, 3}
	var regs [8]int32
	acc := int32(1)
	for i := 0; i < 100000; i++ {
		switch code[i&7] {
		case 0:
			acc = acc*1103515245 + 12345
		case 1:
			regs[i&7] += acc >> 7
		case 2:
			acc ^= regs[(i>>3)&7]
		case 3:
			if acc < 0 {
				acc = -acc
			}
		}
	}
	x := uint32(acc) | 1
	var s int32
	for i := 0; i < 60000; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		s += calibTable[x&(1<<20-1)]
	}
	var head *calNode
	for i := 0; i < 8192; i++ {
		head = &calNode{v: i, next: head}
	}
	sum := 0
	for n := head; n != nil; n = n.next {
		sum += n.v
	}
	m := make(map[int]int, 1024)
	for i := 0; i < 4096; i++ {
		m[i*7919%4093] += i
	}
	return int(acc) + int(s) + sum + len(m) + int(regs[3])
}

// calibration collects kernel timings over a run.
type calibration struct{ ns []float64 }

// sample runs one burst of the kernel and records each call's time.
func (c *calibration) sample() {
	for i := 0; i < calibBurst; i++ {
		t0 := time.Now()
		calibSink += calibKernel()
		c.ns = append(c.ns, float64(time.Since(t0).Nanoseconds()))
	}
}

// scale is the factor that maps this run's measured times to the
// reference speed: below 1 on a host slower than the reference.
func (c *calibration) scale() float64 {
	if len(c.ns) == 0 {
		return 1
	}
	s := append([]float64(nil), c.ns...)
	sort.Float64s(s)
	return calibRefNS / s[len(s)/2]
}
