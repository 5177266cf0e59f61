package apps

import (
	"container/heap"
	"fmt"
	"sort"
)

// Code is one canonical Huffman code word.
type Code struct {
	Bits uint32 // left-aligned at the LSB: the low Len bits are the code
	Len  int
}

// huffNode is a node in the Huffman construction heap.
type huffNode struct {
	freq   uint64
	symbol int // -1 for internal nodes
	left   *huffNode
	right  *huffNode
	// tiebreak makes the construction deterministic across map iteration
	// orders: the smallest symbol in the subtree.
	tiebreak int
}

type huffHeap []*huffNode

func (h huffHeap) Len() int { return len(h) }
func (h huffHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].tiebreak < h[j].tiebreak
}
func (h huffHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *huffHeap) Push(x interface{}) { *h = append(*h, x.(*huffNode)) }
func (h *huffHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// BuildCanonical builds a length-limited canonical Huffman code over the
// given symbol frequencies (zero-frequency symbols receive no code). When
// the unconstrained Huffman tree exceeds maxLen, frequencies are repeatedly
// flattened (square-rooted) until the lengths fit — the same practical
// remedy JPEG's BITS-adjustment serves. The construction is deterministic.
func BuildCanonical(freqs map[int]uint64, maxLen int) (map[int]Code, error) {
	if maxLen < 1 {
		return nil, fmt.Errorf("apps: maxLen must be >= 1, got %d", maxLen)
	}
	working := make(map[int]uint64, len(freqs))
	for s, f := range freqs {
		if f > 0 {
			working[s] = f
		}
	}
	if len(working) == 0 {
		return map[int]Code{}, nil
	}
	if len(working) == 1 {
		for s := range working {
			return map[int]Code{s: {Bits: 0, Len: 1}}, nil
		}
	}
	if maxLen < ceilLog2(len(working)) {
		return nil, fmt.Errorf("apps: %d symbols cannot fit in %d-bit codes", len(working), maxLen)
	}

	for attempt := 0; ; attempt++ {
		lengths := huffmanLengths(working)
		over := 0
		for _, l := range lengths {
			if l > maxLen {
				over++
			}
		}
		if over == 0 {
			return assignCanonical(lengths), nil
		}
		if attempt > 64 {
			return nil, fmt.Errorf("apps: code lengths failed to converge under %d bits", maxLen)
		}
		// Flatten the distribution and retry.
		for s, f := range working {
			nf := isqrt(f)
			if nf == 0 {
				nf = 1
			}
			working[s] = nf
		}
	}
}

// huffmanLengths computes unconstrained Huffman code lengths.
func huffmanLengths(freqs map[int]uint64) map[int]int {
	h := &huffHeap{}
	for s, f := range freqs {
		heap.Push(h, &huffNode{freq: f, symbol: s, tiebreak: s})
	}
	heap.Init(h)
	for h.Len() > 1 {
		a := heap.Pop(h).(*huffNode)
		b := heap.Pop(h).(*huffNode)
		tb := a.tiebreak
		if b.tiebreak < tb {
			tb = b.tiebreak
		}
		heap.Push(h, &huffNode{freq: a.freq + b.freq, symbol: -1, left: a, right: b, tiebreak: tb})
	}
	root := heap.Pop(h).(*huffNode)
	lengths := map[int]int{}
	var walk func(n *huffNode, depth int)
	walk = func(n *huffNode, depth int) {
		if n.symbol >= 0 {
			if depth == 0 {
				depth = 1
			}
			lengths[n.symbol] = depth
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(root, 0)
	return lengths
}

// assignCanonical assigns canonical codes: symbols sorted by (length,
// symbol) receive consecutive code values.
func assignCanonical(lengths map[int]int) map[int]Code {
	type sl struct {
		sym, len int
	}
	items := make([]sl, 0, len(lengths))
	for s, l := range lengths {
		items = append(items, sl{s, l})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].len != items[j].len {
			return items[i].len < items[j].len
		}
		return items[i].sym < items[j].sym
	})
	out := make(map[int]Code, len(items))
	code := uint32(0)
	prevLen := 0
	for _, it := range items {
		if prevLen != 0 {
			code++
		}
		code <<= uint(it.len - prevLen)
		prevLen = it.len
		out[it.sym] = Code{Bits: code, Len: it.len}
	}
	return out
}

func ceilLog2(n int) int {
	k, v := 0, 1
	for v < n {
		v <<= 1
		k++
	}
	return k
}

func isqrt(v uint64) uint64 {
	if v == 0 {
		return 0
	}
	x := v
	y := (x + 1) / 2
	for y < x {
		x = y
		y = (x + v/x) / 2
	}
	return x
}
