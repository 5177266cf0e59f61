// Package sim is a deterministic discrete-event co-simulator of the hybrid
// platform of Figure 1: it replays the profiled CDFG trace of an application
// against a computed partitioning, modeling the sequencer dispatching each
// kernel invocation to its assigned fabric — fine-grain blocks with temporal
// partition swaps (optionally prefetched during data-path windows),
// coarse-grain kernels from their list schedules, shared-memory transfer
// slots with a configurable port count, and the two-stage frame pipeline —
// and reports the simulated makespan, per-fabric utilization and a
// per-kernel timeline. Where the analytical model of internal/partition sums
// closed-form terms (eq. 2), the simulator executes the trace event by
// event, which is what lets it check the model's assumptions (mutually
// exclusive fabrics, full reconfiguration per crossing, uncontended
// transfers) instead of restating them.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"hybridpart/internal/finegrain"
	"hybridpart/internal/ir"
)

// A Token is one run of the loop-compressed canonical trace: Body played
// Reps times back to back. The trace is the concatenation of its tokens.
type Token struct {
	Body []ir.BlockID
	Reps uint64
}

// rem is one outgoing edge of the trace multigraph with its remaining
// traversal count.
type rem struct {
	to ir.BlockID
	n  uint64
}

// frame is one entry of the compressed Hierholzer stack: a single block
// (body == nil) or a folded cycle played reps times.
type frame struct {
	v    ir.BlockID
	out  int32 // succ[v] index of the edge the walk left v by
	prev int32 // stack index of v's previous single-block frame, or -1
	toks int32 // token frames at or below this index

	body []ir.BlockID
	outs []int32 // succ index of the edge leaving each body position
	reps uint64
}

// BuildTrace reconstructs a canonical basic-block execution trace from the
// dynamic-analysis profile: per-block execution counts plus taken-edge
// counts. The profiled edges form an Eulerian trail (one per profiled run)
// over the control-flow multigraph, and a Hierholzer walk with
// smallest-successor-first edge selection rebuilds a trail deterministically.
// Any such trail visits every block exactly its profiled count and contains
// exactly the profiled multiset of consecutive transitions — the two
// properties the simulator's accounting depends on — so the reconstruction
// is equivalent to the recorded execution order for every order-insensitive
// quantity and canonical (input-independent) for the rest.
//
// The trace comes back loop-compressed, as (body, reps) tokens, and the walk
// never visits it block by block. Its stack holds tokens as well as single
// blocks: when the walk re-enters a block whose previous occurrence on the
// stack has only single blocks above it, that segment is a cycle the
// smallest-successor rule will keep following while its edges last, so its
// k = min(remaining/multiplicity) further repetitions fold into one token at
// once. A segment holding a token never folds (the token left one of its
// edges short of another repetition). Popping a token splits only its top
// repetition, at the highest block that still has out-edges; the
// repetitions below pop whole. The expansion equals the flat walk's trail
// element for element.
//
// Profiles accumulated over several runs are replayed back to back: the
// walk returns to the entry block once per run. The number of runs folded
// into the trace is returned alongside it.
func BuildTrace(f *ir.Function, freq []uint64, edges []finegrain.EdgeFreq) (trace []Token, runs int, err error) {
	n := len(f.Blocks)
	overflow := fmt.Errorf("sim: profile counts overflow")
	var total, carry uint64
	for id, c := range freq {
		if id >= n && c > 0 {
			return nil, 0, fmt.Errorf("sim: profile counts block %d of a %d-block function", id, n)
		}
		if total, carry = bits.Add64(total, c, 0); carry != 0 {
			return nil, 0, overflow
		}
	}
	if total == 0 {
		return nil, 0, nil
	}
	if total > math.MaxInt {
		return nil, 0, overflow
	}
	if len(freq) < n {
		grown := make([]uint64, n)
		copy(grown, freq)
		freq = grown
	}

	// Every block's successor list is carved from one array, with room for
	// the virtual edge added below.
	degree := make([]int, n)
	for _, e := range edges {
		if e.N == 0 {
			continue
		}
		if e.From < 0 || e.To < 0 || int(e.From) >= n || int(e.To) >= n {
			return nil, 0, fmt.Errorf("sim: profiled edge %d->%d outside the function", e.From, e.To)
		}
		degree[e.From]++
	}
	succ := make([][]rem, n)
	all := make([]rem, len(edges)+n)
	for id, off := 0, 0; id < n; id++ {
		succ[id] = all[off : off : off+degree[id]+1]
		off += degree[id] + 1
	}
	in := make([]uint64, n)
	out := make([]uint64, n)
	var edgeTotal uint64
	for _, e := range edges {
		if e.N == 0 {
			continue
		}
		succ[e.From] = append(succ[e.From], rem{to: e.To, n: e.N})
		var c1, c2, c3 uint64
		out[e.From], c1 = bits.Add64(out[e.From], e.N, 0)
		in[e.To], c2 = bits.Add64(in[e.To], e.N, 0)
		edgeTotal, c3 = bits.Add64(edgeTotal, e.N, 0)
		if c1|c2|c3 != 0 {
			return nil, 0, overflow
		}
	}

	// Each profiled run starts at the entry block and ends at some return
	// block, so runs = entry visits not explained by incoming edges. Virtual
	// back-edges from the surplus end blocks to the entry stitch the runs
	// into one Eulerian trail; the end block with the highest ID keeps its
	// surplus so the stitched trail terminates there deterministically.
	entry := f.Entry
	if freq[entry] < in[entry] {
		return nil, 0, fmt.Errorf("sim: block %d enters more often than it executes", entry)
	}
	if freq[entry]-in[entry] > math.MaxInt32 {
		return nil, 0, fmt.Errorf("sim: profile has %d runs", freq[entry]-in[entry])
	}
	runs = int(freq[entry] - in[entry])
	if runs == 0 {
		return nil, 0, fmt.Errorf("sim: profile has no run starting at the entry block")
	}
	last := -1
	for id := n - 1; id >= 0; id-- {
		if freq[id] > out[id] {
			last = id
			break
		}
	}
	for id := 0; id < n; id++ {
		if out[id] > freq[id] {
			return nil, 0, fmt.Errorf("sim: block %d exits more often than it executes", id)
		}
	}
	// From here every sum is at most 2·total: no more overflow checks.
	for id := 0; id < n; id++ {
		ends := freq[id] - out[id]
		if id == last {
			ends-- // the trail's final stop keeps its surplus
		}
		if ends > 0 {
			succ[id] = append(succ[id], rem{to: entry, n: ends})
			in[entry] += ends
			edgeTotal += ends
		}
	}
	// A trail from the entry block to last enters every block as often as it
	// executes it, except that the entry block's first visit is the trail's
	// start. Checking this up front keeps corrupted counts from steering the
	// walk through an astronomically long dead end.
	for id := 0; id < n; id++ {
		want := freq[id]
		if ir.BlockID(id) == entry {
			want--
		}
		if in[id] != want {
			return nil, 0, fmt.Errorf("sim: profile is not replayable: block %d entered %d times, executed %d", id, in[id], freq[id])
		}
	}
	// Smallest successor first; a virtual edge to the entry block merges
	// into a real one (the walk would drain them back to back anyway), so
	// every (from, to) pair is one edge the folding rule can count.
	for id := range succ {
		s := succ[id]
		slices.SortFunc(s, func(a, b rem) int { return cmp.Compare(a.to, b.to) })
		merged := s[:0]
		for _, e := range s {
			if k := len(merged) - 1; k >= 0 && merged[k].to == e.to {
				merged[k].n += e.n
				continue
			}
			merged = append(merged, e)
		}
		succ[id] = merged
	}

	trace = hierholzer(succ, entry)

	// A consistent profile is fully consumed: the trail covers every edge
	// and visits every block exactly its profiled count.
	seen := make([]uint64, n)
	var length uint64
	for _, t := range trace {
		for _, b := range t.Body {
			seen[b] += t.Reps
		}
		length += uint64(len(t.Body)) * t.Reps
	}
	if length != total || length != edgeTotal+1 {
		return nil, 0, fmt.Errorf("sim: profile is not replayable: %d of %d block executions reconstructed", length, total)
	}
	for id := range seen {
		if seen[id] != freq[id] {
			return nil, 0, fmt.Errorf("sim: profile is not replayable: block %d reconstructed %d times, profiled %d", id, seen[id], freq[id])
		}
	}
	return trace, runs, nil
}

// hierholzer runs the compressed Hierholzer walk from entry over the
// remaining edge counts in succ (consumed) and returns the trail as tokens.
func hierholzer(succ [][]rem, entry ir.BlockID) []Token {
	n := len(succ)
	next := make([]int, n)
	lastPos := make([]int32, n) // top single-block frame of each block, or -1
	for i := range lastPos {
		lastPos[i] = -1
	}
	hasOut := func(v ir.BlockID) bool {
		sv := succ[v]
		for next[v] < len(sv) && sv[next[v]].n == 0 {
			next[v]++
		}
		return next[v] < len(sv)
	}

	var stack []frame
	push := func(f frame) {
		f.toks = 0
		if k := len(stack) - 1; k >= 0 {
			f.toks = stack[k].toks
		}
		if f.body != nil {
			f.toks++
		} else {
			f.prev = lastPos[f.v]
			lastPos[f.v] = int32(len(stack))
		}
		stack = append(stack, f)
	}
	pop := func() {
		f := &stack[len(stack)-1]
		if f.body == nil {
			lastPos[f.v] = f.prev
		}
		stack = stack[:len(stack)-1]
	}

	// fold turns the single-block cycle stack[p:] (closed by the edge the
	// top frame just took back to stack[p].v) into a token when its edges
	// last for at least one more repetition.
	mult := make([]uint64, n) // per-segment scratch, zero between folds
	segOut := make([]int32, n)
	fold := func(p int) {
		seg := stack[p:]
		k := uint64(math.MaxUint64)
		for i := range seg {
			v := seg[i].v
			if mult[v] == 0 {
				segOut[v] = seg[i].out
			} else if segOut[v] != seg[i].out {
				k = 0 // a block that left by two edges had exhausted the first
			}
			mult[v]++
		}
		for i := 0; i < len(seg) && k > 0; i++ {
			k = min(k, succ[seg[i].v][seg[i].out].n/mult[seg[i].v])
		}
		for i := range seg {
			v := seg[i].v
			if k > 0 && mult[v] > 0 {
				succ[v][seg[i].out].n -= k * mult[v]
			}
			mult[v] = 0
		}
		if k == 0 {
			return
		}
		tok := frame{body: make([]ir.BlockID, len(seg)), outs: make([]int32, len(seg)), reps: k + 1}
		for i := range seg {
			tok.body[i], tok.outs[i] = seg[i].v, seg[i].out
		}
		for len(stack) > p {
			pop()
		}
		push(tok)
	}

	// popped collects the trail in pop order, i.e. reversed; raw holds the
	// pending run of popped single blocks, also reversed.
	type run struct {
		Token
		raw bool
	}
	var popped []run
	var raw []ir.BlockID
	flush := func() {
		if len(raw) > 0 {
			popped = append(popped, run{Token{Body: raw, Reps: 1}, true})
			raw = nil
		}
	}

	push(frame{v: entry})
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.body == nil {
			v := top.v
			if !hasOut(v) {
				raw = append(raw, v)
				pop()
				continue
			}
			e := next[v]
			succ[v][e].n--
			top.out = int32(e)
			w := succ[v][e].to
			if p := lastPos[w]; p >= 0 && stack[p].toks == top.toks {
				fold(int(p)) // no token between: a cycle of single blocks
			}
			push(frame{v: w})
			continue
		}
		// A token on top: its top repetition pops down to the highest block
		// that can still leave, which then resumes the walk as a single.
		body, outs := top.body, top.outs
		j := len(body) - 1
		for j >= 0 && !hasOut(body[j]) {
			j--
		}
		if j < 0 {
			flush()
			popped = append(popped, run{Token{Body: body, Reps: top.reps}, false})
			pop()
			continue
		}
		for i := len(body) - 1; i > j; i-- {
			raw = append(raw, body[i])
		}
		if top.reps--; top.reps == 0 {
			pop()
		}
		for i := 0; i <= j; i++ {
			push(frame{v: body[i], out: outs[i]})
		}
	}
	flush()

	// Reverse into replay order, copying every body into one backing array
	// (raw runs were collected backwards).
	size := 0
	for _, t := range popped {
		size += len(t.Body)
	}
	ids := make([]ir.BlockID, 0, size)
	trace := make([]Token, 0, len(popped))
	for i := len(popped) - 1; i >= 0; i-- {
		t := popped[i]
		start := len(ids)
		ids = append(ids, t.Body...)
		body := ids[start:len(ids):len(ids)]
		if t.raw {
			slices.Reverse(body)
		}
		trace = append(trace, Token{Body: body, Reps: t.Reps})
	}
	return trace
}
