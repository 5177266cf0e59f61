// Package finegrain implements the paper's mapping methodology for the
// fine-grain (embedded FPGA) part of the architecture: the temporal
// partitioning algorithm of Figure 3. DFG nodes are classified by their
// ASAP levels and assigned level by level to temporal partitions; when the
// usable area A_FPGA is exhausted, a new partition (a separate
// configuration bit-stream) is opened. PackedMapping applies the walk
// across the basic blocks of a whole CDFG and charges the reconfiguration
// time of the device on every partition load.
package finegrain

import (
	"fmt"

	"hybridpart/internal/ir"
	"hybridpart/internal/platform"
)

// PackedMapping is the fine-grain mapping of a whole CDFG with the Figure 3
// greedy applied across basic blocks: area accumulates block after block so
// that several blocks share one temporal partition (one configuration
// bit-stream). Loops whose blocks share a partition execute without any
// reconfiguration; the device reconfigures only when control transfers
// between blocks of different partitions. This is the model the
// partitioning engine uses to evaluate t_FPGA: per-execution level cycles
// (eq. 4) plus ReconfigCycles per profiled partition crossing.
//
// A PackedMapping is per-candidate state: Pack rewrites every field, so one
// value can be reused across candidate mappings without allocating. The
// tables it packs from (ir.BlockTables: DFGs, level order) are per-App and
// shared read-only by every packing of that application.
type PackedMapping struct {
	// Included reports whether a block was mapped (the engine excludes
	// blocks moved to the coarse-grain data-path).
	Included []bool
	// PerBlockCycles is the per-execution cycle cost of each included
	// block, without any reconfiguration.
	PerBlockCycles []int64
	// FirstPart and LastPart give the partition holding a block's first and
	// last DFG nodes (equal unless the block straddles a boundary); for
	// blocks without nodes both report the partition in effect at that
	// point in the packing order.
	FirstPart []int
	LastPart  []int
	// InternalCrossings counts the partition boundaries inside a block
	// (LastPart−FirstPart): every execution of a straddling block pays that
	// many reconfigurations.
	InternalCrossings []int
	// AreaAfter is the area of partition LastPart the walk has covered when
	// it leaves each block. With LastPart it is the walk's whole state at a
	// block boundary, which is what PackFrom resumes from.
	AreaAfter []int
	// NumPartitions is the number of configuration bit-streams generated.
	NumPartitions int
	// Regions is the number of independently reconfigurable regions the
	// partitions were packed for (always ≥ 1). Partition p resides in region
	// p % Regions; each partition fills one region's area, and partitions in
	// different regions coexist on the fabric.
	Regions int
}

// Region returns the reconfigurable region partition p resides in.
func (pm *PackedMapping) Region(p int) int { return p % pm.Regions }

// PackFunction maps every block of f accepted by include (nil = all) onto
// the fine-grain fabric with cross-block area packing. It builds f's block
// tables for this one call; callers packing many candidates of one
// application build the tables once and call Pack.
func PackFunction(f *ir.Function, fg platform.FineGrain, include func(ir.BlockID) bool) (*PackedMapping, error) {
	pm := new(PackedMapping)
	if err := pm.Pack(ir.BuildBlockTables(f), fg, include); err != nil {
		return nil, err
	}
	return pm, nil
}

// Pack overwrites pm with the packing of every block of t accepted by
// include (nil = all), reusing pm's slices: once they have grown to the
// block count, packing allocates nothing.
//
// Figure 3's walk visits each block's nodes level-major (t.Levels) and
// opens the next partition when the region's area is exhausted. A block's
// cost is the sum over its (partition, level) groups of the group's slowest
// operator; since partitions only grow along the walk, every group is one
// contiguous run and a running max per run yields the sum.
func (pm *PackedMapping) Pack(t *ir.BlockTables, fg platform.FineGrain, include func(ir.BlockID) bool) error {
	pm.reset(len(t.F.Blocks), fg)
	return pm.walk(t, fg, include, 0, 0, 0, false)
}

// PackFrom overwrites pm with the packing Pack(t, fg, include) computes,
// starting from prev: a packing of t on fg whose include agreed with this
// one on every block before from. Figure 3's walk visits blocks in order,
// so those blocks pack identically: PackFrom copies their entries from prev
// and resumes the walk at block from with the partition and covered area
// prev had reached there. The move loop packs each trajectory prefix from
// its predecessor this way, from the block the move took off the FPGA.
// pm and prev must be distinct.
func (pm *PackedMapping) PackFrom(prev *PackedMapping, from ir.BlockID, t *ir.BlockTables, fg platform.FineGrain, include func(ir.BlockID) bool) error {
	n, k := len(t.F.Blocks), int(from)
	if pm == prev || len(prev.Included) != n || prev.Regions != fg.NumRegions() || k < 0 || k > n {
		return fmt.Errorf("finegrain: cannot resume a packing of %d blocks (%d regions) at block %d", len(prev.Included), prev.Regions, from)
	}
	pm.reset(n, fg)
	copy(pm.Included, prev.Included[:k])
	copy(pm.PerBlockCycles, prev.PerBlockCycles[:k])
	copy(pm.FirstPart, prev.FirstPart[:k])
	copy(pm.LastPart, prev.LastPart[:k])
	copy(pm.InternalCrossings, prev.InternalCrossings[:k])
	copy(pm.AreaAfter, prev.AreaAfter[:k])
	part, area, usedAny := 0, 0, false
	if k > 0 {
		part, area = prev.LastPart[k-1], prev.AreaAfter[k-1]
		for j := k - 1; j >= 0 && !usedAny; j-- {
			usedAny = prev.Included[j] && len(t.Levels[j]) > 0
		}
	}
	return pm.walk(t, fg, include, k, part, area, usedAny)
}

// reset sizes pm's slices for n blocks packed on fg.
func (pm *PackedMapping) reset(n int, fg platform.FineGrain) {
	pm.Included = resize(pm.Included, n)
	pm.PerBlockCycles = resize(pm.PerBlockCycles, n)
	pm.FirstPart = resize(pm.FirstPart, n)
	pm.LastPart = resize(pm.LastPart, n)
	pm.InternalCrossings = resize(pm.InternalCrossings, n)
	pm.AreaAfter = resize(pm.AreaAfter, n)
	pm.NumPartitions = 0
	pm.Regions = fg.NumRegions()
}

// walk runs Figure 3's walk over blocks from..n−1, entering block from in
// partition part with area covered and usedAny telling whether an earlier
// block put a node on the fabric, and writes those blocks' entries and
// NumPartitions.
func (pm *PackedMapping) walk(t *ir.BlockTables, fg platform.FineGrain, include func(ir.BlockID) bool,
	from, part, areaCovered int, usedAny bool) error {
	// Each temporal partition fills one reconfigurable region; with one
	// region this is the whole fabric and packing is the paper's Figure 3.
	limit := fg.RegionArea()

	for id := from; id < len(t.Levels); id++ {
		nodes := t.Levels[id]
		b := ir.BlockID(id)
		included := include == nil || include(b)
		pm.Included[id] = included
		pm.PerBlockCycles[id] = 0
		pm.FirstPart[id] = part
		pm.LastPart[id] = part
		pm.InternalCrossings[id] = 0
		pm.AreaAfter[id] = areaCovered
		if !included {
			continue
		}
		if len(nodes) == 0 {
			pm.PerBlockCycles[id] = 1 // control-only sequencing
			continue
		}
		usedAny = true
		first := -1
		var cycles int64
		level := int32(0) // level of the current (partition, level) run
		runMax := 0       // slowest operator of the current run
		for _, nd := range nodes {
			sz := fg.Costs.Area(nd.Class)
			if sz > limit {
				op := t.F.Blocks[id].Instrs[nd.Node].Op
				return fmt.Errorf(
					"finegrain: block b%d node %d (%s, %d units) exceeds A_FPGA (%d units)",
					b, nd.Node, op, sz, limit)
			}
			if areaCovered+sz > limit {
				part++
				areaCovered = 0
				cycles += int64(runMax)
				runMax = 0
			}
			areaCovered += sz
			if first < 0 {
				first = part
			}
			if nd.Level != level {
				cycles += int64(runMax)
				runMax = 0
				level = nd.Level
			}
			if lat := fg.Costs.Latency(nd.Class); lat > runMax {
				runMax = lat
			}
		}
		cycles += int64(runMax)
		if cycles < 1 {
			cycles = 1
		}
		pm.PerBlockCycles[id] = cycles
		pm.FirstPart[id] = first
		pm.LastPart[id] = part
		pm.InternalCrossings[id] = part - first
		pm.AreaAfter[id] = areaCovered
	}
	if usedAny {
		pm.NumPartitions = part + 1
	}
	return nil
}

// resize returns s with length n, reallocating only when its capacity is
// short. The contents are unspecified: Pack writes every entry.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// EdgeFreq is a profiled control-flow transition count.
type EdgeFreq struct {
	From ir.BlockID
	To   ir.BlockID
	N    uint64
}

// Crossings counts the dynamic partition crossings (region loads):
// block-internal boundaries, profiled edges whose endpoints sit in
// different partitions, and the initial configuration.
//
// With Regions > 1 the rule generalizes: a transition loads only when the
// target partition's region currently holds a different partition. A block
// straddling k partitions touches k consecutive regions, so only the
// wrap-around revisits (k − Regions of them) reload within one execution,
// and a profiled edge reconfigures only when its endpoints' partitions
// share a region — cross-region transitions find the target still resident.
// That residency assumption makes the multi-region count an optimistic
// estimate (another path may have evicted the region in between); the
// simulator tracks the per-region sequencer state exactly and is the
// authoritative multi-region cost.
func (pm *PackedMapping) Crossings(freq []uint64, edges []EdgeFreq) int64 {
	var crossings int64
	for id, inc := range pm.Included {
		if !inc {
			continue
		}
		var n uint64
		if id < len(freq) {
			n = freq[id]
		}
		// Partitions visited inside the block beyond the region count wrap
		// around and reload; with one region that is every boundary.
		if reloads := int64(pm.InternalCrossings[id]+1) - int64(pm.Regions); reloads > 0 {
			crossings += reloads * int64(n)
		}
	}
	for _, e := range edges {
		if int(e.From) >= len(pm.Included) || int(e.To) >= len(pm.Included) {
			continue
		}
		// Only transitions between two FPGA-resident blocks reconfigure the
		// fabric; while the coarse-grain data-path runs, the FPGA keeps its
		// configuration.
		if !pm.Included[e.From] || !pm.Included[e.To] {
			continue
		}
		if lp, fp := pm.LastPart[e.From], pm.FirstPart[e.To]; lp != fp && pm.Region(lp) == pm.Region(fp) {
			crossings += int64(e.N)
		}
	}
	if pm.NumPartitions > 0 {
		// Initial configuration: one load per resident region.
		if pm.NumPartitions < pm.Regions {
			crossings += int64(pm.NumPartitions)
		} else {
			crossings += int64(pm.Regions)
		}
	}
	return crossings
}

// LevelCycles evaluates the eq. 4 sum without reconfiguration: per-block
// level cycles weighted by execution frequency.
func (pm *PackedMapping) LevelCycles(freq []uint64) int64 {
	var total int64
	for id, inc := range pm.Included {
		if !inc {
			continue
		}
		var n uint64
		if id < len(freq) {
			n = freq[id]
		}
		total += pm.PerBlockCycles[id] * int64(n)
	}
	return total
}

// CrossedCycles evaluates the packed fine-grain execution time given the
// mapping's Crossings count: eq. 4 level cycles plus the per-region
// reconfiguration cost per dynamic crossing. reconfigCycles is the
// full-fabric cost (FineGrain.ReconfigCycles); with multiple regions each
// load swaps one region's proportionally smaller bitstream.
func (pm *PackedMapping) CrossedCycles(freq []uint64, crossings int64, reconfigCycles int) int64 {
	regionReconfig := int64((reconfigCycles + pm.Regions - 1) / pm.Regions)
	return pm.LevelCycles(freq) + crossings*regionReconfig
}
