package platform

import (
	"strings"
	"testing"

	"hybridpart/internal/ir"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default() invalid: %v", err)
	}
	for _, afpga := range []int{1500, 5000} {
		for _, n := range []int{2, 3} {
			if err := Paper(afpga, n).Validate(); err != nil {
				t.Errorf("Paper(%d,%d) invalid: %v", afpga, n, err)
			}
		}
	}
}

func TestValidateRejections(t *testing.T) {
	mutate := []struct {
		name string
		fn   func(*Platform)
	}{
		{"zero area", func(p *Platform) { p.Fine.Area = 0 }},
		{"negative reconfig", func(p *Platform) { p.Fine.ReconfigCycles = -1 }},
		{"zero ALU area", func(p *Platform) { p.Fine.Costs.AreaALU = 0 }},
		{"zero mul latency", func(p *Platform) { p.Fine.Costs.LatMul = 0 }},
		{"op bigger than fabric", func(p *Platform) { p.Fine.Area = 10; p.Fine.Costs.AreaMul = 32 }},
		{"no CGCs", func(p *Platform) { p.Coarse.NumCGCs = 0 }},
		{"zero rows", func(p *Platform) { p.Coarse.Rows = 0 }},
		{"zero cols", func(p *Platform) { p.Coarse.Cols = 0 }},
		{"no mem ports", func(p *Platform) { p.Coarse.MemPorts = 0 }},
		{"zero clock ratio", func(p *Platform) { p.Coarse.ClockRatio = 0 }},
		{"negative comm", func(p *Platform) { p.Comm.CyclesPerWord = -1 }},
	}
	for _, m := range mutate {
		p := Default()
		m.fn(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad platform", m.name)
		}
	}
}

func TestOpCostsLookup(t *testing.T) {
	c := DefaultOpCosts()
	if c.Area(ir.ClassMul) != c.AreaMul || c.Area(ir.ClassALU) != c.AreaALU ||
		c.Area(ir.ClassMem) != c.AreaMem || c.Area(ir.ClassDiv) != c.AreaDiv {
		t.Fatal("Area lookup broken")
	}
	if c.Latency(ir.ClassMul) != c.LatMul || c.Latency(ir.ClassALU) != c.LatALU {
		t.Fatal("Latency lookup broken")
	}
	if c.Area(ir.ClassCall) != 0 || c.Latency(ir.ClassCall) != 0 {
		t.Fatal("calls must cost nothing (inlined before mapping)")
	}
}

// TestSlotsPerCycle: the paper's data-path retires up to 12 ALU/MUL
// operations per CGC cycle, 3 CGCs of 2×2 cells.
func TestSlotsPerCycle(t *testing.T) {
	cg := Paper(1500, 3).Coarse
	if got := cg.NumCGCs * cg.Rows * cg.Cols; got != 3*2*2 {
		t.Fatalf("%d slots per cycle, want 12", got)
	}
}

func TestStringMentionsComponents(t *testing.T) {
	s := Default().String()
	for _, part := range []string{"FPGA", "CGC", "shared-mem"} {
		if !strings.Contains(s, part) {
			t.Errorf("String() = %q lacks %q", s, part)
		}
	}
}

func TestOpCostsIsZero(t *testing.T) {
	if !(OpCosts{}).IsZero() {
		t.Fatal("zero value not detected")
	}
	if DefaultOpCosts().IsZero() {
		t.Fatal("default table reported as zero")
	}
	// Any single field set means "supplied", even a mostly-free table.
	if (OpCosts{LatALU: 1}).IsZero() {
		t.Fatal("partially-set table reported as zero")
	}
}
