package sim

import (
	"errors"
	"fmt"
	"testing"

	"hybridpart/internal/coarsegrain"
	"hybridpart/internal/ir"
	"hybridpart/internal/platform"
)

// latencyPlatforms returns every registered preset's platform plus the
// default platform with the register bank switched off (every array access
// then takes a shared-memory port).
func latencyPlatforms(t *testing.T) map[string]platform.Platform {
	t.Helper()
	plats := map[string]platform.Platform{}
	for _, name := range platform.Names() {
		c, ok := platform.Lookup(name)
		if !ok {
			t.Fatalf("preset %q listed but not found", name)
		}
		plats[name] = c.Platform
	}
	noBank := platform.Default()
	noBank.Coarse.RegBankWords = 0
	plats["default-no-regbank"] = noBank
	return plats
}

// TestLatencyTableMatchesMapDFG pins the latency table to the scheduling
// primitive: on every block of every fixture (three-stage, division, FIR,
// OFDM and, unless -short, JPEG), under every preset's data-path, the
// table's latency and error equal a fresh MapDFG call, and the Replayer
// serves the same latency or wraps the same error. The division fixture
// pins both error texts byte for byte.
func TestLatencyTableMatchesMapDFG(t *testing.T) {
	plats := latencyPlatforms(t)
	unmappable := 0
	for _, fx := range traceFixtures(t) {
		tables := ir.BuildBlockTables(fx.f)
		arrLen := coarsegrain.ArrLenOf(fx.prog, fx.f)
		for name, plat := range plats {
			tab := coarsegrain.BuildLatencyTable(fx.prog, tables, plat.Coarse)
			if !tab.Describes(fx.f, plat.Coarse) {
				t.Fatalf("%s/%s: table does not describe its own function and data-path", fx.name, name)
			}
			r, err := NewReplayer(Input{Prog: fx.prog, F: fx.f, Tables: tables, Latencies: tab, Plat: plat, Freq: fx.freq, Edges: fx.edges})
			if err != nil {
				t.Fatalf("%s/%s: %v", fx.name, name, err)
			}
			for id := range fx.f.Blocks {
				b := ir.BlockID(id)
				sched, wantErr := coarsegrain.MapDFG(ir.BuildDFG(fx.f, fx.f.Blocks[id]), plat.Coarse, arrLen)
				lat, gotErr := tab.Latency(b)
				rlat, rerr := r.CoarseLatency(b)
				if wantErr != nil {
					if gotErr == nil || gotErr.Error() != wantErr.Error() {
						t.Fatalf("%s/%s b%d: table error %v, MapDFG error %v", fx.name, name, id, gotErr, wantErr)
					}
					if errors.Is(wantErr, coarsegrain.ErrUnmappable) != errors.Is(gotErr, coarsegrain.ErrUnmappable) {
						t.Fatalf("%s/%s b%d: table error lost ErrUnmappable: %v", fx.name, name, id, gotErr)
					}
					want := fmt.Sprintf("sim: moved kernel b%d has no data-path schedule: %s", id, wantErr)
					if rerr == nil || rerr.Error() != want || !errors.Is(rerr, coarsegrain.ErrUnmappable) {
						t.Fatalf("%s/%s b%d: replayer error %v, want %q wrapping ErrUnmappable", fx.name, name, id, rerr, want)
					}
					unmappable++
					continue
				}
				if gotErr != nil || rerr != nil {
					t.Fatalf("%s/%s b%d: table error %v / replayer error %v, MapDFG scheduled it", fx.name, name, id, gotErr, rerr)
				}
				if lat != sched.Latency || rlat != sched.Latency {
					t.Fatalf("%s/%s b%d: table latency %d, replayer %d, MapDFG %d", fx.name, name, id, lat, rlat, sched.Latency)
				}
			}
		}
	}
	if unmappable == 0 {
		t.Fatal("no fixture exercised the unmappable path")
	}
}

// TestUnmappableErrorText pins the exact error texts of a division block:
// the scheduler's, which the partitioning engine tests with errors.Is, and
// the Replayer's wrapping of it.
func TestUnmappableErrorText(t *testing.T) {
	prog, f, freq, edges := prep(t, divSrc, "main_fn", 1)
	plat := platform.Default()
	tab := coarsegrain.BuildLatencyTable(prog, ir.BuildBlockTables(f), plat.Coarse)
	r, err := NewReplayer(Input{Prog: prog, F: f, Latencies: tab, Plat: plat, Freq: freq, Edges: edges})
	if err != nil {
		t.Fatal(err)
	}
	for id, b := range f.Blocks {
		node := -1
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpDiv {
				node = i
				break
			}
		}
		if node < 0 {
			continue
		}
		want := fmt.Sprintf("coarsegrain: DFG contains operations without a CGC realization: node %d is div", node)
		if _, err := tab.Latency(ir.BlockID(id)); err == nil || err.Error() != want {
			t.Fatalf("b%d: table error %v, want %q", id, err, want)
		}
		want = fmt.Sprintf("sim: moved kernel b%d has no data-path schedule: %s", id, want)
		if _, err := r.CoarseLatency(ir.BlockID(id)); err == nil || err.Error() != want {
			t.Fatalf("b%d: replayer error %v, want %q", id, err, want)
		}
		return
	}
	t.Fatal("division fixture has no division block")
}

// TestNewReplayerRejectsForeignLatencyTable requires a supplied table to
// describe the replayed function on the platform's data-path.
func TestNewReplayerRejectsForeignLatencyTable(t *testing.T) {
	prog, f, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	plat := platform.Default()
	tables := ir.BuildBlockTables(f)
	other := plat.Coarse
	other.NumCGCs++
	tab := coarsegrain.BuildLatencyTable(prog, tables, other)
	if _, err := NewReplayer(Input{Prog: prog, F: f, Tables: tables, Latencies: tab, Plat: plat, Freq: freq, Edges: edges}); err == nil {
		t.Fatal("latency table for another data-path accepted")
	}
}
