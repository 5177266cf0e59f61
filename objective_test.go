package hybridpart

import (
	"testing"

	"hybridpart/internal/ir"
)

// TestMovedKey: the memo key ignores move order, separates sets whose
// digits concatenate alike, and costs one allocation — the string itself.
func TestMovedKey(t *testing.T) {
	if a, b := movedKey([]ir.BlockID{3, 1, 20}), movedKey([]ir.BlockID{20, 3, 1}); a != b || a != "1,3,20," {
		t.Fatalf("order-dependent key: %q vs %q", a, b)
	}
	if movedKey([]ir.BlockID{1, 12}) == movedKey([]ir.BlockID{11, 2}) {
		t.Fatal("distinct sets share a key")
	}
	if movedKey(nil) != "" {
		t.Fatalf("empty set key %q", movedKey(nil))
	}
	moved := []ir.BlockID{29, 4, 17, 8, 11}
	if n := testing.AllocsPerRun(100, func() { _ = movedKey(moved) }); n > 1 {
		t.Fatalf("movedKey allocates %v times per call, want 1", n)
	}
}
