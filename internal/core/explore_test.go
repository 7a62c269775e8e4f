package core

import (
	"context"
	"math"
	"testing"
)

func TestExploreDivision(t *testing.T) {
	points, err := ExploreDivision(context.Background(), []int{4, 64, 4096}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 { // Baseline, +Integration, 3 divisions
		t.Fatalf("got %d points, want 5", len(points))
	}
	base := points[0]
	if math.Abs(base.SingleBatch-1) > 1e-9 || math.Abs(base.MaxBatch-1) > 1e-9 {
		t.Fatal("Baseline must normalise to 1×")
	}
	// Monotone improvement through the sweep's performance columns.
	for i := 1; i < len(points); i++ {
		if points[i].SingleBatch < points[i-1].SingleBatch-1e-9 {
			t.Errorf("single-batch speedup regressed at %s", points[i].Label)
		}
	}
	// Fig. 20's area story: division 64 nearly free, 4096 clearly not.
	div64, div4096 := points[2], points[4]
	if div64.AreaRel > 1.03 {
		t.Errorf("division 64 area overhead %.3f, want < 3%%", div64.AreaRel)
	}
	if div4096.AreaRel < 1.10 {
		t.Errorf("division 4096 area overhead %.3f, want > 10%%", div4096.AreaRel)
	}
}

func TestExploreWidthShape(t *testing.T) {
	points, err := ExploreWidth(context.Background(), Fig21Points(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("got %d points, want 5", len(points))
	}
	s := map[int]float64{}
	for i, wp := range Fig21Points() {
		s[wp.Width] = points[i].MaxBatch
	}
	// Fig. 21's hump: 128 and 64 beat 256; 16 is the worst of the narrow.
	if !(s[128] > s[256] && s[64] > s[256] && s[16] < s[32] && s[32] < s[64]) {
		t.Errorf("resource-balancing shape wrong: %v", s)
	}
}

func TestExploreRegistersShape(t *testing.T) {
	regs := []int{1, 8}
	w64, err := ExploreRegisters(context.Background(), 64, regs, nil)
	if err != nil {
		t.Fatal(err)
	}
	w128, err := ExploreRegisters(context.Background(), 128, regs, nil)
	if err != nil {
		t.Fatal(err)
	}
	gain64 := w64[1].MaxBatch / w64[0].MaxBatch
	gain128 := w128[1].MaxBatch / w128[0].MaxBatch
	if gain64 <= gain128 {
		t.Errorf("width 64 must gain more from registers than width 128 (%.2f vs %.2f)",
			gain64, gain128)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("geomean(2,8) = %g, want 4", g)
	}
	if geomean(nil) != 0 {
		t.Fatal("geomean(nil) must be 0")
	}
}
