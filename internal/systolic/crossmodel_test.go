package systolic

import (
	"context"
	"math/rand"
	"testing"

	"supernpu/internal/arch"
	"supernpu/internal/mapper"
	"supernpu/internal/npusim"
	"supernpu/internal/workload"
)

// smallConfig builds an SFQ design whose array matches a functional-model
// geometry, so the two models can be compared tile for tile.
func smallConfig(rows, cols, regs int) arch.Config {
	return arch.Config{
		Name:        "cross-model",
		ArrayHeight: rows, ArrayWidth: cols, Registers: regs,
		IfmapBufBytes: 64 * 1024, IfmapChunks: 4,
		OutputBufBytes: 64 * 1024, OutputChunks: 4,
		IntegratedOutput: true,
		WeightBufBytes:   16 * 1024,
		MemoryBandwidth:  arch.DefaultBandwidth,
	}
}

// The cycle-based performance simulator and the functional cycle-stepped
// array share one mapping policy (internal/mapper): for the same layer and
// geometry they must execute the same number of weight mappings, and the
// performance model's computation cycles must track the functional model's
// measured cycles up to the pipeline-fill accounting difference.
func TestPerformanceModelTracksFunctionalModel(t *testing.T) {
	layers := []workload.Layer{
		{Name: "conv", Kind: workload.Conv, H: 10, W: 10, C: 4, R: 3, S: 3, M: 24, Stride: 1, Pad: 1},
		{Name: "wide", Kind: workload.Conv, H: 6, W: 6, C: 2, R: 3, S: 3, M: 70, Stride: 1, Pad: 1},
		{Name: "fc", Kind: workload.FullyConnected, H: 1, W: 1, C: 80, R: 1, S: 1, M: 20, Stride: 1},
		{Name: "dw", Kind: workload.DepthwiseConv, H: 8, W: 8, C: 6, R: 3, S: 3, M: 6, Stride: 1, Pad: 1},
	}
	const rows, cols, regs = 24, 8, 2
	peStages := smallConfig(rows, cols, regs).PECfg().PipelineStages()

	for _, l := range layers {
		arr, err := NewArray(rows, cols, regs)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		in := randomIfmap(rng, l.C, l.H, l.W)
		w := randomWeights(rng, l)
		_, funcStats, err := arr.Run(l, w, in)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}

		net := workload.Network{Name: "one-" + l.Name, Layers: []workload.Layer{l}}
		rep, err := npusim.Simulate(context.Background(), smallConfig(rows, cols, regs), net, 1)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		perf := rep.Layers[0]

		if perf.Mappings != funcStats.Mappings {
			t.Errorf("%s: mappings differ — performance %d vs functional %d",
				l.Name, perf.Mappings, funcStats.Mappings)
		}
		if perf.MACs != funcStats.MACs {
			t.Errorf("%s: MACs differ — performance %d vs functional %d",
				l.Name, perf.MACs, funcStats.MACs)
		}
		// Compute-cycle agreement up to per-mapping fill accounting: the
		// performance model charges rows×peStages fill, the functional
		// model drains ~2·rows+cols.
		slack := int64(perf.Mappings * (rows*(peStages+2) + cols + regs))
		diff := perf.ComputeCycles - funcStats.Cycles
		if diff < 0 {
			diff = -diff
		}
		if diff > slack {
			t.Errorf("%s: compute cycles diverge — performance %d vs functional %d (slack %d)",
				l.Name, perf.ComputeCycles, funcStats.Cycles, slack)
		}
	}
}

// The cycle models charge a layer through mapper.Classes; the functional
// array walks mapper.Tiles. One mapping policy means the array's executed
// mappings and MACs equal the count-weighted class sums. The layers cover
// every class: R·S·C below, equal to and past (not a multiple of) the
// array height, and M both a multiple and not a multiple of width·regs.
func TestFunctionalModelMatchesClasses(t *testing.T) {
	const rows, cols, regs = 18, 4, 2
	layers := []workload.Layer{
		{Name: "below", Kind: workload.Conv, H: 6, W: 6, C: 1, R: 3, S: 3, M: 10, Stride: 1, Pad: 1},
		{Name: "equal", Kind: workload.Conv, H: 6, W: 6, C: 2, R: 3, S: 3, M: 16, Stride: 1, Pad: 1},
		{Name: "tail", Kind: workload.Conv, H: 5, W: 5, C: 5, R: 3, S: 3, M: 20, Stride: 1, Pad: 1},
		{Name: "fc", Kind: workload.FullyConnected, H: 1, W: 1, C: 40, R: 1, S: 1, M: 13, Stride: 1},
	}
	maxClasses := 0
	for _, l := range layers {
		arr, err := NewArray(rows, cols, regs)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		in := randomIfmap(rng, l.C, l.H, l.W)
		w := randomWeights(rng, l)
		out, st, err := arr.Run(l, w, in)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if !equalOfmap(out, Reference(l, w, in)) {
			t.Errorf("%s: functional output differs from the reference", l.Name)
		}

		classes := mapper.Classes(l, rows, cols, regs)
		maxClasses = max(maxClasses, len(classes))
		var mappings int
		var macs int64
		for _, c := range classes {
			mappings += c.Count
			macs += int64(c.Count) * c.MACs(1, int64(l.OutH()*l.OutW()))
		}
		if st.Mappings != mappings || st.MACs != macs {
			t.Errorf("%s: functional model ran %d mappings / %d MACs, classes charge %d / %d",
				l.Name, st.Mappings, st.MACs, mappings, macs)
		}
	}
	if maxClasses != 6 {
		t.Errorf("no layer reached all six classes (max %d)", maxClasses)
	}
}
