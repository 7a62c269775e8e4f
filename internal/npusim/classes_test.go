package npusim

// The closed-form layer charge against the tile-by-tile walk it replaces:
// for every paper design, workload layer, batch and DRAM rate the two must
// agree bit for bit, truncations included.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"supernpu/internal/arch"
	"supernpu/internal/faultinject"
	"supernpu/internal/mapper"
	"supernpu/internal/workload"
)

// walkLayer charges a layer one tile at a time: the reference the class
// sums of simulateLayer must reproduce exactly.
func walkLayer(cfg arch.Config, l workload.Layer, batch int, cpb float64) LayerStats {
	st := LayerStats{Layer: l}
	ef := int64(l.OutH() * l.OutW())
	peStages := cfg.PECfg().PipelineStages()
	fits := layerFits(cfg, l, batch)
	for _, t := range mapper.Tiles(l, cfg.ArrayHeight, cfg.ArrayWidth, cfg.Registers) {
		st.Mappings++
		st.ComputeCycles += int64(batch)*ef*int64(t.Regs) + int64(t.Rows*peStages+t.Cols+t.Regs)
		wBytes := int64(t.Rows) * int64(t.Filters)
		st.WeightCycles += int64(t.Rows * t.Regs)
		st.DRAMCycles += int64(float64(wBytes) * cpb)
		st.DRAMBytes += wBytes
		st.IfmapMoveCycles += int64(cfg.IfmapBuf().RecirculateCycles())
		st.BufferBytes += int64(batch) * int64(l.H*l.W*t.Channels)
		if !t.FirstRowTile && !cfg.IntegratedOutput {
			st.PsumMoveCycles += int64(cfg.OutputBuf().InterBufferMoveCycles(cfg.PsumBuf(), cfg.PsumBufBytes))
		}
		st.BufferBytes += int64(batch) * ef * int64(t.Filters)
		if !fits {
			spill := int64(batch) * int64(l.H*l.W*t.Channels)
			st.DRAMCycles += int64(float64(spill) * cpb)
			st.DRAMBytes += spill
		}
		st.MACs += t.MACs(batch, ef)
	}
	return st
}

func TestClassSumsMatchTileWalk(t *testing.T) {
	for _, cfg := range arch.Designs() {
		for _, net := range workload.All() {
			for _, batch := range []int{1, 7, BatchCap} {
				for _, cpb := range []float64{0.37, 2.718281828, 117.3} {
					for _, l := range net.ComputeLayers() {
						got, want := simulateLayer(cfg, l, batch, cpb), walkLayer(cfg, l, batch, cpb)
						if got != want {
							t.Fatalf("%s/%s/%s b%d cpb %g:\nclasses %+v\n  walk %+v",
								cfg.Name, net.Name, l.Name, batch, cpb, got, want)
						}
					}
				}
			}
		}
	}
}

// repeatedNet builds a valid network whose k compute layers all share one
// shape (a 3×3/pad-1/stride-1 conv preserves H×W, and M == C keeps the
// channel chain consistent).
func repeatedNet(k int) workload.Network {
	layers := make([]workload.Layer, k)
	for i := range layers {
		layers[i] = workload.Layer{Name: fmt.Sprintf("conv%d", i), Kind: workload.Conv,
			H: 14, W: 14, C: 64, R: 3, S: 3, M: 64, Stride: 1, Pad: 1}
	}
	return workload.Network{Name: fmt.Sprintf("repeat%d", k), Layers: layers}
}

// Same-shaped layers are charged alike: totals scale by multiplicity, and
// only input delivery separates the first layer (DRAM) from the rest
// (on-chip move). Every site keeps its own display name.
func TestRepeatedShapesScaleTotals(t *testing.T) {
	const k = 6
	net := repeatedNet(k)
	rep := sim(t, arch.SuperNPU(), net, 1)

	if len(rep.Layers) != k {
		t.Fatalf("report has %d layers, want %d", len(rep.Layers), k)
	}
	if want := int64(k) * rep.Layers[0].MACs; rep.MACs != want {
		t.Errorf("total MACs = %d, want %d (k × per-layer)", rep.MACs, want)
	}
	if want := int64(k) * rep.Layers[0].ComputeCycles; rep.ComputeCycles != want {
		t.Errorf("compute cycles = %d, want %d (k × per-layer)", rep.ComputeCycles, want)
	}
	for i, st := range rep.Layers {
		if st.Layer.Name != net.Layers[i].Name {
			t.Errorf("layer %d kept name %q, want %q", i, st.Layer.Name, net.Layers[i].Name)
		}
		if i >= 2 {
			ref := rep.Layers[1]
			ref.Layer.Name = st.Layer.Name
			if st != ref {
				t.Errorf("layer %d stats differ from layer 1:\n got %+v\nwant %+v", i, st, ref)
			}
		}
	}
}

func TestNegativeBatchRejectedNonNegativeMessage(t *testing.T) {
	net := repeatedNet(1)
	cfg := arch.SuperNPU()
	_, err := Simulate(context.Background(), cfg, net, -1)
	if err == nil {
		t.Fatal("negative batch accepted")
	}
	if got := err.Error(); !containsAll(got, "non-negative", "MaxBatch") {
		t.Errorf("error %q should state the non-negative requirement and the batch-0 convention", got)
	}
	_, err = SimulateFaulted(context.Background(), cfg, net, -1, &faultinject.Model{Seed: 1, BitFlip: 1e-9})
	if err == nil {
		t.Fatal("negative faulted batch accepted")
	}
	if got := err.Error(); !containsAll(got, "non-negative", "MaxBatch") {
		t.Errorf("faulted error %q should state the non-negative requirement and the batch-0 convention", got)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}
