package scalesim

// The closed-form layer charge against the tile-by-tile walk it replaces,
// bit for bit, truncations included.

import (
	"context"
	"fmt"
	"testing"

	"supernpu/internal/mapper"
	"supernpu/internal/workload"
)

// walkLayer charges a layer one tile at a time: the reference the class
// sums of simulateLayer must reproduce exactly.
func walkLayer(cfg Config, l workload.Layer, batch int, cpb float64) (compute, dram, macs int64) {
	ef := int64(l.OutH() * l.OutW())
	fits := int64(batch)*l.WorkingSetBytes() <= cfg.BufferBytes
	for _, t := range mapper.Tiles(l, cfg.ArrayHeight, cfg.ArrayWidth, 1) {
		compute += int64(batch)*ef + int64(2*t.Rows+t.Filters)
		dram += int64(float64(int64(t.Rows)*int64(t.Filters)) * cpb)
		if !fits {
			dram += int64(float64(int64(batch)*int64(l.H*l.W*t.Channels)) * cpb)
		}
		macs += t.MACs(batch, ef)
	}
	return compute, dram, macs
}

func TestClassSumsMatchTileWalk(t *testing.T) {
	small := TPU()
	small.ArrayHeight, small.ArrayWidth, small.BufferBytes = 48, 40, 1<<20
	for _, cfg := range []Config{TPU(), small} {
		cpb := cfg.Frequency / cfg.Bandwidth
		for _, net := range workload.All() {
			for _, batch := range []int{1, 3, 22} {
				for _, l := range net.ComputeLayers() {
					c, d, m := simulateLayer(cfg, l, batch, cpb)
					wc, wd, wm := walkLayer(cfg, l, batch, cpb)
					if c != wc || d != wd || m != wm {
						t.Fatalf("%dx%d %s/%s b%d: classes (%d, %d, %d), walk (%d, %d, %d)",
							cfg.ArrayHeight, cfg.ArrayWidth, net.Name, l.Name, batch, c, d, m, wc, wd, wm)
					}
				}
			}
		}
	}
}

// Same-shaped layers are charged alike, so the totals of k identical
// layers are multiples of k.
func TestRepeatedShapesScaleTotals(t *testing.T) {
	const k = 5
	layers := make([]workload.Layer, k)
	for i := range layers {
		layers[i] = workload.Layer{Name: fmt.Sprintf("conv%d", i), Kind: workload.Conv,
			H: 28, W: 28, C: 32, R: 3, S: 3, M: 32, Stride: 1, Pad: 1}
	}
	rep, err := Simulate(context.Background(), TPU(), workload.Network{Name: "repeat", Layers: layers}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MACs%k != 0 || rep.ComputeCycles%k != 0 {
		t.Errorf("MACs %d / compute cycles %d not multiples of the %d identical layers", rep.MACs, rep.ComputeCycles, k)
	}
}
