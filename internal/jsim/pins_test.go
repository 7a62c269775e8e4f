package jsim

import (
	"context"
	"math"
	"testing"

	"supernpu/internal/faultinject"
)

// The bias-margin exhibit has no golden file and bisection margins are
// quantised, so a kernel change that drifts by an ulp could still land on
// the same printed margins. These pins hold the exact IEEE-754 bit patterns
// the RK4 kernel produced before the arithmetic-saving rewrite (shared
// coupling current, shared mid-step source time, 28σ exact-zero window);
// any non-exact rewrite of the kernel moves at least one of them.

func TestPinnedMarginBits(t *testing.T) {
	cases := []struct {
		name      string
		fm        *faultinject.Model
		low, high uint64
	}{
		{"nominal", nil, 0x3fe32b0000000000, 0x3fef986666666666},
		{"seed7-spread0.02", &faultinject.Model{Seed: 7, IcSpread: 0.02}, 0x3fe3630000000000, 0x3fefd1999999999a},
		{"seed7-spread0.10", &faultinject.Model{Seed: 7, IcSpread: 0.10}, 0x3fe43ecccccccccc, 0x3ff04f3333333332},
		{"seed42-spread0.02", &faultinject.Model{Seed: 42, IcSpread: 0.02}, 0x3fe329999999999a, 0x3fefde6666666666},
		{"seed42-spread0.10", &faultinject.Model{Seed: 42, IcSpread: 0.10}, 0x3fe31e6666666666, 0x3feee00000000000},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var (
				m   Margins
				err error
			)
			if c.fm == nil {
				m, err = biasMargins(context.Background())
			} else {
				m, err = biasMarginsFaulted(context.Background(), c.fm, NewSolver())
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := math.Float64bits(m.Low); got != c.low {
				t.Errorf("Low = %#x (%v), want %#x", got, m.Low, c.low)
			}
			if got := math.Float64bits(m.High); got != c.high {
				t.Errorf("High = %#x (%v), want %#x", got, m.High, c.high)
			}
		})
	}
}

func TestPinnedJTLParamBits(t *testing.T) {
	gp, err := extractJTLParams(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := math.Float64bits(gp.StageDelay), uint64(0x3d8fdc29e1c07a65); got != want {
		t.Errorf("StageDelay = %#x (%v), want %#x", got, gp.StageDelay, want)
	}
	if got, want := math.Float64bits(gp.SwitchEnergyPerJJ), uint64(0x3c055c7053df4e91); got != want {
		t.Errorf("SwitchEnergyPerJJ = %#x (%v), want %#x", got, gp.SwitchEnergyPerJJ, want)
	}
}
