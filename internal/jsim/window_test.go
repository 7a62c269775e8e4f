package jsim

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"supernpu/internal/sfq"
)

// solverCurrent evaluates src at t the way the RK4 kernel does: indexed
// through a Solver (which computes the exact-zero window) and read back
// from evalSources.
func solverCurrent(s *Solver, src PulseSource, t float64) float64 {
	src.Node = 0
	s.indexSources([]PulseSource{src}, 1)
	s.evalSources(t)
	return s.srcs[0].cur
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// math.Exp must return exactly +0 for every argument below expZeroBelow on
// the running platform; the exact-zero window rests on it.
func TestExpZeroBelow(t *testing.T) {
	args := []float64{expZeroBelow, math.Nextafter(expZeroBelow, math.Inf(-1)), -750, -784, -784.0000001, -1075, -1e4, -1e300, math.Inf(-1)}
	for x := float64(expZeroBelow); x > -800; x -= 0.0625 {
		args = append(args, x)
	}
	for _, x := range args {
		if got := math.Exp(x); math.Float64bits(got) != 0 {
			t.Errorf("math.Exp(%v) = %v (%#x), want +0", x, got, math.Float64bits(got))
		}
	}
}

// At the window edges At±28σ, their ±1-ulp neighbours and beyond, the
// Gaussian is bit-equal to Amp·0 (−0 for a negative Amp), and the windowed
// solver path returns the same bits as current(t).
func TestSourceWindowEdgesExact(t *testing.T) {
	ps := sfq.Picosecond
	// full marks the sources whose window must be exactly [At−28σ, At+28σ],
	// so the edge checks below cannot pass vacuously on them.
	cases := []struct {
		src  PulseSource
		full bool
	}{
		{PulseSource{At: 20 * ps, Sigma: 1.2 * ps, Amp: 180e-6}, true}, // the JTL trigger
		{PulseSource{At: 90 * ps, Sigma: 1.2 * ps, Amp: 180e-6}, true}, // a late pulse
		{PulseSource{At: 70 * ps, Sigma: 2 * ps, Amp: -40e-6}, true},   // negative amplitude
		{PulseSource{At: 0, Sigma: 1 * ps, Amp: 1e-3}, true},           // centred on t = 0
		{PulseSource{At: 1e-9, Sigma: 0.05 * ps, Amp: 1e-4}, true},     // narrow, far out
		{PulseSource{At: 3, Sigma: 1e-3, Amp: 2}, true},                // unit-scale fields
		{PulseSource{At: -5 * ps, Sigma: 1e-15, Amp: -1e-6}, true},     // negative centre
		{PulseSource{At: 1e12, Sigma: 1e-3, Amp: 1}, true},             // 28σ spans few ulps of At
		{PulseSource{At: 50 * ps, Sigma: 1e307, Amp: 5e-5}, true},      // At±28σ overflows to ±Inf
		{PulseSource{At: 1, Sigma: 1e-17, Amp: 1}, false},              // At+28σ rounds onto the pulse
		{PulseSource{At: 50 * ps, Sigma: math.SmallestNonzeroFloat64, Amp: 5e-5}, false},
	}
	s := NewSolver()
	for _, c := range cases {
		src := c.src
		w := src.window()
		lo, hi := src.At-tailSigmas*src.Sigma, src.At+tailSigmas*src.Sigma
		if c.full && (w.lo != lo || w.hi != hi) {
			t.Errorf("%+v: window [%v, %v], want [%v, %v]", src, w.lo, w.hi, lo, hi)
		}
		zero := src.Amp * 0
		var edges []float64
		for _, e := range []float64{lo, hi} {
			edges = append(edges, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
		}
		edges = append(edges, lo-src.Sigma, hi+src.Sigma, lo-1, hi+1, src.At, math.Nextafter(src.At, 0))
		for _, tt := range edges {
			if got, want := solverCurrent(s, src, tt), src.current(tt); !sameBits(got, want) {
				t.Errorf("%+v at t=%v: solver %v (%#x), current %v (%#x)",
					src, tt, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			// Past either accepted edge the Gaussian is exactly Amp·0.
			if (tt <= w.lo || tt >= w.hi) && !sameBits(src.current(tt), zero) {
				t.Errorf("%+v at t=%v: current %v, want exact %v", src, tt, src.current(tt), zero)
			}
		}
	}
	// A σ below ulp(At) rounds At+28σ back onto the pulse (x ≈ 22 there):
	// that edge must be rejected, not trusted.
	if w := (PulseSource{At: 1, Sigma: 1e-17, Amp: 1}).window(); !math.IsInf(w.hi, 1) {
		t.Errorf("σ below ulp(At): hi = %v, want +Inf (unwindowed)", w.hi)
	}
}

// Property: for random positive-σ sources, the windowed solver path is
// bit-equal to current(t) everywhere, with t drawn across the pulse, at
// the window edges and far into the tails.
func TestSourceWindowProperty(t *testing.T) {
	s := NewSolver()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := PulseSource{
			At:    (rng.Float64()*300 - 50) * sfq.Picosecond,
			Sigma: math.Exp(rng.Float64()*8-4) * sfq.Picosecond, // e^±4 ps
			Amp:   (rng.Float64()*2 - 1) * 1e-3,
		}
		for j := 0; j < 64; j++ {
			u := rng.Float64()*80 - 40 // ±40σ around At
			tt := src.At + u*src.Sigma
			switch j % 4 {
			case 1:
				tt = src.At + tailSigmas*src.Sigma
			case 2:
				tt = src.At - tailSigmas*src.Sigma
			}
			if j%4 != 0 { // up to 2 ulps either side of the edge
				d := rng.Intn(5) - 2
				for ; d > 0; d-- {
					tt = math.Nextafter(tt, math.Inf(1))
				}
				for ; d < 0; d++ {
					tt = math.Nextafter(tt, math.Inf(-1))
				}
			}
			if !sameBits(solverCurrent(s, src, tt), src.current(tt)) {
				t.Logf("seed %d: %+v at t=%v", seed, src, tt)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(14))}); err != nil {
		t.Fatal(err)
	}
}

// Sources whose Sigma is not a positive finite number, or whose At or Amp
// is not finite, are never windowed: they always take the exp path.
func TestSourceWindowRejectsInvalidFields(t *testing.T) {
	ps := sfq.Picosecond
	invalid := []PulseSource{
		{At: 20 * ps, Sigma: 0, Amp: 1e-4},
		{At: 20 * ps, Sigma: -1.2 * ps, Amp: 1e-4},
		{At: 20 * ps, Sigma: math.NaN(), Amp: 1e-4},
		{At: 20 * ps, Sigma: math.Inf(1), Amp: 1e-4},
		{At: math.NaN(), Sigma: 1.2 * ps, Amp: 1e-4},
		{At: math.Inf(1), Sigma: 1.2 * ps, Amp: 1e-4},
		{At: 20 * ps, Sigma: 1.2 * ps, Amp: math.Inf(-1)},
		{At: 20 * ps, Sigma: 1.2 * ps, Amp: math.NaN()},
	}
	s := NewSolver()
	for _, src := range invalid {
		w := src.window()
		if !math.IsInf(w.lo, -1) || !math.IsInf(w.hi, 1) {
			t.Errorf("%+v: window [%v, %v], want (−Inf, +Inf)", src, w.lo, w.hi)
		}
		for _, tt := range []float64{0, 20 * ps, 60 * ps, 1e-6} {
			if got, want := solverCurrent(s, src, tt), src.current(tt); !sameBits(got, want) {
				t.Errorf("%+v at t=%v: solver %#x, current %#x", src, tt, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
	// A negative-σ pulse is the same Gaussian: it must still inject its
	// full amplitude at At.
	neg := PulseSource{At: 20 * ps, Sigma: -1.2 * ps, Amp: 180e-6}
	if got := solverCurrent(s, neg, neg.At); got != neg.Amp {
		t.Errorf("negative-σ pulse at At: %v, want %v", got, neg.Amp)
	}
}

// x² is even in σ, so a JTL triggered by a negative-σ pulse (never
// windowed) must follow the positive-σ trajectory (windowed) bit for bit.
func TestNegativeSigmaTransientMatchesPositive(t *testing.T) {
	const (
		T  = 120 * sfq.Picosecond
		dt = 0.02 * sfq.Picosecond
	)
	pos := StandardJTL(10)
	neg := StandardJTL(10)
	neg.Sources = []PulseSource{pos.Sources[0]}
	neg.Sources[0].Sigma = -neg.Sources[0].Sigma
	want, err := pos.Run(context.Background(), T, dt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := neg.Run(context.Background(), T, dt)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, got, want)
	if want.Slips(len(pos.Nodes)-1) < 1 {
		t.Fatal("the trigger pulse did not propagate")
	}
}
