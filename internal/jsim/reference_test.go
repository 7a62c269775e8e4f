package jsim

import (
	"context"
	"fmt"
	"math"
	"testing"

	"supernpu/internal/sfq"
)

// refKernel is the straightforward RK4 kernel the Solver must reproduce bit
// for bit: every node divides out both of its coupling currents, every
// derivative call evaluates every source Gaussian at its own stage time
// (no exact-zero window, no sharing between the two mid-step stages), and
// the RK4 stages are written inline. It builds its own node constants,
// per-node source lists and adjacency straight from the netlist, so it
// shares no indexing code with the Solver either.
type refKernel struct {
	bias, ic, res, cphi, lNext []float64
	srcs                       [][]PulseSource // per node, in Sources order
	adjNode                    [][]int         // circuits only, in Links order
	adjInvL                    [][]float64
	chain                      bool
}

func newRefKernel(nodes []Node, sources []PulseSource, links []Link, chain bool) *refKernel {
	n := len(nodes)
	k := &refKernel{
		bias: make([]float64, n), ic: make([]float64, n), res: make([]float64, n),
		cphi: make([]float64, n), lNext: make([]float64, n),
		srcs: make([][]PulseSource, n), adjNode: make([][]int, n), adjInvL: make([][]float64, n),
		chain: chain,
	}
	for i, nd := range nodes {
		k.bias[i] = nd.Bias
		k.ic[i] = nd.JJ.Ic
		k.res[i] = nd.JJ.R
		k.cphi[i] = nd.JJ.C * phi0over2pi
		k.lNext[i] = nd.LNext
		for _, src := range sources {
			if src.Node == i {
				k.srcs[i] = append(k.srcs[i], src)
			}
		}
	}
	for _, lk := range links {
		invL := 1 / lk.L
		k.adjNode[lk.A] = append(k.adjNode[lk.A], lk.B)
		k.adjInvL[lk.A] = append(k.adjInvL[lk.A], invL)
		k.adjNode[lk.B] = append(k.adjNode[lk.B], lk.A)
		k.adjInvL[lk.B] = append(k.adjInvL[lk.B], invL)
	}
	return k
}

func (k *refKernel) deriv(t float64, phi, v, dphi, dv []float64) {
	n := len(phi)
	for i := 0; i < n; i++ {
		cur := k.bias[i]
		for _, src := range k.srcs[i] {
			cur += src.current(t)
		}
		if k.chain {
			if i > 0 {
				cur += phi0over2pi * (phi[i-1] - phi[i]) / k.lNext[i-1]
			}
			if i < n-1 {
				cur += phi0over2pi * (phi[i+1] - phi[i]) / k.lNext[i]
			}
		} else {
			for a, j := range k.adjNode[i] {
				cur += phi0over2pi * (phi[j] - phi[i]) * k.adjInvL[i][a]
			}
		}
		cur -= k.ic[i] * math.Sin(phi[i])
		cur -= phi0over2pi * v[i] / k.res[i]
		dphi[i] = v[i]
		dv[i] = cur / k.cphi[i]
	}
}

// run integrates from the DC-equilibrium state and records the dense
// trajectory through a DenseRecorder, exactly as the Solver feeds it.
func (k *refKernel) run(T, dt float64) (*Result, error) {
	n := len(k.bias)
	steps := stepCount(T, dt)
	phi, v := make([]float64, n), make([]float64, n)
	for i := range phi {
		r := k.bias[i] / k.ic[i]
		if r > 0.999 {
			r = 0.999
		}
		if r < -0.999 {
			r = -0.999
		}
		phi[i] = math.Asin(r)
	}
	buf := func() []float64 { return make([]float64, n) }
	k1p, k1v, k2p, k2v := buf(), buf(), buf(), buf()
	k3p, k3v, k4p, k4v := buf(), buf(), buf(), buf()
	tp, tv := buf(), buf()

	var rec DenseRecorder
	rec.Init(RunInfo{Nodes: n, Steps: steps, Dt: dt, Bias: k.bias})
	for step := 0; step < steps; step++ {
		t := float64(step) * dt
		rec.Observe(step, t, phi, v)

		k.deriv(t, phi, v, k1p, k1v)
		for i := 0; i < n; i++ {
			tp[i] = phi[i] + 0.5*dt*k1p[i]
			tv[i] = v[i] + 0.5*dt*k1v[i]
		}
		k.deriv(t+0.5*dt, tp, tv, k2p, k2v)
		for i := 0; i < n; i++ {
			tp[i] = phi[i] + 0.5*dt*k2p[i]
			tv[i] = v[i] + 0.5*dt*k2v[i]
		}
		k.deriv(t+0.5*dt, tp, tv, k3p, k3v)
		for i := 0; i < n; i++ {
			tp[i] = phi[i] + dt*k3p[i]
			tv[i] = v[i] + dt*k3v[i]
		}
		k.deriv(t+dt, tp, tv, k4p, k4v)
		for i := 0; i < n; i++ {
			phi[i] += dt / 6 * (k1p[i] + 2*k2p[i] + 2*k3p[i] + k4p[i])
			v[i] += dt / 6 * (k1v[i] + 2*k2v[i] + 2*k3v[i] + k4v[i])
			if math.IsNaN(phi[i]) || math.IsInf(phi[i], 0) {
				return nil, fmt.Errorf("reference kernel: non-finite phase at step %d node %d", step, i)
			}
		}
	}
	return rec.Result(), nil
}

// requireBitIdentical fails unless every phase and bias-energy sample of
// got has the same IEEE-754 bits as want.
func requireBitIdentical(t *testing.T, got, want *Result) {
	t.Helper()
	if len(got.Phases) != len(want.Phases) || len(got.BiasEnergy) != len(want.BiasEnergy) {
		t.Fatalf("sample count: solver %d/%d, reference %d/%d",
			len(got.Phases), len(got.BiasEnergy), len(want.Phases), len(want.BiasEnergy))
	}
	for s := range want.Phases {
		for i := range want.Phases[s] {
			if g, w := math.Float64bits(got.Phases[s][i]), math.Float64bits(want.Phases[s][i]); g != w {
				t.Fatalf("phase[%d][%d]: solver %#x, reference %#x", s, i, g, w)
			}
		}
		if g, w := math.Float64bits(got.BiasEnergy[s]), math.Float64bits(want.BiasEnergy[s]); g != w {
			t.Fatalf("bias energy[%d]: solver %#x, reference %#x", s, g, w)
		}
	}
}

// refChains extends the differential battery with the source layouts the
// kernel's source handling must get right: two pulses on one node (the
// second one's window opens and closes mid-run, after the first one's has
// closed) and a negative-amplitude pulse, whose exact-zero tail is −0.
func refChains() map[string]*Chain {
	chains := diffChains()
	twin := StandardJTL(10)
	twin.Sources = append(twin.Sources, PulseSource{Node: 0, At: 90 * sfq.Picosecond, Sigma: 1.2e-12, Amp: 180e-6})
	chains["two-sources-one-node"] = twin
	neg := StandardJTL(10)
	neg.Sources = append(neg.Sources, PulseSource{Node: 5, At: 70 * sfq.Picosecond, Sigma: 2e-12, Amp: -40e-6})
	chains["negative-amp"] = neg
	return chains
}

// The Solver's RK4 kernel saves arithmetic (shared coupling currents, one
// source evaluation per distinct stage time, exact-zero pulse tails), but
// every saving must be an exact floating-point identity: the dense
// trajectory must match the straightforward reference kernel bit for bit.
// The stream-vs-dense tests cannot catch kernel drift, since both of their
// sides run the Solver.
func TestSolverMatchesReferenceKernel(t *testing.T) {
	const (
		T  = 120 * sfq.Picosecond
		dt = 0.02 * sfq.Picosecond
	)
	for name, ch := range refChains() {
		ch := ch
		t.Run(name, func(t *testing.T) {
			want, err := newRefKernel(ch.Nodes, ch.Sources, nil, true).run(T, dt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ch.Run(context.Background(), T, dt)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, got, want)
		})
	}
}

func TestCircuitSolverMatchesReferenceKernel(t *testing.T) {
	const (
		T  = 100 * sfq.Picosecond
		dt = 0.05 * sfq.Picosecond
	)
	ckt := SplitterTree(3)
	want, err := newRefKernel(ckt.Nodes, ckt.Sources, ckt.Links, false).run(T, dt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ckt.Run(context.Background(), T, dt)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, got, want)
}
