// The streaming transient solver: a reusable Solver integrates a Chain or
// Circuit with classical RK4 and hands every step to a set of Observers,
// allocating O(nodes) scratch in total instead of the O(steps·nodes) dense
// history the legacy Run API materialises. The floating-point arithmetic is
// bit-identical to the original solver — same RK4, same operation order,
// and every arithmetic saving an exact IEEE-754 identity (see derivChain,
// evalSources and PulseSource.window) — so every golden exhibit derived
// from these transients is unchanged.
package jsim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"supernpu/internal/guard"
	"supernpu/internal/sfq"
)

// RunInfo describes one transient to the observers attached to it.
type RunInfo struct {
	Nodes int     // node count of the netlist
	Steps int     // RK4 sample count, including the t = 0 state
	Dt    float64 // time step (s)
	// Bias is the per-node DC bias current (A). It aliases solver scratch:
	// read it during the run, do not retain or mutate it.
	Bias []float64
}

// Observer consumes solver state in-stream. Init is called once before the
// first step; Observe is called once per RK4 sample with the state *before*
// that step's update (step 0 is the initial condition), matching the rows of
// the legacy dense Result.Phases. The phi and v slices alias solver scratch
// and are only valid inside the call. If the run returns an error, observer
// state is undefined and must not be read.
type Observer interface {
	Init(info RunInfo)
	Observe(step int, t float64, phi, v []float64)
}

// stepCount returns the RK4 sample count covering [0, T] at spacing dt:
// ⌊T/dt⌋+1, with a guard against the quotient landing a few ulps below an
// integer. T = 160 ps at dt = 0.02 ps divides exactly in the reals but not
// in float64 (T/dt ≈ 7999.99999…), and plain truncation silently dropped
// the final sample of such runs.
func stepCount(T, dt float64) int {
	r := T / dt
	k := math.Floor(r)
	if r-k > 1-1e-9*(k+1) {
		k++
	}
	return int(k) + 1
}

// Solver integrates junction netlists with reusable scratch: every buffer is
// grown on demand and kept across runs, so repeated transients over chains
// of the same (or smaller) size allocate nothing. A Solver is not safe for
// concurrent use; give each worker its own (see RunBatch and
// parallel.MapLocal).
type Solver struct {
	// Struct-of-arrays per-node constants, hoisted once per run.
	bias  []float64 // DC bias current
	ic    []float64 // junction critical current
	res   []float64 // shunt resistance
	cphi  []float64 // C·Φ0/2π, the φ̈ denominator
	lNext []float64 // chain inductance to the next node

	// Per-node source index: srcs[srcPtr[i]:srcPtr[i+1]] are the pulse
	// sources driving node i, in their original Sources order.
	srcPtr []int
	srcs   []windowedSource
	cnt    []int // counting-sort scratch (sources and adjacency)

	// CSR adjacency for circuits: links of node i are adjPtr[i]:adjPtr[i+1].
	adjPtr  []int
	adjNode []int
	adjInvL []float64

	// State and RK4 stage scratch.
	phi, v   []float64
	k1p, k1v []float64
	k2p, k2v []float64
	k3p, k3v []float64
	k4p, k4v []float64
	tp, tv   []float64

	// watch carries the run context so the RK4 loop can poll for
	// cancellation every pollSteps steps without allocating. Arming
	// against an uncancellable context is free, which keeps the
	// zero-allocation steady state intact on that path.
	watch guard.Watch
	// budget, when set, bounds the total steps this solver may integrate;
	// a run whose step count does not fit fails with ErrBudgetExceeded
	// before integrating. nil means unlimited.
	budget *guard.Budget
}

// NewSolver returns an empty Solver; buffers are sized on first use.
func NewSolver() *Solver { return &Solver{} }

// pollSteps is the cancellation poll interval of the RK4 loop: every
// pollSteps steps the solver polls its watch, so a canceled transient
// returns within pollSteps steps — microseconds of work — without the
// loop ever allocating. Must be a power of two; the loop tests
// step&(pollSteps-1).
const pollSteps = 256

// divergedVoltage is the per-node voltage bound beyond which a transient
// is declared diverged: SFQ pulse amplitudes sit in the millivolt range,
// so a solver state reaching a full volt is numerically blown up even
// while still technically finite. The solver state carries φ̇ in rad/s
// (V = Φ0/2π·φ̇), so the comparison happens against divergedPhiDot, the
// same bound in state units. The check is a read-only comparison and
// cannot perturb the trajectory of a healthy run.
const (
	divergedVoltage = 1.0
	divergedPhiDot  = divergedVoltage / phi0over2pi
)

// SetBudget attaches a deterministic step budget to the solver; every run
// charges its full step count against it up front and fails with an error
// wrapping guard.ErrBudgetExceeded once the budget cannot cover a run.
// A nil budget (the default) is unlimited. The budget may be shared
// between solvers; charges are atomic.
func (s *Solver) SetBudget(b *guard.Budget) { s.budget = b }

// growF resizes a float scratch slice to n, reusing capacity when it can.
func growF(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// growI resizes an int scratch slice to n, reusing capacity when it can.
func growI(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

// prepNodes hoists the per-node constants of nodes into the solver's
// struct-of-arrays scratch and sets the DC-equilibrium initial state
// φ = arcsin(I_bias/Ic), v = 0.
func (s *Solver) prepNodes(nodes []Node) {
	n := len(nodes)
	s.bias = growF(s.bias, n)
	s.ic = growF(s.ic, n)
	s.res = growF(s.res, n)
	s.cphi = growF(s.cphi, n)
	s.lNext = growF(s.lNext, n)
	s.phi = growF(s.phi, n)
	s.v = growF(s.v, n)
	s.k1p, s.k1v = growF(s.k1p, n), growF(s.k1v, n)
	s.k2p, s.k2v = growF(s.k2p, n), growF(s.k2v, n)
	s.k3p, s.k3v = growF(s.k3p, n), growF(s.k3v, n)
	s.k4p, s.k4v = growF(s.k4p, n), growF(s.k4v, n)
	s.tp, s.tv = growF(s.tp, n), growF(s.tv, n)
	for i := range nodes {
		nd := &nodes[i]
		s.bias[i] = nd.Bias
		s.ic[i] = nd.JJ.Ic
		s.res[i] = nd.JJ.R
		s.cphi[i] = nd.JJ.C * phi0over2pi
		s.lNext[i] = nd.LNext
		r := nd.Bias / nd.JJ.Ic
		if r > 0.999 {
			r = 0.999
		}
		if r < -0.999 {
			r = -0.999
		}
		s.phi[i] = math.Asin(r)
		s.v[i] = 0
	}
}

// tailSigmas is the half-width, in σ, of a pulse source's live window.
// Beyond it x² ≥ 784, far past the arguments for which math.Exp still
// returns a non-zero (subnormal) value.
const tailSigmas = 28

// expZeroBelow is an argument below which math.Exp returns exactly +0: the
// pure-Go path and the arm64 assembly return 0 below −745.13, and the
// amd64 assembly (with or without FMA) takes its underflow branch once the
// ldexp exponent k+1023 drops below −52, which every argument below about
// −745.48 guarantees. TestExpZeroBelow checks it on the running platform.
const expZeroBelow = -746

// windowedSource is a pulse source with its exact-zero window: for
// t <= lo or t >= hi, current(t) is bit-equal to zero (Amp·0, which keeps
// the sign of Amp), so the solver skips the exp. cur is the current at the
// stage time of the last evalSources call.
type windowedSource struct {
	PulseSource
	lo, hi float64
	zero   float64
	cur    float64
}

// tailIsZero reports whether current(t) underflows to Amp·0 at t, judged
// on the same rounded x the Gaussian evaluates. Rounding is monotone, so
// the rounded |x| only grows as t moves further from At: a zero at t is a
// zero at every farther t on the same side.
func (p PulseSource) tailIsZero(t float64) bool {
	x := (t - p.At) / p.Sigma
	return -x*x < expZeroBelow
}

// window returns p with its exact-zero window. Only a source with a
// positive, finite Sigma and finite At and Amp is windowed; every other
// source gets the unbounded window (−Inf, +Inf) and always evaluates its
// Gaussian. A negative Sigma must never be windowed: At+28σ would then
// lie below At and the test t >= hi would zero the live pulse. Each bound
// is kept only when the Gaussian is verifiably zero there, which rejects
// a σ so small against At that At±28σ rounds back onto the pulse.
func (p PulseSource) window() windowedSource {
	w := windowedSource{PulseSource: p, lo: math.Inf(-1), hi: math.Inf(1), zero: p.Amp * 0}
	if !(p.Sigma > 0) || !finite(p.Sigma) || !finite(p.At) || !finite(p.Amp) {
		return w
	}
	if lo := p.At - tailSigmas*p.Sigma; p.tailIsZero(lo) {
		w.lo = lo
	}
	if hi := p.At + tailSigmas*p.Sigma; p.tailIsZero(hi) {
		w.hi = hi
	}
	return w
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// indexSources builds the per-node source index with a stable counting sort,
// preserving each node's original Sources order (the summation order of the
// legacy solver). Sources aimed at out-of-range nodes are dropped, exactly
// as the legacy per-node scan never matched them.
func (s *Solver) indexSources(sources []PulseSource, n int) {
	s.srcPtr = growI(s.srcPtr, n+1)
	s.cnt = growI(s.cnt, n)
	for i := 0; i < n; i++ {
		s.cnt[i] = 0
	}
	valid := 0
	for _, src := range sources {
		if src.Node >= 0 && src.Node < n {
			s.cnt[src.Node]++
			valid++
		}
	}
	if cap(s.srcs) >= valid {
		s.srcs = s.srcs[:valid]
	} else {
		s.srcs = make([]windowedSource, valid)
	}
	s.srcPtr[0] = 0
	for i := 0; i < n; i++ {
		s.srcPtr[i+1] = s.srcPtr[i] + s.cnt[i]
		s.cnt[i] = 0
	}
	for _, src := range sources {
		if src.Node >= 0 && src.Node < n {
			s.srcs[s.srcPtr[src.Node]+s.cnt[src.Node]] = src.window()
			s.cnt[src.Node]++
		}
	}
}

// evalSources sets every source's cur to its current at time t. The RK4
// step calls it once per distinct stage time (t, t+dt/2, t+dt): the k2 and
// k3 stages share the mid-step value. Outside a source's window the value
// is its exact zero, with no exp evaluated.
func (s *Solver) evalSources(t float64) {
	for k := range s.srcs {
		src := &s.srcs[k]
		if t <= src.lo || t >= src.hi {
			src.cur = src.zero
		} else {
			src.cur = src.current(t)
		}
	}
}

// indexLinks builds the CSR adjacency with a stable counting sort. Per-node
// neighbour order matches the legacy append order (both endpoints of each
// link inserted at the link's position), keeping the coupling-current
// summation order identical.
func (s *Solver) indexLinks(links []Link, n int) {
	s.adjPtr = growI(s.adjPtr, n+1)
	s.cnt = growI(s.cnt, n)
	for i := 0; i < n; i++ {
		s.cnt[i] = 0
	}
	for _, lk := range links {
		s.cnt[lk.A]++
		s.cnt[lk.B]++
	}
	m := 2 * len(links)
	s.adjNode = growI(s.adjNode, m)
	s.adjInvL = growF(s.adjInvL, m)
	s.adjPtr[0] = 0
	for i := 0; i < n; i++ {
		s.adjPtr[i+1] = s.adjPtr[i] + s.cnt[i]
		s.cnt[i] = 0
	}
	for _, lk := range links {
		invL := 1 / lk.L
		p := s.adjPtr[lk.A] + s.cnt[lk.A]
		s.adjNode[p], s.adjInvL[p] = lk.B, invL
		s.cnt[lk.A]++
		p = s.adjPtr[lk.B] + s.cnt[lk.B]
		s.adjNode[p], s.adjInvL[p] = lk.A, invL
		s.cnt[lk.B]++
	}
}

// derivChain evaluates the chain's sine-Gordon right-hand side, reading the
// source currents set by evalSources. It does less arithmetic than the
// textbook form
//
//	cur += Φ0/2π·(φ[i-1]−φ[i])/L[i-1];  cur += Φ0/2π·(φ[i+1]−φ[i])/L[i]
//
// yet yields the same bits: the coupling current link of inductor i is
// divided out once, added to node i and subtracted from node i+1. That
// relies on a−b = −(b−a) in round-to-nearest, on negation commuting with
// · and /, and on x+(−y) = x−y. The one gap is a = b, where both
// differences are +0 and node i+1 subtracts +0 instead of adding +0; the
// sums differ only when the running current is −0 at that point, which
// needs a node Bias of −0 with no non-zero source current. The per-node
// accumulation order (bias, sources, left link, right link, −Ic·sin φ,
// −damping) and every remaining division are unchanged.
func (s *Solver) derivChain(phi, v, dphi, dv []float64) {
	n := len(phi)
	bias, ic, res, cphi, lNext := s.bias[:n], s.ic[:n], s.res[:n], s.cphi[:n], s.lNext[:n]
	v, dphi, dv = v[:n], dphi[:n], dv[:n]
	srcPtr, srcs := s.srcPtr[:n+1], s.srcs
	var link float64 // coupling current through the inductor left of node i
	for i := 0; i < n; i++ {
		cur := bias[i]
		for k := srcPtr[i]; k < srcPtr[i+1]; k++ {
			cur += srcs[k].cur
		}
		if i > 0 {
			cur -= link
		}
		if i < n-1 {
			link = phi0over2pi * (phi[i+1] - phi[i]) / lNext[i]
			cur += link
		}
		cur -= ic[i] * math.Sin(phi[i])
		cur -= phi0over2pi * v[i] / res[i]
		dphi[i] = v[i]
		dv[i] = cur / cphi[i]
	}
}

// derivCircuit is derivChain over the CSR link graph, with each coupling
// current computed from both of its endpoints.
func (s *Solver) derivCircuit(phi, v, dphi, dv []float64) {
	n := len(phi)
	bias, ic, res, cphi := s.bias[:n], s.ic[:n], s.res[:n], s.cphi[:n]
	v, dphi, dv = v[:n], dphi[:n], dv[:n]
	srcPtr, srcs := s.srcPtr[:n+1], s.srcs
	adjPtr := s.adjPtr[:n+1]
	for i := 0; i < n; i++ {
		cur := bias[i]
		for k := srcPtr[i]; k < srcPtr[i+1]; k++ {
			cur += srcs[k].cur
		}
		for k := adjPtr[i]; k < adjPtr[i+1]; k++ {
			cur += phi0over2pi * (phi[s.adjNode[k]] - phi[i]) * s.adjInvL[k]
		}
		cur -= ic[i] * math.Sin(phi[i])
		cur -= phi0over2pi * v[i] / res[i]
		dphi[i] = v[i]
		dv[i] = cur / cphi[i]
	}
}

// deriv evaluates the right-hand side of the netlist being integrated. It
// is a branch, not a func value picked once per run, because an indirect
// call hides s from escape analysis: a Solver held on the stack
// (Chain.Run, RunObserved) would move to the heap on every run.
func (s *Solver) deriv(chain bool, phi, v, dphi, dv []float64) {
	if chain {
		s.derivChain(phi, v, dphi, dv)
	} else {
		s.derivCircuit(phi, v, dphi, dv)
	}
}

// integrate runs the RK4 loop, streaming each pre-update state to the
// observers. chain selects derivChain vs derivCircuit; errFmt is the
// divergence message format of the corresponding legacy solver, with a
// trailing %w for the guard sentinel. Sources are evaluated once per
// distinct stage time, and the stage constants dt/2 and dt/6 once per run
// (the same expressions, so the same values). Every pollSteps steps the
// loop polls the solver's cancellation watch — allocation-free on every
// path, so the zero-allocation steady state holds whether or not a watch
// is armed.
func (s *Solver) integrate(steps, n int, dt float64, chain bool, errFmt string, obs []Observer) error {
	half, sixth := 0.5*dt, dt/6
	phi, v := s.phi[:n], s.v[:n]
	k1p, k1v, k2p, k2v := s.k1p[:n], s.k1v[:n], s.k2p[:n], s.k2v[:n]
	k3p, k3v, k4p, k4v := s.k3p[:n], s.k3v[:n], s.k4p[:n], s.k4v[:n]
	tp, tv := s.tp[:n], s.tv[:n]
	for step := 0; step < steps; step++ {
		if step&(pollSteps-1) == 0 && s.watch.Canceled() {
			return s.watch.Err()
		}
		t := float64(step) * dt
		for _, o := range obs {
			o.Observe(step, t, phi, v)
		}

		s.evalSources(t)
		s.deriv(chain, phi, v, k1p, k1v)
		for i := 0; i < n; i++ {
			tp[i] = phi[i] + half*k1p[i]
			tv[i] = v[i] + half*k1v[i]
		}
		s.evalSources(t + half)
		s.deriv(chain, tp, tv, k2p, k2v)
		for i := 0; i < n; i++ {
			tp[i] = phi[i] + half*k2p[i]
			tv[i] = v[i] + half*k2v[i]
		}
		s.deriv(chain, tp, tv, k3p, k3v)
		for i := 0; i < n; i++ {
			tp[i] = phi[i] + dt*k3p[i]
			tv[i] = v[i] + dt*k3v[i]
		}
		s.evalSources(t + dt)
		s.deriv(chain, tp, tv, k4p, k4v)

		for i := 0; i < n; i++ {
			phi[i] += sixth * (k1p[i] + 2*k2p[i] + 2*k3p[i] + k4p[i])
			v[i] += sixth * (k1v[i] + 2*k2v[i] + 2*k3v[i] + k4v[i])
			if math.IsNaN(phi[i]) || math.IsInf(phi[i], 0) {
				mDiverged.Inc()
				return fmt.Errorf(errFmt, t/sfq.Picosecond, i, guard.ErrNonFinite)
			}
			if vi := v[i]; vi > divergedPhiDot || vi < -divergedPhiDot {
				mDiverged.Inc()
				return fmt.Errorf(errFmt, t/sfq.Picosecond, i, guard.ErrDiverged)
			}
		}
	}
	mTransients.Inc()
	mSteps.Add(int64(steps))
	return nil
}

// RunChain integrates the chain over duration T with fixed step dt,
// streaming every sample to the observers. After a warm-up run, repeated
// calls over same-sized chains allocate nothing (observers permitting) —
// provided ctx is uncancellable (context.Background()); a cancelable
// context costs one watch registration per run, never per step. The loop
// polls for cancellation every pollSteps steps and returns an error
// satisfying errors.Is against guard.ErrCanceled (or
// guard.ErrDeadlineExceeded) once ctx fires.
func (s *Solver) RunChain(ctx context.Context, c *Chain, T, dt float64, obs ...Observer) error {
	if dt <= 0 || T <= 0 {
		return errors.New("jsim: T and dt must be positive")
	}
	n := len(c.Nodes)
	if n == 0 {
		return errors.New("jsim: empty chain")
	}
	steps := stepCount(T, dt)
	if err := s.budget.Spend(int64(steps)); err != nil {
		return fmt.Errorf("jsim: chain transient of %d steps: %w", steps, err)
	}
	s.watch.Arm(ctx)
	defer s.watch.Disarm()
	s.prepNodes(c.Nodes)
	s.indexSources(c.Sources, n)
	info := RunInfo{Nodes: n, Steps: steps, Dt: dt, Bias: s.bias}
	for _, o := range obs {
		o.Init(info)
	}
	return s.integrate(steps, n, dt, true, "jsim: solution diverged at t=%.3gps node %d: %w", obs)
}

// RunCircuit integrates the link-graph circuit, streaming every sample to
// the observers (the Circuit counterpart of RunChain, with the same
// cancellation and budget semantics).
func (s *Solver) RunCircuit(ctx context.Context, c *Circuit, T, dt float64, obs ...Observer) error {
	if dt <= 0 || T <= 0 {
		return errors.New("jsim: T and dt must be positive")
	}
	n := len(c.Nodes)
	if n == 0 {
		return errors.New("jsim: empty circuit")
	}
	for _, lk := range c.Links {
		if lk.A < 0 || lk.A >= n || lk.B < 0 || lk.B >= n || lk.L <= 0 {
			return fmt.Errorf("jsim: invalid link %+v", lk)
		}
	}
	steps := stepCount(T, dt)
	if err := s.budget.Spend(int64(steps)); err != nil {
		return fmt.Errorf("jsim: circuit transient of %d steps: %w", steps, err)
	}
	s.watch.Arm(ctx)
	defer s.watch.Disarm()
	s.prepNodes(c.Nodes)
	s.indexSources(c.Sources, n)
	s.indexLinks(c.Links, n)
	info := RunInfo{Nodes: n, Steps: steps, Dt: dt, Bias: s.bias}
	for _, o := range obs {
		o.Init(info)
	}
	return s.integrate(steps, n, dt, false, "jsim: circuit diverged at t=%.3gps node %d: %w", obs)
}
