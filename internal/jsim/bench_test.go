package jsim

import (
	"context"
	"testing"

	"supernpu/internal/sfq"
)

// BenchmarkRunDense measures the legacy dense-history API (now a wrapper
// over the streaming solver + DenseRecorder): a 12-stage JTL transient with
// the full phase/energy history materialised.
func BenchmarkRunDense(b *testing.B) {
	ch := StandardJTL(12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ch.Run(context.Background(), 120*sfq.Picosecond, 0.02*sfq.Picosecond); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunStreaming measures the same transient through a reused Solver
// and streaming observers — the sweep-engine hot path. Steady state is
// allocation-free (pinned by TestSolverSteadyStateAllocs).
func BenchmarkRunStreaming(b *testing.B) {
	ch := StandardJTL(12)
	var (
		s      Solver
		pulse  PulseDetector
		energy EnergyAccumulator
		fin    FinalState
	)
	obs := []Observer{&pulse, &energy, &fin}
	if err := s.RunChain(context.Background(), ch, 120*sfq.Picosecond, 0.02*sfq.Picosecond, obs...); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.RunChain(context.Background(), ch, 120*sfq.Picosecond, 0.02*sfq.Picosecond, obs...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBiasMargins measures one full nominal bias-margin evaluation:
// 25 transient probes, the nominal point plus 12 bisection steps in each
// of two arms.
func BenchmarkBiasMargins(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := biasMargins(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunBatch measures the batched chain runner amortising one solver
// per worker across eight independent JTL transients.
func BenchmarkRunBatch(b *testing.B) {
	const n = 8
	jobs := make([]BatchJob, n)
	fins := make([]FinalState, n)
	for i := range jobs {
		jobs[i] = BatchJob{
			Chain:     StandardJTL(12),
			T:         120 * sfq.Picosecond,
			Dt:        0.02 * sfq.Picosecond,
			Observers: []Observer{&fins[i]},
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := RunBatch(context.Background(), jobs); err != nil {
			b.Fatal(err)
		}
	}
}
