package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"supernpu/internal/experiments"
	"supernpu/internal/parallel"
	"supernpu/internal/simcache"
)

// goldenReport is the checked-in full report every repro-cold op must
// reproduce byte for byte.
const goldenReport = "testdata/golden/full_report.golden"

// batchWorkload is a workload whose op is one call that renders text. Every
// op's text must equal the reference the set-up produced.
type batchWorkload struct {
	// setup is one repetition of the set-up; it returns the reference.
	setup func(ctx context.Context) (want string, err error)
	// op is one measured operation, starting from empty caches.
	op func(ctx context.Context) (string, error)
}

// batchRun is the outcome of one measured phase of a batch workload.
type batchRun struct {
	lat    []time.Duration
	failed int
	phase  phase
	heapMB float64
}

// runReproCold regenerates the whole paper report from empty caches at the
// default worker count, as every supernpu-repro invocation does.
func runReproCold(ctx context.Context, cfg config, traced bool) (*result, error) {
	parallel.SetWorkers(0)
	return reproCold(cfg).run(ctx, cfg, traced)
}

// runMarginSweep runs the bias-margin robustness sweep from empty caches at
// the default worker count. Its reference is the same sweep on one worker.
func runMarginSweep(ctx context.Context, cfg config, traced bool) (*result, error) {
	parallel.SetWorkers(0)
	return marginSweep(cfg).run(ctx, cfg, traced)
}

func reproCold(cfg config) batchWorkload {
	return batchWorkload{
		setup: func(ctx context.Context) (string, error) {
			simcache.ClearAll()
			golden, err := os.ReadFile(filepath.Join(cfg.root, goldenReport))
			if err != nil {
				return "", err
			}
			// One regeneration outside the measured phase settles the
			// runtime (heap size, lazily built tables) first.
			if _, err := experiments.RunAll(ctx); err != nil {
				return "", err
			}
			return string(golden), nil
		},
		op: func(ctx context.Context) (string, error) {
			simcache.ClearAll()
			return experiments.RunAll(ctx)
		},
	}
}

func marginSweep(cfg config) batchWorkload {
	opts := experiments.MarginSweepOptions{Seed: cfg.seed}
	return batchWorkload{
		setup: func(ctx context.Context) (string, error) {
			workers := parallel.Workers()
			parallel.SetWorkers(1)
			defer parallel.SetWorkers(workers)
			simcache.ClearAll()
			return experiments.MarginSweep(ctx, opts)
		},
		op: func(ctx context.Context) (string, error) {
			simcache.ClearAll()
			return experiments.MarginSweep(ctx, opts)
		},
	}
}

func (b batchWorkload) run(ctx context.Context, cfg config, traced bool) (*result, error) {
	var want string
	setupS, err := timeSetup(func() error {
		w, err := b.setup(ctx)
		if err == nil && want != "" && w != want {
			err = errors.New("set-up repetitions produced different references")
		}
		want = w
		return err
	})
	if err != nil {
		return nil, err
	}
	wantSum := sha256.Sum256([]byte(want))
	if !traced {
		r := b.measure(ctx, cfg, cfg.seconds, wantSum, nil)
		return &result{
			Correct:   r.failed == 0,
			Attempted: len(r.lat),
			Failed:    r.failed,
			Metrics:   endToEnd(r.lat, r.phase, r.heapMB, setupS, len(r.lat), r.failed),
		}, nil
	}

	plain := b.measure(ctx, cfg, cfg.seconds/2, wantSum, nil)
	tr := newTracer()
	w := startTracedPhase()
	traced2 := b.measure(ctx, cfg, cfg.seconds/2, wantSum, tr)
	tp := w.finish(len(traced2.lat), traced2.phase, median(ms(plain.lat)), median(ms(traced2.lat)))
	return layerResult(ctx, cfg, tr, tp, len(plain.lat)+len(traced2.lat), plain.failed+traced2.failed)
}

// measure runs ops until d has passed (at least one) and checks each
// output's digest against the reference after the phase ends.
func (b batchWorkload) measure(ctx context.Context, cfg config, d time.Duration, want [32]byte, tr *tracer) batchRun {
	var r batchRun
	var sums [][32]byte
	var errs []error
	s := takeSnapshot()
	for len(r.lat) == 0 || time.Since(s.at) < d {
		id := tr.start("op", 0)
		t := time.Now()
		out, err := b.op(ctx)
		r.lat = append(r.lat, time.Since(t))
		tr.end(id)
		sums = append(sums, sha256.Sum256([]byte(out)))
		errs = append(errs, err)
	}
	r.phase = s.since()
	r.heapMB = heapLiveMB()
	for i := range sums {
		switch {
		case errs[i] != nil:
			r.failed++
			fmt.Fprintf(cfg.log, "op %d: %v\n", i, errs[i])
		case sums[i] != want:
			r.failed++
			fmt.Fprintf(cfg.log, "op %d: output differs from the reference\n", i)
		}
	}
	return r
}
