package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"supernpu/internal/arch"
	"supernpu/internal/estimator"
	"supernpu/internal/experiments"
	"supernpu/internal/faultinject"
	"supernpu/internal/jsim"
	"supernpu/internal/mapper"
	"supernpu/internal/npusim"
	"supernpu/internal/obs"
	"supernpu/internal/parallel"
	"supernpu/internal/scalesim"
	"supernpu/internal/simcache"
	"supernpu/internal/workload"
)

// probeReps is how many times each layer probe repeats; times are medians.
const probeReps = 3

// replayTolerance bounds the share of the serial replay's wall time that
// its exhibits' self times may leave unaccounted for.
const replayTolerance = 0.05

// tracedPhase is what the traced part of a run observed of the workload.
type tracedPhase struct {
	ops                 int
	phase               phase
	before, after       map[string]float64
	caches              []simcache.Stats
	p50Plain, p50Traced float64
	programSpans        []byte
}

// tracedWatch brackets the traced phase: the program's own spans go to an
// in-memory buffer and its counters are scraped at both ends.
type tracedWatch struct {
	before map[string]float64
	spans  *bytes.Buffer
}

func startTracedPhase() *tracedWatch {
	w := &tracedWatch{before: scrape(), spans: &bytes.Buffer{}}
	obs.SetTraceWriter(w.spans)
	return w
}

func (w *tracedWatch) finish(ops int, p phase, p50Plain, p50Traced float64) tracedPhase {
	obs.SetTraceWriter(nil)
	return tracedPhase{
		ops: ops, phase: p,
		before: w.before, after: scrape(),
		caches:   simcache.Snapshot(),
		p50Plain: p50Plain, p50Traced: p50Traced,
		programSpans: w.spans.Bytes(),
	}
}

// checks counts the traced run's correctness and consistency checks.
type checks struct {
	attempted, failed int
	log               io.Writer
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(c.log, "check failed: "+format+"\n", args...)
	}
}

// layerResult assembles the per-layer metrics of a traced run: counts from
// the workload's traced phase, then timed calls into each layer's public
// functions, made serially from empty caches.
func layerResult(ctx context.Context, cfg config, tr *tracer, tp tracedPhase, attempted, failed int) (*result, error) {
	c := &checks{attempted: attempted, failed: failed, log: cfg.log}
	m := map[string]metric{}
	ops := float64(tp.ops)
	delta := func(series string) float64 { return tp.after[series] - tp.before[series] }
	perOp := func(series string) float64 { return delta(series) / ops }
	m["npusim.layer_sites"] = metric{perOp("supernpu_npusim_layer_sites_total"), "count/op"}
	m["estimator.estimates"] = metric{perOp("supernpu_estimator_estimates_total"), "count/op"}
	m["jsim.transients"] = metric{perOp("supernpu_jsim_transients_total"), "count/op"}
	m["jsim.steps"] = metric{perOp("supernpu_jsim_steps_total"), "count/op"}
	m["parallel.tasks"] = metric{perOp("supernpu_pool_tasks_total"), "count/op"}
	m["parallel.queue_wait_ms_sum"] = metric{1e3 * perOp("supernpu_pool_queue_wait_seconds_sum"), "ms/op"}
	m["server.shed_total"] = metric{delta("supernpu_http_shed_total"), "count"}
	m["server.degraded_total"] = metric{delta("supernpu_http_degraded_total"), "count"}
	m["runtime.gc_cycles"] = metric{float64(tp.phase.gcCycles) / ops, "count/op"}
	m["runtime.gc_pause_ms_total"] = metric{float64(tp.phase.gcPause) / 1e6, "ms"}
	m["bench.trace_overhead_ratio"] = metric{tp.p50Traced / tp.p50Plain, "ratio"}
	c.check(tp.p50Traced > 0 && tp.p50Plain > 0, "trace overhead ratio needs positive latencies")
	cacheMetrics(m, tp.caches, cfg.root)

	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	probes := tr.start("probes", 0)
	if err := probeExhibits(ctx, cfg, tr, probes, m, c); err != nil {
		return nil, err
	}
	if err := probeModels(ctx, cfg, tr, probes, m); err != nil {
		return nil, err
	}
	reqs, err := genRequests(cfg.seed, roundRequests)
	if err != nil {
		return nil, err
	}
	if err := probeServing(ctx, reqs, tr, probes, m, c); err != nil {
		return nil, err
	}
	tr.end(probes)

	dir := filepath.Join(cfg.root, ".bench_build", "trace")
	if err := tr.write(filepath.Join(dir, cfg.name+".spans.jsonl")); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, cfg.name+".program-spans.jsonl"), tp.programSpans, 0o644); err != nil {
		return nil, err
	}
	return &result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: m}, nil
}

// cacheMetrics reports every memo-cache family the program registers. A
// family BENCHMARK.json still names but the program no longer has holds
// nothing, so it reports zeros.
func cacheMetrics(m map[string]metric, caches []simcache.Stats, root string) {
	for _, s := range caches {
		p := "simcache." + s.Name + "."
		m[p+"hits"] = metric{float64(s.Hits), "count"}
		m[p+"misses"] = metric{float64(s.Misses), "count"}
		m[p+"hit_ratio"] = metric{s.HitRate(), "ratio"}
		m[p+"entries"] = metric{float64(s.Entries), "count"}
	}
	declared, err := declaredMetrics(root)
	if err != nil {
		return
	}
	for _, d := range declared.PerLayer {
		if _, ok := m[d.Name]; !ok && strings.HasPrefix(d.Name, "simcache.") {
			m[d.Name] = metric{0, d.Unit}
		}
	}
}

// declared is the part of BENCHMARK.json that names metrics.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func declaredMetrics(root string) (declared, error) {
	var d declared
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return d, err
	}
	return d, json.Unmarshal(data, &d)
}

// probeExhibits regenerates the report serially, one exhibit call at a
// time, checks it against the golden report, and checks that the exhibits'
// self times add up to the report's wall time.
func probeExhibits(ctx context.Context, cfg config, tr *tracer, parent int, m map[string]metric, c *checks) error {
	golden, err := os.ReadFile(filepath.Join(cfg.root, goldenReport))
	if err != nil {
		return err
	}
	ids := experiments.IDs()
	each := make([][]float64, len(ids))
	var shares []float64
	for rep := 0; rep < probeReps; rep++ {
		simcache.ClearAll()
		runtime.GC()
		var b strings.Builder
		var sum float64
		report := tr.start("experiments.report_serial", parent)
		start := time.Now()
		for i, id := range ids {
			var out string
			d := tr.timed("experiments."+id, report, func() { out, err = experiments.Run(ctx, id) })
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			each[i] = append(each[i], float64(d)/1e6)
			sum += float64(d) / 1e6
			b.WriteString(out)
			b.WriteString("\n")
		}
		wall := float64(time.Since(start)) / 1e6
		tr.end(report)
		c.check(b.String() == string(golden), "serial report differs from %s", goldenReport)
		shares = append(shares, sum/wall)
	}
	for i, id := range ids {
		// Exhibits record no child spans, so an exhibit's self time is its
		// whole duration.
		m["experiments."+id+"_ms"] = metric{median(each[i]), "ms"}
	}
	share := median(shares)
	c.check(share > 1-replayTolerance && share <= 1,
		"exhibit self times sum to %.3f of the serial report's wall time (tolerance %.0f%%)", share, 100*replayTolerance)
	return nil
}

// marginModels are the fault models of the margin sweep at the given seed:
// the exhibit's default spreads and secondary-rate couplings.
func marginModels(seed int64) []*faultinject.Model {
	spreads := []float64{0, 0.02, 0.04, 0.06, 0.08, 0.10}
	out := make([]*faultinject.Model, len(spreads))
	for i, s := range spreads {
		out[i] = &faultinject.Model{Seed: seed, IcSpread: s, PulseDrop: 1e-4 * s, BitFlip: 1e-2 * s, MarginErosion: 0.5 * s}
	}
	return out
}

// probeModels times the modelling layers beneath the exhibits: the mapper's
// tile plans, the estimator, the two cycle simulators and the JSIM margin
// bisections, each from empty caches.
func probeModels(ctx context.Context, cfg config, tr *tracer, parent int, m map[string]metric) error {
	nets := workload.All()
	designs := arch.Designs()
	superNPU, tpu := arch.SuperNPU(), scalesim.TPU()
	models := marginModels(cfg.seed)
	resnet, err := workload.ByName("ResNet50")
	if err != nil {
		return err
	}

	var tilesMs, tilesMB, estMs, npuMs, scaleMs, faultMs, jsimMs, steps []float64
	for rep := 0; rep < probeReps; rep++ {
		simcache.ClearAll()
		s := takeSnapshot()
		tr.timed("mapper.tiles", parent, func() {
			for _, n := range nets {
				for _, l := range n.ComputeLayers() {
					mapper.Tiles(l, superNPU.ArrayHeight, superNPU.ArrayWidth, superNPU.Registers)
					mapper.Tiles(l, tpu.ArrayHeight, tpu.ArrayWidth, 1)
				}
			}
		})
		p := s.since()
		tilesMs = append(tilesMs, float64(p.wall)/1e6)
		tilesMB = append(tilesMB, float64(p.allocBytes)/1e6)

		simcache.ClearAll()
		d := tr.timed("estimator.estimate", parent, func() {
			for _, d := range designs {
				if _, e := estimator.Estimate(ctx, d); e != nil && err == nil {
					err = e
				}
			}
		})
		if err != nil {
			return err
		}
		estMs = append(estMs, float64(d)/1e6)

		// The estimates stay warm so the simulators are timed alone.
		simcache.ClearAll()
		for _, d := range designs {
			if _, err := estimator.Estimate(ctx, d); err != nil {
				return err
			}
		}
		d = tr.timed("npusim.simulate", parent, func() {
			for _, d := range designs {
				for _, n := range nets {
					if _, e := npusim.Simulate(ctx, d, n, 0); e != nil && err == nil {
						err = e
					}
				}
			}
		})
		if err != nil {
			return err
		}
		npuMs = append(npuMs, float64(d)/1e6)

		simcache.ClearAll()
		d = tr.timed("scalesim.simulate", parent, func() {
			for _, n := range nets {
				if _, e := scalesim.Simulate(ctx, tpu, n, 0); e != nil && err == nil {
					err = e
				}
			}
		})
		if err != nil {
			return err
		}
		scaleMs = append(scaleMs, float64(d)/1e6)

		simcache.ClearAll()
		d = tr.timed("npusim.simulate_faulted", parent, func() {
			for _, fm := range models {
				if _, e := npusim.SimulateFaulted(ctx, superNPU, resnet, 1, fm); e != nil && err == nil {
					err = e
				}
			}
		})
		if err != nil {
			return err
		}
		faultMs = append(faultMs, float64(d)/1e6)

		simcache.ClearAll()
		before := scrape()
		d = tr.timed("jsim.margin_batch", parent, func() { _, err = jsim.BiasMarginsFaultedBatch(ctx, models) })
		if err != nil {
			return err
		}
		jsimMs = append(jsimMs, float64(d)/1e6)
		steps = append(steps, scrape()["supernpu_jsim_steps_total"]-before["supernpu_jsim_steps_total"])
	}
	m["mapper.tiles_ms_total"] = metric{median(tilesMs), "ms"}
	m["mapper.tiles_alloc_mb"] = metric{median(tilesMB), "MB"}
	m["estimator.estimate_cold_ms_total"] = metric{median(estMs), "ms"}
	m["npusim.simulate_cold_ms_total"] = metric{median(npuMs), "ms"}
	m["scalesim.simulate_cold_ms_total"] = metric{median(scaleMs), "ms"}
	m["npusim.simulate_faulted_ms_total"] = metric{median(faultMs), "ms"}
	jms := median(jsimMs)
	m["jsim.margin_batch_ms"] = metric{jms, "ms"}
	m["jsim.steps_per_us"] = metric{median(steps) / (jms * 1e3), "1/us"}
	return nil
}
