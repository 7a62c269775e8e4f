package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"

	"supernpu/internal/parallel"
	"supernpu/internal/simcache"
)

// root is the repository root as seen from this package's directory.
const root = ".."

// printed runs the benchmark and returns the metric units of its last line.
func printed(t *testing.T, args ...string) map[string]string {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(append(args, "-root", root), &out, &errOut); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("%v: last line has keys %v, want %v", args, keys, want)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%v: correct=%v failed=%d attempted=%d: %s", args, res.Correct, res.Failed, res.Attempted, errOut.String())
	}
	units := map[string]string{}
	for name, m := range res.Metrics {
		units[name] = m.Unit
	}
	return units
}

func declaredUnits(list []struct{ Name, Unit string }) map[string]string {
	out := map[string]string{}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

// TestMetricsMatchBenchmarkJSON runs every workload untraced and traced
// and checks that the metric names and units printed are exactly the ones
// BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	d, err := declaredMetrics(root)
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	for _, w := range names {
		for trace, want := range map[string]map[string]string{
			"0": declaredUnits(d.EndToEnd),
			"1": declaredUnits(d.PerLayer),
		} {
			got := printed(t, "-workload", w, "-seed", "3", "-seconds", "0.2", "-trace", trace)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace %s: printed %v\nBENCHMARK.json declares %v", w, trace, got, want)
			}
		}
	}
}

// TestRequestsReproducible checks the seeded serve-mixed sequence: the same
// seed gives the same bytes, another seed another sequence, and the mix
// holds its shares with every custom network distinct.
func TestRequestsReproducible(t *testing.T) {
	digest := func(seed int64) [32]byte {
		reqs, err := genRequests(seed, 2000)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		customs := map[string]bool{}
		for _, r := range reqs {
			h.Write(r.body)
			if !r.preset {
				customs[string(r.body)] = true
			}
		}
		if len(customs) != 400 {
			t.Errorf("seed %d: %d distinct custom networks in 2000 requests, want 400", seed, len(customs))
		}
		var sum [32]byte
		copy(sum[:], h.Sum(nil))
		return sum
	}
	if digest(7) != digest(7) {
		t.Error("seed 7 generated two different sequences")
	}
	if digest(7) == digest(8) {
		t.Error("seeds 7 and 8 generated the same sequence")
	}
}

// counts runs one op of a batch workload and returns the program's counters
// it moved, the cache statistics it left and its allocation count.
func counts(t *testing.T, b batchWorkload) (map[string]float64, []simcache.Stats, uint64) {
	t.Helper()
	ctx := context.Background()
	want, err := b.setup(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{log: os.Stderr}
	// sync.Pool contents, and with them some allocations, depend on when
	// collections happen: start from emptied pools and collect nothing
	// during the op, so the count is the program's alone.
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w := startTracedPhase()
	r := b.measure(ctx, cfg, 0, sha256.Sum256([]byte(want)), nil)
	tp := w.finish(len(r.lat), r.phase, 1, 1)
	if r.failed != 0 || len(r.lat) != 1 {
		t.Fatalf("%d ops, %d failed", len(r.lat), r.failed)
	}
	moved := map[string]float64{}
	for k, v := range tp.after {
		moved[k] = v - tp.before[k]
	}
	return moved, tp.caches, r.phase.mallocs
}

// allocTolerance is how far one-worker allocation counts may differ
// between identical ops: Go maps seed their hash per map, so how a map's
// table splits as it grows, and with it the count, varies by a few.
const allocTolerance = 1e-4

// TestDeterministicCountsRepeat checks that the counts the benchmark
// reports as exact repeat across runs: repro-cold cache misses and the
// margin sweep's JSIM transients and steps exactly, allocations per op on
// one worker within allocTolerance.
func TestDeterministicCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the report and the margin sweep")
	}
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)

	cfg := config{root: root, seed: 5}
	// The first traced op also fills the encoder caches of the span writer.
	counts(t, reproCold(cfg))
	_, c1, a1 := counts(t, reproCold(cfg))
	_, c2, a2 := counts(t, reproCold(cfg))
	misses := func(cs []simcache.Stats) map[string]int64 {
		out := map[string]int64{}
		for _, c := range cs {
			out[c.Name] = c.Misses
		}
		return out
	}
	if !reflect.DeepEqual(misses(c1), misses(c2)) {
		t.Errorf("repro-cold cache misses differ: %v vs %v", misses(c1), misses(c2))
	}
	if d := float64(a1) - float64(a2); d > allocTolerance*float64(a1) || -d > allocTolerance*float64(a1) {
		t.Errorf("repro-cold allocations per op on one worker differ: %d vs %d", a1, a2)
	}

	m1, _, _ := counts(t, marginSweep(cfg))
	m2, _, _ := counts(t, marginSweep(cfg))
	for _, k := range []string{"supernpu_jsim_transients_total", "supernpu_jsim_steps_total"} {
		if m1[k] <= 0 || m1[k] != m2[k] {
			t.Errorf("margin-sweep %s: %v vs %v", k, m1[k], m2[k])
		}
	}
}

// TestCompareFlagsEnvironment checks that comparing result sets from
// different environments is flagged rather than silent.
func TestCompareFlagsEnvironment(t *testing.T) {
	dir := t.TempDir()
	save := func(name string, e env) string {
		path := filepath.Join(dir, name)
		set := resultSet{Env: e, Workload: "repro-cold", Result: result{
			Correct: true, Attempted: 1,
			Metrics: map[string]metric{"latency_ms_p50": {50, "ms"}},
		}}
		var b bytes.Buffer
		if err := printJSON(&b, map[string]resultSet{"result_set": set}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	here := stamp(1, root)
	other := here
	other.NumCPU++
	a, b, c := save("a", here), save("b", here), save("c", other)

	var out bytes.Buffer
	if code := compareFiles(a, b, &out, &out); code != 0 || strings.Contains(out.String(), "ENVIRONMENT DIFFERS") {
		t.Errorf("same environment: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(a, c, &out, &out); code != 2 || !strings.Contains(out.String(), "ENVIRONMENT DIFFERS: num_cpu") {
		t.Errorf("different environment: exit %d\n%s", code, out.String())
	}
}
