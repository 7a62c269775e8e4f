package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"supernpu/internal/obs"
	"supernpu/internal/parallel"
)

// env stamps a result set with what its numbers depend on besides the code.
type env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	Workers    int    `json:"workers"`
	Seed       int64  `json:"seed"`
	// Commit is the VCS revision the binary was built from, or, in a
	// checkout without version control, a digest of the Go sources.
	Commit string `json:"commit"`
}

func stamp(seed int64, root string) env {
	return env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Workers:    parallel.Workers(),
		Seed:       seed,
		Commit:     commit(root),
	}
}

func commit(root string) string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "source:" + sourceDigest(root)
}

// sourceDigest hashes every go.mod and .go file under root (hidden
// directories such as the build directory excluded) in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() != "go.mod" && !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// envDiffs lists the environment fields on which two result sets differ.
// Seed and commit identify what was measured, so they are not compared.
func envDiffs(a, b env) []string {
	var out []string
	add := func(field string, x, y any) {
		if x != y {
			out = append(out, fmt.Sprintf("%s %v vs %v", field, x, y))
		}
	}
	add("num_cpu", a.NumCPU, b.NumCPU)
	add("gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
	add("go_version", a.GoVersion, b.GoVersion)
	add("platform", a.Platform, b.Platform)
	add("workers", a.Workers, b.Workers)
	return out
}

// compareFiles prints the metric ratios between the result sets saved in
// two benchmark outputs. It exits 2 when the environments differ: the
// ratios are still printed, but flagged as not comparable.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResultSet(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := readResultSet(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		fmt.Fprintf(stderr, "perfbench: %s (trace %v) and %s (trace %v) are different runs\n",
			a.Workload, a.Trace, b.Workload, b.Trace)
		return 1
	}
	diffs := envDiffs(a.Env, b.Env)
	for _, d := range diffs {
		fmt.Fprintf(stdout, "ENVIRONMENT DIFFERS: %s\n", d)
	}
	fmt.Fprintf(stdout, "%s  %s (seed %d) -> %s (seed %d)\n", a.Workload, a.Env.Commit, a.Env.Seed, b.Env.Commit, b.Env.Seed)
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		x := a.Result.Metrics[n]
		y, ok := b.Result.Metrics[n]
		switch {
		case !ok:
			fmt.Fprintf(stdout, "%-40s %14.6g %14s %s\n", n, x.Value, "missing", x.Unit)
		case x.Value > 0:
			fmt.Fprintf(stdout, "%-40s %14.6g %14.6g %s  x%.3f\n", n, x.Value, y.Value, x.Unit, y.Value/x.Value)
		default:
			fmt.Fprintf(stdout, "%-40s %14.6g %14.6g %s\n", n, x.Value, y.Value, x.Unit)
		}
	}
	if len(diffs) > 0 {
		fmt.Fprintln(stdout, "ratios above compare different environments")
		return 2
	}
	return 0
}

// readResultSet finds the last result_set line in a saved output.
func readResultSet(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return resultSet{}, err
	}
	defer f.Close()
	var found *resultSet
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var line struct {
			Set *resultSet `json:"result_set"`
		}
		if json.Unmarshal(sc.Bytes(), &line) == nil && line.Set != nil {
			found = line.Set
		}
	}
	if err := sc.Err(); err != nil {
		return resultSet{}, fmt.Errorf("%s: %w", path, err)
	}
	if found == nil {
		return resultSet{}, fmt.Errorf("%s: no result_set line", path)
	}
	return *found, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts durations to milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// snapshot is the process state at the start of a measured phase.
type snapshot struct {
	at  time.Time
	cpu time.Duration
	mem runtime.MemStats
}

// phase is what happened in the process between a snapshot and now.
type phase struct {
	wall, cpu  time.Duration
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func (p *phase) add(q phase) {
	p.wall += q.wall
	p.cpu += q.cpu
	p.allocBytes += q.allocBytes
	p.mallocs += q.mallocs
	p.gcCycles += q.gcCycles
	p.gcPause += q.gcPause
}

func takeSnapshot() snapshot {
	var s snapshot
	runtime.ReadMemStats(&s.mem)
	s.cpu = cpuTime()
	s.at = time.Now()
	return s
}

func (s snapshot) since() phase {
	wall := time.Since(s.at)
	cpu := cpuTime()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return phase{
		wall:       wall,
		cpu:        cpu - s.cpu,
		allocBytes: m.TotalAlloc - s.mem.TotalAlloc,
		mallocs:    m.Mallocs - s.mem.Mallocs,
		gcCycles:   m.NumGC - s.mem.NumGC,
		gcPause:    time.Duration(m.PauseTotalNs - s.mem.PauseTotalNs),
	}
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapLiveMB forces a collection and returns the live heap in MB.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// tailSamples is how many ops a reported tail percentile must leave above
// it. A run with too few ops for p90 or p99 reports, under that name, the
// highest percentile its op count supports. Ten ops suffice in a quiet
// machine; twenty keep a tail steady when the VM is descheduled in bursts.
const tailSamples = 20

// tail returns the q-quantile of l, capped at the highest quantile that
// still has tailSamples ops beyond it.
func tail(l []float64, q float64) float64 {
	if limit := 1 - tailSamples/float64(len(l)); q > limit {
		q = max(limit, 0.5)
	}
	return quantile(l, q)
}

// endToEnd turns op latencies and the measured phase into the end-to-end
// metrics every workload prints.
func endToEnd(lat []time.Duration, p phase, heapMB, setupS float64, attempted, failed int) map[string]metric {
	n := float64(len(lat))
	l := ms(lat)
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"throughput_per_s": {n / p.wall.Seconds(), "1/s"},
		"latency_ms_p50":   {quantile(l, 0.50), "ms"},
		"latency_ms_p90":   {tail(l, 0.90), "ms"},
		"latency_ms_p99":   {tail(l, 0.99), "ms"},
		"success_rate":     {1 - float64(failed)/float64(attempted), "ratio"},
		"cpu_ms_per_op":    {float64(p.cpu) / 1e6 / n, "ms"},
		"alloc_mb_per_op":  {float64(p.allocBytes) / 1e6 / n, "MB"},
		"allocs_per_op":    {float64(p.mallocs) / n, "count"},
		"heap_live_mb_end": {heapMB, "MB"},
	}
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 5

// timeSetup runs fn setupReps times and returns the median wall time.
func timeSetup(fn func() error) (float64, error) {
	times := make([]float64, setupReps)
	for i := range times {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		times[i] = time.Since(t).Seconds()
	}
	return median(times), nil
}

// scrape reads the program's metrics registry, as served on /metrics, into
// a map from "name{labels}" to value.
func scrape() map[string]float64 {
	var b bytes.Buffer
	_ = obs.Default.WritePrometheus(&b) // a bytes.Buffer write cannot fail
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// span is one timed call recorded by the benchmark's own code.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent (0 for a root) and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	s := &t.spans[id-1]
	s.Dur = now - s.Start
	t.mu.Unlock()
}

// timed records fn as a span and returns its duration.
func (t *tracer) timed(name string, parent int, fn func()) time.Duration {
	id := t.start(name, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
