// Package benchparse parses `go test -bench -benchmem` text output into
// per-benchmark measurements and renders them as the deterministic JSON
// artifact of the repo's recorded perf trajectory (`make bench-json`,
// cmd/benchjson).
//
// Benchmark names are stripped of their -GOMAXPROCS suffix; when a name
// appears more than once (-count > 1, or several packages), each quantity
// keeps the median of its repeats, so one run slowed by host load does not
// become the recorded value. Rendered keys are sorted, so identical
// measurements produce identical bytes.
package benchparse

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Result holds one benchmark's parsed measurements. Missing quantities
// (e.g. B/op without -benchmem) stay at -1 and render as JSON null.
type Result struct {
	NsPerOp     float64
	BytesPerOp  float64
	AllocsPerOp float64
}

// ParseLine extracts one benchmark result line of the form
//
//	BenchmarkName-8   100   5481294 ns/op   774080 B/op   6016 allocs/op
//
// returning the bare benchmark name and its measurements. ok is false for
// lines that are not benchmark results (headers, PASS/ok trailers, prose).
func ParseLine(line string) (name string, r Result, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", Result{}, false
	}
	name = fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	r = Result{NsPerOp: -1, BytesPerOp: -1, AllocsPerOp: -1}
	found := false
	for i := 2; i < len(fields)-1; i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
			found = true
		case "B/op":
			r.BytesPerOp = v
			found = true
		case "allocs/op":
			r.AllocsPerOp = v
			found = true
		}
	}
	return name, r, found
}

// Parse reads benchmark output line by line and returns the merged
// measurements by bare benchmark name: each of ns/op, B/op and allocs/op
// is the median of that name's repeats that measured it (see median).
// Lines longer than one MiB are an error, as is any reader failure.
func Parse(rd io.Reader) (map[string]Result, error) {
	runs := map[string][]Result{}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		if name, r, ok := ParseLine(sc.Text()); ok {
			runs[name] = append(runs[name], r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	rows := make(map[string]Result, len(runs))
	for name, rs := range runs {
		rows[name] = Result{
			NsPerOp:     median(rs, func(r Result) float64 { return r.NsPerOp }),
			BytesPerOp:  median(rs, func(r Result) float64 { return r.BytesPerOp }),
			AllocsPerOp: median(rs, func(r Result) float64 { return r.AllocsPerOp }),
		}
	}
	return rows, nil
}

// median returns the median of one quantity over the repeats that measured
// it (absent values, -1, are skipped), or -1 when none did. An even count
// takes the mean of the two middle values.
func median(rs []Result, field func(Result) float64) float64 {
	vs := make([]float64, 0, len(rs))
	for _, r := range rs {
		if v := field(r); v >= 0 {
			vs = append(vs, v)
		}
	}
	if len(vs) == 0 {
		return -1
	}
	sort.Float64s(vs)
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}

// RenderJSON renders the measurements as the benchjson artifact: one
// object keyed by sorted benchmark name, each value carrying ns_per_op,
// bytes_per_op and allocs_per_op (absent measurements as null).
func RenderJSON(rows map[string]Result) string {
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	b.WriteString("{\n")
	for i, name := range names {
		r := rows[name]
		fmt.Fprintf(&b, "  %q: {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
			name, num(r.NsPerOp), num(r.BytesPerOp), num(r.AllocsPerOp))
		if i < len(names)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("}\n")
	return b.String()
}

// num renders a measurement, with -1 (absent) as JSON null.
func num(v float64) string {
	if v < 0 {
		return "null"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// jsonResult mirrors one RenderJSON value for reading artifacts back;
// pointers distinguish JSON null (absent measurement) from zero.
type jsonResult struct {
	NsPerOp     *float64 `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op"`
}

// ParseJSON reads a benchjson artifact (the RenderJSON format) back into
// measurements by benchmark name, with null measurements restored to -1.
func ParseJSON(rd io.Reader) (map[string]Result, error) {
	var raw map[string]jsonResult
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("benchjson artifact: %w", err)
	}
	rows := make(map[string]Result, len(raw))
	for name, jr := range raw {
		r := Result{NsPerOp: -1, BytesPerOp: -1, AllocsPerOp: -1}
		if jr.NsPerOp != nil {
			r.NsPerOp = *jr.NsPerOp
		}
		if jr.BytesPerOp != nil {
			r.BytesPerOp = *jr.BytesPerOp
		}
		if jr.AllocsPerOp != nil {
			r.AllocsPerOp = *jr.AllocsPerOp
		}
		rows[name] = r
	}
	return rows, nil
}

// Delta is one benchmark's ns/op movement between two recorded artifacts.
type Delta struct {
	Name         string
	OldNs, NewNs float64
	// Ratio is NewNs/OldNs: above 1 the benchmark got slower.
	Ratio float64
}

// Compare matches two artifacts by benchmark name and returns the ns/op
// deltas over their intersection, sorted by name. Benchmarks present on
// only one side (added or retired) or without an ns/op measurement are
// skipped — the comparison gates drift on the shared trajectory, it does
// not demand identical benchmark sets across PRs.
func Compare(old, cur map[string]Result) []Delta {
	var deltas []Delta
	for name, o := range old {
		n, ok := cur[name]
		if !ok || o.NsPerOp <= 0 || n.NsPerOp < 0 {
			continue
		}
		deltas = append(deltas, Delta{Name: name, OldNs: o.NsPerOp, NewNs: n.NsPerOp, Ratio: n.NsPerOp / o.NsPerOp})
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	return deltas
}

// Regressions filters deltas to those whose slowdown ratio exceeds the
// threshold (e.g. 1.5 = fail anything more than 50% slower).
func Regressions(deltas []Delta, threshold float64) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Ratio > threshold {
			out = append(out, d)
		}
	}
	return out
}

// RenderCompare renders deltas as an aligned text table with a
// human-readable ratio column.
func RenderCompare(deltas []Delta) string {
	var b strings.Builder
	w := len("benchmark")
	for _, d := range deltas {
		if len(d.Name) > w {
			w = len(d.Name)
		}
	}
	fmt.Fprintf(&b, "%-*s  %14s  %14s  %7s\n", w, "benchmark", "old ns/op", "new ns/op", "ratio")
	for _, d := range deltas {
		fmt.Fprintf(&b, "%-*s  %14s  %14s  %6.2fx\n", w, d.Name,
			strconv.FormatFloat(d.OldNs, 'g', -1, 64),
			strconv.FormatFloat(d.NewNs, 'g', -1, 64), d.Ratio)
	}
	return b.String()
}
