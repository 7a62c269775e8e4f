package benchparse

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	tests := []struct {
		name     string
		line     string
		wantName string
		want     Result
		wantOK   bool
	}{
		{
			name:     "full benchmem line",
			line:     "BenchmarkRunAll-8   100   5481294 ns/op   774080 B/op   6016 allocs/op",
			wantName: "BenchmarkRunAll",
			want:     Result{NsPerOp: 5481294, BytesPerOp: 774080, AllocsPerOp: 6016},
			wantOK:   true,
		},
		{
			name:     "missing allocs and bytes columns",
			line:     "BenchmarkSolver-4   2000   81234 ns/op",
			wantName: "BenchmarkSolver",
			want:     Result{NsPerOp: 81234, BytesPerOp: -1, AllocsPerOp: -1},
			wantOK:   true,
		},
		{
			name:     "no GOMAXPROCS suffix",
			line:     "BenchmarkEstimate   500   220000 ns/op",
			wantName: "BenchmarkEstimate",
			want:     Result{NsPerOp: 220000, BytesPerOp: -1, AllocsPerOp: -1},
			wantOK:   true,
		},
		{
			name:     "non-numeric suffix is kept",
			line:     "BenchmarkSweep-wide   10   9e6 ns/op",
			wantName: "BenchmarkSweep-wide",
			want:     Result{NsPerOp: 9e6, BytesPerOp: -1, AllocsPerOp: -1},
			wantOK:   true,
		},
		{
			name:   "fractional ns with sub-benchmark path",
			line:   "BenchmarkCache/hit-16   1000000000   0.5 ns/op   0 B/op   0 allocs/op",
			want:   Result{NsPerOp: 0.5, BytesPerOp: 0, AllocsPerOp: 0},
			wantOK: true, wantName: "BenchmarkCache/hit",
		},
		{name: "header line", line: "goos: linux"},
		{name: "ok trailer", line: "ok  	supernpu/internal/jsim	4.2s"},
		{name: "pass line", line: "PASS"},
		{name: "empty line", line: ""},
		{name: "benchmark with no units", line: "BenchmarkBroken-8 12 34 56"},
		{name: "too few fields", line: "BenchmarkShort-8 100"},
		{name: "unit without number", line: "BenchmarkOdd-8 100 fast ns/op"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			name, r, ok := ParseLine(tt.line)
			if ok != tt.wantOK {
				t.Fatalf("ParseLine(%q) ok = %v, want %v", tt.line, ok, tt.wantOK)
			}
			if !ok {
				return
			}
			if name != tt.wantName {
				t.Errorf("name = %q, want %q", name, tt.wantName)
			}
			if r != tt.want {
				t.Errorf("result = %+v, want %+v", r, tt.want)
			}
		})
	}
}

func TestParseMultipleBenchmarks(t *testing.T) {
	in := strings.Join([]string{
		"goos: linux",
		"goarch: amd64",
		"pkg: supernpu/internal/jsim",
		"BenchmarkSolver-8   2000   81234 ns/op   0 B/op   0 allocs/op",
		"BenchmarkExtract-8   300   412000 ns/op   1024 B/op   12 allocs/op",
		"PASS",
		"pkg: supernpu",
		"BenchmarkRunAll-8   10   5481294 ns/op",
		"ok  	supernpu	2.1s",
	}, "\n")
	rows, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("parsed %d rows, want 3: %v", len(rows), rows)
	}
	if r := rows["BenchmarkExtract"]; r.AllocsPerOp != 12 {
		t.Errorf("BenchmarkExtract allocs = %v, want 12", r.AllocsPerOp)
	}
	if r := rows["BenchmarkRunAll"]; r.BytesPerOp != -1 {
		t.Errorf("BenchmarkRunAll bytes = %v, want -1 (absent)", r.BytesPerOp)
	}
}

// Repeated names (-count N) keep the per-quantity median of their
// repeats: odd counts take the middle value, even counts the mean of the
// two middle values, and repeats missing a quantity do not vote on it.
func TestParseRepeatsTakeMedian(t *testing.T) {
	tests := []struct {
		name  string
		lines []string
		want  Result
	}{
		{
			name:  "single run",
			lines: []string{"BenchmarkX-8 100 111 ns/op 64 B/op 2 allocs/op"},
			want:  Result{NsPerOp: 111, BytesPerOp: 64, AllocsPerOp: 2},
		},
		{
			name: "odd count takes the middle value, not the last",
			lines: []string{
				"BenchmarkX-8 100 300 ns/op 64 B/op 2 allocs/op",
				"BenchmarkX-8 100 100 ns/op 64 B/op 2 allocs/op",
				"BenchmarkX-8 100 900 ns/op 80 B/op 3 allocs/op",
				"BenchmarkX-8 100 200 ns/op 64 B/op 2 allocs/op",
				"BenchmarkX-8 100 250 ns/op 64 B/op 2 allocs/op",
			},
			want: Result{NsPerOp: 250, BytesPerOp: 64, AllocsPerOp: 2},
		},
		{
			name:  "even count averages the middle pair",
			lines: []string{"BenchmarkX-8 100 111 ns/op", "BenchmarkX-16 100 222 ns/op"},
			want:  Result{NsPerOp: 166.5, BytesPerOp: -1, AllocsPerOp: -1},
		},
		{
			name: "quantities are medians independently",
			lines: []string{
				"BenchmarkX-8 100 10 ns/op 900 B/op 1 allocs/op",
				"BenchmarkX-8 100 30 ns/op 100 B/op 9 allocs/op",
				"BenchmarkX-8 100 20 ns/op 500 B/op 5 allocs/op",
			},
			want: Result{NsPerOp: 20, BytesPerOp: 500, AllocsPerOp: 5},
		},
		{
			name: "absent quantities do not vote",
			lines: []string{
				"BenchmarkX-8 100 10 ns/op",
				"BenchmarkX-8 100 40 ns/op 128 B/op 4 allocs/op",
				"BenchmarkX-8 100 20 ns/op",
			},
			want: Result{NsPerOp: 20, BytesPerOp: 128, AllocsPerOp: 4},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rows, err := Parse(strings.NewReader(strings.Join(tc.lines, "\n")))
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 1 || rows["BenchmarkX"] != tc.want {
				t.Fatalf("rows = %v, want BenchmarkX %+v", rows, tc.want)
			}
		})
	}
}

func TestParseEmptyInput(t *testing.T) {
	rows, err := Parse(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("rows = %v, want none", rows)
	}
}

func TestRenderJSON(t *testing.T) {
	rows := map[string]Result{
		"BenchmarkB": {NsPerOp: 2, BytesPerOp: -1, AllocsPerOp: -1},
		"BenchmarkA": {NsPerOp: 1.5, BytesPerOp: 64, AllocsPerOp: 3},
	}
	out := RenderJSON(rows)

	// The artifact must be valid JSON with nulls for absent measurements.
	var decoded map[string]map[string]*float64
	if err := json.Unmarshal([]byte(out), &decoded); err != nil {
		t.Fatalf("RenderJSON output is not valid JSON: %v\n%s", err, out)
	}
	if decoded["BenchmarkB"]["bytes_per_op"] != nil {
		t.Error("absent bytes_per_op did not render as null")
	}
	if v := decoded["BenchmarkA"]["ns_per_op"]; v == nil || *v != 1.5 {
		t.Errorf("ns_per_op = %v, want 1.5", v)
	}

	// Keys render sorted, so the bytes are deterministic.
	if strings.Index(out, "BenchmarkA") > strings.Index(out, "BenchmarkB") {
		t.Errorf("keys not sorted:\n%s", out)
	}
	if out != RenderJSON(rows) {
		t.Error("RenderJSON is not deterministic across calls")
	}
}

func TestParseJSONRoundTrip(t *testing.T) {
	rows := map[string]Result{
		"BenchmarkFast": {NsPerOp: 1234.5, BytesPerOp: 64, AllocsPerOp: 2},
		"BenchmarkBare": {NsPerOp: 9, BytesPerOp: -1, AllocsPerOp: -1},
	}
	back, err := ParseJSON(strings.NewReader(RenderJSON(rows)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rows) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, rows)
	}
}

func TestParseJSONRejectsGarbage(t *testing.T) {
	if _, err := ParseJSON(strings.NewReader("not json")); err == nil {
		t.Error("garbage input parsed without error")
	}
}

func TestCompareIntersectionAndRatios(t *testing.T) {
	old := map[string]Result{
		"BenchmarkShared":  {NsPerOp: 100},
		"BenchmarkRetired": {NsPerOp: 50},
		"BenchmarkNoNs":    {NsPerOp: -1, AllocsPerOp: 3},
		"BenchmarkZero":    {NsPerOp: 0},
	}
	cur := map[string]Result{
		"BenchmarkShared": {NsPerOp: 150},
		"BenchmarkAdded":  {NsPerOp: 7},
		"BenchmarkNoNs":   {NsPerOp: 5},
		"BenchmarkZero":   {NsPerOp: 5},
	}
	deltas := Compare(old, cur)
	want := []Delta{{Name: "BenchmarkShared", OldNs: 100, NewNs: 150, Ratio: 1.5}}
	if !reflect.DeepEqual(deltas, want) {
		t.Errorf("Compare = %+v, want %+v", deltas, want)
	}
}

func TestCompareSortsByName(t *testing.T) {
	old := map[string]Result{"BenchmarkB": {NsPerOp: 1}, "BenchmarkA": {NsPerOp: 2}, "BenchmarkC": {NsPerOp: 3}}
	deltas := Compare(old, old)
	if len(deltas) != 3 || deltas[0].Name != "BenchmarkA" || deltas[1].Name != "BenchmarkB" || deltas[2].Name != "BenchmarkC" {
		t.Errorf("deltas not sorted by name: %+v", deltas)
	}
	for _, d := range deltas {
		if d.Ratio != 1 {
			t.Errorf("self-comparison ratio %v != 1 for %s", d.Ratio, d.Name)
		}
	}
}

func TestRegressionsThreshold(t *testing.T) {
	deltas := []Delta{
		{Name: "BenchmarkOK", Ratio: 1.2},
		{Name: "BenchmarkEdge", Ratio: 1.5},
		{Name: "BenchmarkBad", Ratio: 1.51},
	}
	regs := Regressions(deltas, 1.5)
	if len(regs) != 1 || regs[0].Name != "BenchmarkBad" {
		t.Errorf("Regressions = %+v, want only BenchmarkBad", regs)
	}
	if got := Regressions(deltas, 2); len(got) != 0 {
		t.Errorf("Regressions above all ratios = %+v, want none", got)
	}
}

func TestRenderCompareTable(t *testing.T) {
	out := RenderCompare([]Delta{
		{Name: "BenchmarkShared", OldNs: 100, NewNs: 150, Ratio: 1.5},
		{Name: "BenchmarkLongerName", OldNs: 2000, NewNs: 1000, Ratio: 0.5},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("table has %d lines, want header + 2 rows:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "benchmark") || !strings.Contains(lines[0], "ratio") {
		t.Errorf("missing header: %q", lines[0])
	}
	if !strings.Contains(lines[1], "1.50x") || !strings.Contains(lines[2], "0.50x") {
		t.Errorf("ratios not rendered:\n%s", out)
	}
}
