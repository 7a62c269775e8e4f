// Command benchjson converts `go test -bench -benchmem` text output (read
// from stdin) into a deterministic JSON artifact mapping each benchmark
// name to its measured ns/op, B/op and allocs/op — the format of the
// repo's recorded perf trajectory (BENCH_PR*.json, written by `make
// bench-json`). A name repeated by -count N records the median of its
// repeats. The parsing and rendering live in
// internal/benchparse; this command is the stdin/stdout shell around them.
//
// With -compare it instead diffs two recorded artifacts, printing the
// per-benchmark ns/op deltas over their shared names and exiting non-zero
// when any benchmark got slower than the -threshold ratio allows.
//
// Usage:
//
//	go test -run=NONE -bench=. -benchmem ./... | benchjson > BENCH.json
//	benchjson -compare [-threshold 1.5] OLD.json NEW.json
package main

import (
	"flag"
	"fmt"
	"os"

	"supernpu/internal/benchparse"
)

func main() {
	compare := flag.Bool("compare", false, "compare two benchjson artifacts (OLD.json NEW.json) instead of reading bench output from stdin")
	threshold := flag.Float64("threshold", 1.5, "with -compare: fail when any benchmark's new/old ns/op ratio exceeds this")
	flag.Parse()

	if !*compare {
		rows, err := benchparse.Parse(os.Stdin)
		if err != nil {
			fatal(err)
		}
		if len(rows) == 0 {
			fatal(fmt.Errorf("no benchmark lines on stdin"))
		}
		fmt.Print(benchparse.RenderJSON(rows))
		return
	}

	if flag.NArg() != 2 {
		fatal(fmt.Errorf("-compare needs exactly two artifacts: OLD.json NEW.json"))
	}
	old, err := loadArtifact(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	cur, err := loadArtifact(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	deltas := benchparse.Compare(old, cur)
	if len(deltas) == 0 {
		fatal(fmt.Errorf("%s and %s share no benchmarks with ns/op measurements", flag.Arg(0), flag.Arg(1)))
	}
	fmt.Print(benchparse.RenderCompare(deltas))
	if regs := benchparse.Regressions(deltas, *threshold); len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed past %.2fx:\n", len(regs), *threshold)
		for _, d := range regs {
			fmt.Fprintf(os.Stderr, "  %s: %.2fx slower\n", d.Name, d.Ratio)
		}
		os.Exit(1)
	}
}

func loadArtifact(path string) (map[string]benchparse.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := benchparse.ParseJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
