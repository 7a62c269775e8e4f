// Command perfbench is the repository's benchmark: one command that runs a
// workload against the public entry points, checks every output, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer breakdown) as one
// JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload repro-cold --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --compare before.txt after.txt
//
// The workloads, their metrics and the layer each metric belongs to are
// described in perfbench/README.md; BENCHMARK.json at the repository root
// lists the names and units the command prints.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one named measurement as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultSet is the environment-stamped record printed on the line before
// the result, so saved outputs can be compared with -compare.
type resultSet struct {
	Env      env    `json:"env"`
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

// config is what every workload runner receives.
type config struct {
	name    string
	seed    int64
	seconds time.Duration
	root    string
	log     io.Writer
}

// workloads maps each workload name to its runner. A runner returns the
// metrics of one run: end-to-end ones untraced, per-layer ones traced.
var workloads = map[string]func(ctx context.Context, cfg config, traced bool) (*result, error){
	"repro-cold":   runReproCold,
	"margin-sweep": runMarginSweep,
	"serve-mixed":  runServeMixed,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: repro-cold, margin-sweep or serve-mixed")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 makes the traced run that reports per-layer metrics")
	root := fs.String("root", ".", "repository root (holds testdata/golden and BENCHMARK.json)")
	compare := fs.Bool("compare", false, "compare the result sets in the two saved outputs named as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare needs two saved outputs")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	runner, ok := workloads[*name]
	if !ok || fs.NArg() != 0 || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	// The benchmark depends on the repository it measures: refuse early,
	// without a result, when the checkout is incomplete.
	if _, err := os.Stat(filepath.Join(*root, goldenReport)); err != nil {
		fmt.Fprintln(stderr, "perfbench: not a repository checkout:", err)
		return 1
	}
	cfg := config{name: *name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), root: *root, log: stderr}
	res, err := runner(context.Background(), cfg, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	set := resultSet{Env: stamp(*seed, *root), Workload: *name, Trace: *trace == 1, Result: *res}
	if err := printJSON(stdout, map[string]resultSet{"result_set": set}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := printJSON(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printJSON(w io.Writer, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
