// Command perfbench is the repository's performance benchmark. It runs
// one named workload through the public entry points — ompss.New(...).Run
// for the runtime workloads, an in-process serve.Server on loopback for
// serve-mix — checks the outputs, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// With --trace 0 the metrics are the end-to-end set of BENCHMARK.json;
// with --trace 1 a separate traced run and the layer replays give the
// per-layer set. Any failed check makes the exit status non-zero.
//
// Usage (from the repository root, see run.sh):
//
//	perfbench --workload cluster8-exchange --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one named, unit-carrying number of a run.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what a workload run reports.
type result struct {
	attempted, failed int
	failures          []string
	metrics           []metric
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// check counts one checked operation, recording it as failed when err is
// non-nil.
func (r *result) check(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, err.Error())
		return false
	}
	return true
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
	outDir   string
	stdout   io.Writer
}

var workloads = []string{"cluster8-exchange", "node4-halo", "shard64-batch", "serve-mix"}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: cluster8-exchange, node4-halo, shard64-batch, serve-mix")
	seed := fs.Int64("seed", DefaultSeed, fmt.Sprintf("input seed (default %d; held-out seed %d)", DefaultSeed, HeldOutSeed))
	seconds := fs.Float64("seconds", 10, "measurement time of the run")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run and per-layer metrics")
	scaleName := fs.String("scale", "full", "workload sizes: full or tiny (tests)")
	outDir := fs.String("out", ".bench_build/perfbench", "directory for the span dump and CPU profile of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc, ok := scales[*scaleName]
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	switch {
	case !known:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloads)
		return 2
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown scale %q\n", *scaleName)
		return 2
	case *traceFlag != 0 && *traceFlag != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	case *seconds <= 0:
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		scale: sc, outDir: *outDir, stdout: stdout}

	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	fmt.Fprintf(stdout, "host nproc=%d gomaxprocs=%d go=%s seed=%d commit=%s workload=%s trace=%d seconds=%g\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), o.seed, commit, o.workload, *traceFlag, o.seconds)

	var res *result
	var err error
	if o.workload == "serve-mix" {
		res, err = runServeMix(o)
	} else {
		res, err = runRuntimeWorkload(o)
	}
	if err != nil {
		// A harness error (not a checked operation) yields no result line.
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintf(stderr, "perfbench: FAILED: %s\n", f)
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if res.failed > 0 {
		return 1
	}
	return 0
}

// printResult writes one line per metric, then the JSON result line. A
// value JSON cannot encode (NaN, Inf) is an error and no result line.
func printResult(w io.Writer, res *result) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(res.metrics))
	sort.SliceStable(res.metrics, func(i, j int) bool { return res.metrics[i].name < res.metrics[j].name })
	for _, m := range res.metrics {
		fmt.Fprintf(w, "metric %-36s %16.6g %s\n", m.name, m.value, m.unit)
		ms[m.name] = val{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, ms})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// deadline is a wall-clock budget for a measurement loop.
type deadline struct{ end time.Time }

func after(d time.Duration) deadline { return deadline{time.Now().Add(d)} }

func (d deadline) passed() bool { return time.Now().After(d.end) }

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
