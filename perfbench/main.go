// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload in-process through the public functions of the core, eval,
// detector, online, serve and obs packages, checks every output against an
// independent reference, and prints the workload's metrics as the last line
// of standard output:
//
//	perfbench --workload grid-paper --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (measured with no
// tracing); with --trace 1 the run also records spans around every call
// into a layer, reports the per-layer metrics, and writes the spans as an
// adiv.trace/v1 Chrome trace under .bench_build/trace/ that
// `diagnose -trace` reads. The process exits 1 when a correctness gate
// fails and 2 when the workload cannot run at all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// workloads maps each workload name to its runner. BENCHMARK.json at the
// repository root records why each one exists.
var workloads = map[string]func(run *runCtx) (*result, error){
	"grid-paper":  runGridPaper,
	"serve-small": runServeSmall,
	"serve-heavy": runServeHeavy,
	"serve-http":  runServeHTTP,
}

// traceDir is where a traced run writes its Chrome trace, relative to the
// directory the benchmark runs from.
const traceDir = ".bench_build/trace"

// runCtx carries the command-line settings into a workload.
type runCtx struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
}

// duration is the measurement length as a time.Duration.
func (r *runCtx) duration() time.Duration {
	return time.Duration(r.seconds * float64(time.Second))
}

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measurement length in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, names)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	rc := &runCtx{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1}

	prov := provenance(rc)
	if err := writeJSONLine(stdout, map[string]any{"provenance": prov}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := runner(rc)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 2
	}
	res.finish()
	if len(res.detail) > 0 {
		if err := writeJSONLine(stdout, map[string]any{"detail": res.detail}); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
	}
	for _, p := range res.problems {
		fmt.Fprintln(stderr, "perfbench: gate failed:", p)
	}
	if err := writeJSONLine(stdout, res.line(rc.traced)); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if !res.correct() {
		return 1
	}
	return 0
}

func writeJSONLine(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result collects a workload's outcome. End-to-end and per-layer metrics
// are kept apart so each mode prints exactly its own set.
type result struct {
	attempted int64
	failed    int64
	problems  []string
	endToEnd  map[string]metric
	perLayer  map[string]metric
	// detail holds supporting figures (sample counts, the raw grid wall
	// time, which seed ran) printed on the line before the result.
	detail map[string]any
}

func newResult() *result {
	return &result{
		endToEnd: map[string]metric{},
		perLayer: map[string]metric{},
		detail:   map[string]any{},
	}
}

// check records a failed correctness gate when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return len(r.problems) == 0 }

func (r *result) e2e(name string, v float64, unit string)   { r.endToEnd[name] = metric{v, unit} }
func (r *result) layer(name string, v float64, unit string) { r.perLayer[name] = metric{v, unit} }

// finish fills the metrics every workload reports the same way: the
// failure share, peak memory, and zeros for per-layer metrics of layers the
// workload never calls.
func (r *result) finish() {
	if r.attempted < 1 {
		r.problems = append(r.problems, "no operation attempted")
		r.attempted = 1
		r.failed = 1
	}
	okFrac := 1 - float64(r.failed)/float64(r.attempted)
	r.e2e("ok_frac", okFrac, "frac")
	r.layer("failed_frac", 1-okFrac, "frac")
	if _, ok := r.endToEnd["peak_rss_mb"]; !ok {
		r.peakRSS()
	}
	for _, m := range endToEndMetrics {
		if _, ok := r.endToEnd[m.name]; !ok {
			r.problems = append(r.problems, "end-to-end metric not measured: "+m.name)
			r.endToEnd[m.name] = metric{0, m.unit}
		}
	}
	for _, m := range perLayerMetrics {
		if _, ok := r.perLayer[m.name]; !ok {
			r.perLayer[m.name] = metric{0, m.unit}
		}
	}
	r.detail["problems"] = len(r.problems)
}

// peakRSS records the process's peak resident memory so far.
func (r *result) peakRSS() {
	rss, err := peakRSSMB()
	if err != nil {
		r.problems = append(r.problems, "peak RSS: "+err.Error())
		return
	}
	r.e2e("peak_rss_mb", rss, "MB")
}

// line is the final result object in the form the benchmark contract fixes.
func (r *result) line(traced bool) map[string]any {
	metrics := r.endToEnd
	if traced {
		metrics = r.perLayer
	}
	return map[string]any{
		"correct":   r.correct(),
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	}
}
