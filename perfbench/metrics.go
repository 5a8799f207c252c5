package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEndMetrics is what a user of either path sees; every workload
// reports all of them by wall clock (README.md defines each per workload).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"events_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"ok_frac", "frac"},
	{"peak_rss_mb", "MB"},
}

// families are the five detector families of the evaluation grid, in the
// order the grid runs them.
var families = []string{"lb", "markov", "stide", "nn", "tstide"}

// perLayerMetrics is what a traced run reports. A layer the workload never
// calls reads 0.
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"gen.training_s", "s"}, {"seq.index_s", "s"}, {"inject.s", "s"},
		{"seq.db_builds", "count"}, {"seq.db_hits", "count"},
	}
	for _, f := range families {
		defs = append(defs,
			metricDef{"detector." + f + ".train_s", "s"},
			metricDef{"eval." + f + ".assess_s", "s"},
			metricDef{"detector." + f + ".windows", "count"},
			metricDef{"detector." + f + ".distinct_windows", "count"})
	}
	return append(defs,
		metricDef{"eval.grid_s", "s"},
		metricDef{"eval.serial_s", "s"},
		metricDef{"eval.longest_row_s", "s"},
		metricDef{"eval.parallel_eff", "frac"},
		metricDef{"eval.cells", "count"},
		metricDef{"eval.cells_failed", "count"},
		metricDef{"ensemble.s", "s"},
		metricDef{"online.push_us_p50", "us"},
		metricDef{"online.push_us_p99", "us"},
		metricDef{"online.push_ns_per_event", "ns"},
		metricDef{"online.pool_created", "count"},
		metricDef{"online.pool_reused", "count"},
		metricDef{"online.tenant_new_ms", "ms"},
		metricDef{"serve.inbound_us_p50", "us"},
		metricDef{"serve.inbound_us_p99", "us"},
		metricDef{"serve.outbound_us_p50", "us"},
		metricDef{"serve.outbound_us_p99", "us"},
		metricDef{"serve.accepted", "count"},
		metricDef{"serve.scored", "count"},
		metricDef{"serve.busy", "count"},
		metricDef{"serve.shard_skew", "ratio"},
		metricDef{"serve.bytes_in_per_event", "B/event"},
		metricDef{"serve.bytes_out_per_event", "B/event"},
		metricDef{"obs.journal_records", "count"},
		metricDef{"obs.journal_bytes", "B"},
		metricDef{"obs.journal_write_s", "s"},
		metricDef{"loadgen.encode_ns", "ns"},
		metricDef{"loadgen.decode_ns", "ns"},
		metricDef{"trace.overhead_frac", "frac"},
		metricDef{"trace.unaccounted_frac", "frac"},
		metricDef{"failed_frac", "frac"},
	)
}()

// minBeyond is how many samples must lie above a percentile before it is
// reported: p99 needs at least 1000 samples.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted (ascending) and
// whether at least minBeyond samples lie beyond it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return sorted[i], n-1-i >= minBeyond
}

// median returns the median of xs (the mean of the middle two for an even
// count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencySummary is a timing distribution reported as p50 and p99.
type latencySummary struct {
	N        int
	P50, P99 float64
	// P99OK is false when fewer than minBeyond samples lie beyond p99;
	// P99 is then the largest sample, an upper bound, so a run too slow to
	// fill a p99 still reports a figure.
	P99OK bool
}

// summarize sorts xs in place and summarizes it.
func summarize(xs []float64) latencySummary {
	sort.Float64s(xs)
	p50, _ := percentile(xs, 0.50)
	p99, ok := percentile(xs, 0.99)
	if !ok && len(xs) > 0 {
		p99 = xs[len(xs)-1]
	}
	return latencySummary{N: len(xs), P50: p50, P99: p99, P99OK: ok}
}

// Latency histograms have logarithmic buckets 1% wide from 1 µs up, enough
// for 100 s; a later bucket holds anything slower.
const (
	histMinMs   = 1e-3
	histGrowth  = 1.01
	histBuckets = 1852
)

// latHist is one measurement window: a fixed-memory latency histogram and
// the events the window's requests acknowledged. Its size does not depend
// on how many requests it holds, so the harness's memory does not grow
// with the server's throughput and peak_rss_mb measures the server.
type latHist struct {
	n      int64
	events float64
	counts [histBuckets]uint32
}

func histBucket(ms float64) int {
	if ms <= histMinMs {
		return 0
	}
	return min(int(math.Log(ms/histMinMs)/math.Log(histGrowth)), histBuckets-1)
}

func (h *latHist) add(ms float64, events int) {
	h.counts[histBucket(ms)]++
	h.n++
	h.events += float64(events)
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.events += o.events
}

// quantile returns the nearest-rank q-quantile, placed within its bucket
// by rank, and whether at least minBeyond samples lie beyond it (the rule
// percentile applies to raw samples).
func (h *latHist) quantile(q float64) (float64, bool) {
	if h.n == 0 {
		return 0, false
	}
	rank := min(max(int64(math.Ceil(q*float64(h.n))), 1), h.n)
	var below int64
	for b, c := range h.counts {
		if c == 0 || below+int64(c) < rank {
			below += int64(c)
			continue
		}
		frac := (float64(rank-below) - 0.5) / float64(c)
		return histMinMs * math.Pow(histGrowth, float64(b)+frac), h.n-rank >= minBeyond
	}
	return 0, false
}

// windows is a phase's requests bucketed by when they were sent into
// windows of a nominal width, one histogram per window.
type windows struct {
	width time.Duration
	wins  []*latHist
}

// add records a request sent at seconds into the phase.
func (w *windows) add(at float64, ms float64, events int) {
	if k := int(at / w.width.Seconds()); k >= 0 {
		w.at(k).add(ms, events)
	}
}

// at returns window k's histogram, creating it when absent.
func (w *windows) at(k int) *latHist {
	for len(w.wins) <= k {
		w.wins = append(w.wins, nil)
	}
	if w.wins[k] == nil {
		w.wins[k] = &latHist{}
	}
	return w.wins[k]
}

// merge folds o's windows into w's.
func (w *windows) merge(o *windows) {
	for k, h := range o.wins {
		if h != nil {
			w.at(k).merge(h)
		}
	}
}

// minWindowSamples is the fewest requests a window needs for its p99.
const minWindowSamples = 100 * minBeyond

// windowStats is a serve phase summarized window by window.
type windowStats struct {
	N        int64
	P50, P99 float64
	// Windows is how many windows the figures are medians over; each holds
	// at least minWindowSamples requests. 0 means the whole phase held too
	// few, and P99 is then its slowest request.
	Windows int
	// Width is the median width of those windows.
	Width time.Duration
	// Rate is the median over the windows of events acknowledged per second.
	Rate float64
}

// summary summarizes the windows that lie wholly within a phase of length
// dur. Consecutive windows are joined until each holds minWindowSamples
// requests, so a slow server widens the windows instead of losing its p99;
// a short remainder joins the last window. Within each window it takes p50,
// p99 and the event rate, and it reports the median of each, so a burst of
// interference from outside the benchmark moves one window, not the
// reported figure.
func (w *windows) summary(dur time.Duration) windowStats {
	whole := min(int(dur/w.width), len(w.wins))
	var groups []*latHist
	var widths []int
	cur, curWidth := &latHist{}, 0
	for _, h := range w.wins[:whole] {
		if h != nil {
			cur.merge(h)
		}
		curWidth++
		if cur.n >= minWindowSamples {
			groups, widths = append(groups, cur), append(widths, curWidth)
			cur, curWidth = &latHist{}, 0
		}
	}
	if len(groups) == 0 {
		if curWidth == 0 {
			return windowStats{}
		}
		p50, _ := cur.quantile(0.5)
		p100, _ := cur.quantile(1)
		sec := float64(curWidth) * w.width.Seconds()
		return windowStats{N: cur.n, P50: p50, P99: p100, Rate: cur.events / sec, Width: time.Duration(sec * float64(time.Second))}
	}
	last := len(groups) - 1
	groups[last].merge(cur)
	widths[last] += curWidth
	var st windowStats
	var p50s, p99s, rates, spans []float64
	for i, g := range groups {
		p50, _ := g.quantile(0.50)
		p99, _ := g.quantile(0.99)
		sec := float64(widths[i]) * w.width.Seconds()
		p50s, p99s = append(p50s, p50), append(p99s, p99)
		rates, spans = append(rates, g.events/sec), append(spans, sec)
		st.N += g.n
	}
	st.P50, st.P99, st.Rate = median(p50s), median(p99s), median(rates)
	st.Windows = len(groups)
	st.Width = time.Duration(median(spans) * float64(time.Second))
	return st
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// provenance describes the machine and code a result was measured on.
func provenance(rc *runCtx) map[string]any {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"source":     sourceDigest("."),
		"workload":   rc.workload,
		"seed":       rc.seed,
		"seconds":    rc.seconds,
		"trace":      rc.traced,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root (hidden
// directories skipped), identifying the measured code when the checkout
// carries no version-control metadata.
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
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
