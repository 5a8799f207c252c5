package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"adiv"
	"adiv/internal/anomaly"
	"adiv/internal/core"
	"adiv/internal/detector"
	"adiv/internal/ensemble"
	"adiv/internal/eval"
	"adiv/internal/gen"
	"adiv/internal/inject"
	"adiv/internal/obs"
	"adiv/internal/seq"
)

// The Section-7 suppression experiment runs at the ensemble command's
// defaults: a size-6 anomaly in a 20000-symbol rare-containing stream, with
// Markov and Stide at window 8.
const (
	suppressWindow   = 8
	suppressSize     = 6
	suppressNoisyLen = 20_000
)

// minGridPasses keeps at least 1120 cells per run, enough for a p99.
const minGridPasses = 2

// gridConfig is the paper-faithful configuration under the run's seed.
func gridConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Gen.Seed = uint64(seed)
	return cfg
}

// cellClock times every training and scoring call the grid makes, from a
// wrapper the benchmark's detector factories return. A cell is one Score
// call: eval.Assess scores each (window, size) cell exactly once.
type cellClock struct {
	mu      sync.Mutex
	scoreMs []float64
	symbols int64
	spans   *spanLog
	parent  uint64
}

func (c *cellClock) observe(name string, det detector.Detector, kind string, start, end time.Time, symbols int) {
	c.mu.Lock()
	if kind == "score" {
		c.scoreMs = append(c.scoreMs, float64(end.Sub(start))/1e6)
		c.symbols += int64(symbols)
	}
	c.mu.Unlock()
	if c.spans != nil {
		layer := "detector." + name + ".train"
		if kind == "score" {
			layer = "eval." + name + ".score"
		}
		c.spans.add(layer, kind, c.parent, obs.LaneAsync, start, end,
			obs.TraceAttr{Key: "detector", Value: name},
			obs.TraceAttr{Key: "window", Value: fmt.Sprint(det.Window())})
	}
}

// timedDetector forwards to the wrapped detector, timing Train and Score.
// It keeps the shared-corpus training path by implementing
// detector.CorpusTrainer through detector.TrainWith.
type timedDetector struct {
	detector.Detector
	clock *cellClock
}

func (t *timedDetector) TrainCorpus(c *seq.Corpus) error {
	start := time.Now()
	err := detector.TrainWith(t.Detector, c)
	t.clock.observe(t.Name(), t.Detector, "train", start, time.Now(), 0)
	return err
}

func (t *timedDetector) Score(s seq.Stream) ([]float64, error) {
	start := time.Now()
	r, err := t.Detector.Score(s)
	t.clock.observe(t.Name(), t.Detector, "score", start, time.Now(), len(s))
	return r, err
}

// gridPass is one run of the paper's headline computation: the five
// performance maps on one shared scheduler, then the Section-7 analysis.
type gridPass struct {
	maps      map[string]*eval.Map
	wall      time.Duration
	ensemble  time.Duration
	symbols   int64
	cells     int64
	failed    int64
	problems  []string
	suppress  ensemble.SuppressionResult
	union     *eval.Map
	intersect *eval.Map
}

// suppressionInput generates the Section-7 test stream: rare-containing
// data with the corpus's verified size-6 anomaly injected.
func suppressionInput(c *core.Corpus) (inject.Placement, error) {
	noisy, err := c.NoisyStream(suppressNoisyLen, 1)
	if err != nil {
		return inject.Placement{}, err
	}
	return c.InjectInto(noisy, suppressSize, suppressWindow)
}

// runGrid builds the five maps through Corpus.PerformanceMap and runs the
// Section-7 analysis over them. spans (nil when untraced) receives one span
// per map and per ensemble step under parent.
func runGrid(c *core.Corpus, supp inject.Placement, workers int, clock *cellClock, spans *spanLog, parent uint64) (*gridPass, error) {
	start := time.Now()
	symbols0 := clock.symbols
	cells0 := int64(len(clock.scoreMs))
	sched := eval.NewScheduler(workers)
	pass := &gridPass{maps: map[string]*eval.Map{}}
	for _, name := range families {
		factory, opts, err := adiv.DetectorFactory(name)
		if err != nil {
			return nil, err
		}
		opts.Scheduler = sched
		wrapped := func(w int) (detector.Detector, error) {
			d, err := factory(w)
			if err != nil {
				return nil, err
			}
			return &timedDetector{Detector: d, clock: clock}, nil
		}
		mapID := spans.newID()
		clock.parent = mapID
		t0 := time.Now()
		m, err := c.PerformanceMap(name, wrapped, opts)
		spans.record(mapID, "eval."+name+".map", "eval", parent, obs.LaneMain, t0, time.Now())
		if err != nil {
			pass.failed += int64(len(c.Placements) * (c.Config.MaxWindow - c.Config.MinWindow + 1))
			pass.problems = append(pass.problems, fmt.Sprintf("%s map: %v", name, err))
			continue
		}
		pass.maps[name] = m
	}
	t0 := time.Now()
	if err := pass.section7(c, supp); err != nil {
		pass.problems = append(pass.problems, "section 7: "+err.Error())
	}
	end := time.Now()
	spans.add("ensemble", "ensemble", parent, obs.LaneMain, t0, end)
	pass.ensemble = end.Sub(t0)
	pass.wall = end.Sub(start)
	pass.symbols = clock.symbols - symbols0
	pass.cells = int64(len(clock.scoreMs)) - cells0
	return pass, nil
}

// section7 combines the maps (coverage union and intersection) and runs
// the Markov-vetoed-by-Stide suppression experiment.
func (p *gridPass) section7(c *core.Corpus, supp inject.Placement) error {
	stide, markov, lb := p.maps["stide"], p.maps["markov"], p.maps["lb"]
	if stide == nil || markov == nil || lb == nil {
		return fmt.Errorf("missing maps")
	}
	var err error
	if p.union, err = ensemble.UnionCoverage(stide, lb); err != nil {
		return err
	}
	if p.intersect, err = ensemble.IntersectCoverage(stide, markov); err != nil {
		return err
	}
	mk, err := adiv.NewMarkov(suppressWindow)
	if err != nil {
		return err
	}
	st, err := adiv.NewStide(suppressWindow)
	if err != nil {
		return err
	}
	if err := ensemble.TrainAllCorpus(c.TrainingDBs(), mk, st); err != nil {
		return err
	}
	p.suppress, err = ensemble.Suppress(mk, st, supp, adiv.RareSensitiveThreshold, adiv.StrictThreshold)
	return err
}

// checkPaper applies the paper's pinned results to a pass: Stide is capable
// exactly where DW >= AS, Markov exactly where DW >= AS-1, L&B nowhere; L&B
// adds nothing to Stide's coverage and Markov's covers Stide's; the
// Stide veto removes every Markov false alarm while the anomaly survives.
func checkPaper(res *result, cfg core.Config, p *gridPass) {
	for _, prob := range p.problems {
		res.check(false, "%s", prob)
	}
	region := map[string]func(size, dw int) bool{
		"stide":  func(size, dw int) bool { return dw >= size },
		"markov": func(size, dw int) bool { return dw >= size-1 },
		"lb":     func(size, dw int) bool { return false },
	}
	for name, want := range region {
		m := p.maps[name]
		if m == nil {
			continue
		}
		for size := cfg.MinSize; size <= cfg.MaxSize; size++ {
			for dw := cfg.MinWindow; dw <= cfg.MaxWindow; dw++ {
				got := m.Outcome(size, dw) == eval.Capable
				res.check(got == want(size, dw), "%s AS=%d DW=%d: capable=%v, paper says %v", name, size, dw, got, want(size, dw))
			}
		}
	}
	if p.union != nil {
		res.check(sameRegion(p.union, p.maps["stide"]), "stide+lb union differs from stide alone")
	}
	if p.intersect != nil {
		res.check(sameRegion(p.intersect, p.maps["stide"]), "stide&markov intersection differs from stide alone")
	}
	s := p.suppress
	res.check(s.Suppressed.Hit, "suppression lost the injected anomaly")
	res.check(s.Suppressed.FalseAlarms == 0, "stide veto left %d false alarms", s.Suppressed.FalseAlarms)
	res.check(s.Primary.FalseAlarms > 0, "markov alone raised no false alarm on rare-containing data")
}

func sameRegion(a, b *eval.Map) bool {
	ra, rb := a.DetectionRegion(), b.DetectionRegion()
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}

// sameMaps reports whether two sets of maps agree cell for cell, response
// bits included.
func sameMaps(a, b map[string]*eval.Map) error {
	for _, name := range families {
		ma, mb := a[name], b[name]
		if ma == nil || mb == nil {
			return fmt.Errorf("%s: map missing", name)
		}
		ca, cb := ma.Cells(), mb.Cells()
		if len(ca) != len(cb) {
			return fmt.Errorf("%s: %d cells vs %d", name, len(ca), len(cb))
		}
		for i := range ca {
			x, y := ca[i], cb[i]
			if x.Window != y.Window || x.AnomalySize != y.AnomalySize || x.Outcome != y.Outcome ||
				math.Float64bits(x.MaxResponse) != math.Float64bits(y.MaxResponse) {
				return fmt.Errorf("%s AS=%d DW=%d: %v/%v vs %v/%v", name, x.AnomalySize, x.Window,
					x.Outcome, x.MaxResponse, y.Outcome, y.MaxResponse)
			}
		}
	}
	return nil
}

func runGridPaper(rc *runCtx) (*result, error) {
	if rc.traced {
		return tracedGrid(rc)
	}
	res := newResult()
	cfg := gridConfig(rc.seed)
	workers := runtime.NumCPU()
	clock := &cellClock{}
	var setups, rates, walls []float64
	var first map[string]*eval.Map
	deadline := time.Now().Add(rc.duration())
	for i := 0; i < minGridPasses || time.Now().Before(deadline); i++ {
		runtime.GC()
		t0 := time.Now()
		c, err := core.BuildCorpus(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		supp, err := suppressionInput(c)
		if err != nil {
			return nil, err
		}
		pass, err := runGrid(c, supp, workers, clock, nil, 0)
		if err != nil {
			return nil, err
		}
		res.attempted += pass.cells + pass.failed
		res.failed += pass.failed
		walls = append(walls, pass.wall.Seconds())
		rates = append(rates, float64(pass.symbols)/pass.wall.Seconds())
		checkPaper(res, cfg, pass)
		if first == nil {
			first = pass.maps
		} else if err := sameMaps(first, pass.maps); err != nil {
			res.check(false, "pass %d differs from pass 0: %v", i, err)
		}
	}
	// A pass's cells cannot support a p99 on their own, so the latency
	// percentiles pool every cell of the run. Every pass scores the same
	// symbols, so events_per_s is grid_s inverted.
	lat := summarize(clock.scoreMs)
	res.e2e("setup_s", median(setups), "s")
	res.e2e("events_per_s", median(rates), "1/s")
	res.e2e("latency_p50_ms", lat.P50, "ms")
	res.e2e("latency_p99_ms", lat.P99, "ms")
	res.detail["grid_s"] = median(walls)
	res.detail["grid_s_passes"] = walls
	res.detail["latency_samples"] = lat.N
	return res, nil
}

// buildCorpusByLayer performs core.BuildCorpus's steps one layer at a time
// so each can be timed: training-stream and background synthesis (gen),
// sequence indexing (seq), and anomaly verification plus injection
// (anomaly, inject).
func buildCorpusByLayer(cfg core.Config, spans *spanLog, parent uint64) (*core.Corpus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	g, err := gen.New(cfg.Gen)
	if err != nil {
		return nil, err
	}
	training := g.Training()
	background := g.Background()
	t1 := time.Now()
	spans.add("gen.training", "gen", parent, obs.LaneMain, t0, t1)
	ix := seq.NewIndex(training)
	t2 := time.Now()
	spans.add("seq.index", "seq", parent, obs.LaneMain, t1, t2)
	c := &core.Corpus{
		Config:     cfg,
		Training:   training,
		TrainIndex: ix,
		Background: background,
		Anomalies:  map[int]anomaly.Report{},
		Placements: map[int]inject.Placement{},
	}
	opts := inject.Options{MinWidth: cfg.MinWindow, MaxWidth: cfg.MaxWindow, ContextWidths: true}
	spec := g.Spec()
	for size := cfg.MinSize; size <= cfg.MaxSize; size++ {
		m, err := spec.CanonicalMFS(size)
		if err != nil {
			return nil, err
		}
		report, err := anomaly.MustBeMFS(ix, m, cfg.RareCutoff)
		if err != nil {
			return nil, err
		}
		p, err := inject.Inject(ix, background, report.Sequence, opts)
		if err != nil {
			return nil, err
		}
		c.Anomalies[size] = report
		c.Placements[size] = p
	}
	spans.add("inject", "inject", parent, obs.LaneMain, t2, time.Now())
	return c, nil
}

// serialStats is the grid driven one call at a time through the public
// detector and eval functions: the single-threaded baseline, and the run
// the per-family layer times come from.
type serialStats struct {
	maps          map[string]*eval.Map
	wall          time.Duration
	longestRow    time.Duration
	train, assess map[string]time.Duration
	extents       map[string][]int
	cells, failed int64
}

func serialGrid(c *core.Corpus, spans *spanLog, parent uint64) (*serialStats, error) {
	cfg := c.Config
	st := &serialStats{
		maps:    map[string]*eval.Map{},
		train:   map[string]time.Duration{},
		assess:  map[string]time.Duration{},
		extents: map[string][]int{},
	}
	start := time.Now()
	for _, name := range families {
		factory, opts, err := adiv.DetectorFactory(name)
		if err != nil {
			return nil, err
		}
		m, err := eval.NewMap(name, cfg.MinSize, cfg.MaxSize, cfg.MinWindow, cfg.MaxWindow)
		if err != nil {
			return nil, err
		}
		for w := cfg.MinWindow; w <= cfg.MaxWindow; w++ {
			row := time.Now()
			det, err := factory(w)
			t1 := time.Now()
			spans.add("detector."+name+".new", "detector", parent, obs.LaneMain, row, t1)
			if err == nil {
				err = detector.TrainWith(det, c.TrainingDBs())
			}
			t2 := time.Now()
			spans.add("detector."+name+".train", "train", parent, obs.LaneMain, t1, t2)
			st.train[name] += t2.Sub(t1)
			if err != nil {
				st.cells += int64(len(c.Placements))
				st.failed += int64(len(c.Placements))
				continue
			}
			st.extents[name] = append(st.extents[name], det.Extent())
			for _, size := range c.Sizes() {
				a0 := time.Now()
				a, err := eval.Assess(det, c.Placements[size], opts)
				a1 := time.Now()
				spans.add("eval."+name+".assess", "cell", parent, obs.LaneMain, a0, a1,
					obs.TraceAttr{Key: "detector", Value: name})
				st.assess[name] += a1.Sub(a0)
				st.cells++
				if err == nil {
					err = m.Set(a)
				}
				if err != nil {
					st.failed++
				}
			}
			st.longestRow = max(st.longestRow, time.Since(row))
		}
		st.maps[name] = m
	}
	st.wall = time.Since(start)
	return st, nil
}

// windowCounts counts the width-w windows of the given streams and how
// many of them are distinct: the ceiling a per-detector window memo could
// reach.
func windowCounts(streams []seq.Stream, w int) (windows, distinct int) {
	seen := map[string]struct{}{}
	for _, s := range streams {
		b := s.Bytes()
		for i := 0; i+w <= len(b); i++ {
			seen[string(b[i:i+w])] = struct{}{}
			windows++
		}
	}
	return windows, len(seen)
}

// tracedGrid is the grid workload's traced run. It measures one untraced
// pass (for the overhead estimate and the end-to-end figures), one traced
// pass, and the serial drive, each on a freshly built corpus so every pass
// pays the same sequence-database builds.
func tracedGrid(rc *runCtx) (*result, error) {
	res := newResult()
	cfg := gridConfig(rc.seed)
	workers := runtime.NumCPU()
	spans := newSpanLog(time.Now())

	setupID := spans.newID()
	t0 := time.Now()
	cT, err := buildCorpusByLayer(cfg, spans, setupID)
	if err != nil {
		return nil, err
	}
	spans.record(setupID, "setup", categoryHarness, 0, obs.LaneMain, t0, time.Now())

	runtime.GC()
	t0 = time.Now()
	cU, err := core.BuildCorpus(cfg)
	if err != nil {
		return nil, err
	}
	setupU := time.Since(t0)
	res.check(cT.Hash() == cU.Hash(), "layer-by-layer corpus differs from core.BuildCorpus")
	suppU, err := suppressionInput(cU)
	if err != nil {
		return nil, err
	}
	clockU := &cellClock{}
	passU, err := runGrid(cU, suppU, workers, clockU, nil, 0)
	if err != nil {
		return nil, err
	}
	checkPaper(res, cfg, passU)
	cU = nil

	runtime.GC()
	suppT, err := suppressionInput(cT)
	if err != nil {
		return nil, err
	}
	parID := spans.newID()
	t0 = time.Now()
	passT, err := runGrid(cT, suppT, workers, &cellClock{spans: spans}, spans, parID)
	if err != nil {
		return nil, err
	}
	spans.record(parID, "grid.parallel", "grid", 0, obs.LaneMain, t0, time.Now())
	dbHits, dbBuilds := cT.TrainingDBs().Stats()
	checkPaper(res, cfg, passT)
	cT = nil

	runtime.GC()
	cS, err := core.BuildCorpus(cfg)
	if err != nil {
		return nil, err
	}
	serialID := spans.newID()
	t0 = time.Now()
	ser, err := serialGrid(cS, spans, serialID)
	if err != nil {
		return nil, err
	}
	spans.record(serialID, "eval.serial", categoryHarness, 0, obs.LaneMain, t0, time.Now())
	if err := sameMaps(ser.maps, passU.maps); err != nil {
		res.check(false, "serial grid differs from the parallel grid: %v", err)
	}
	if err := sameMaps(ser.maps, passT.maps); err != nil {
		res.check(false, "serial grid differs from the traced parallel grid: %v", err)
	}

	res.attempted = passU.cells + passU.failed + passT.cells + passT.failed + ser.cells
	res.failed = passU.failed + passT.failed + ser.failed
	lat := summarize(clockU.scoreMs)
	res.e2e("setup_s", setupU.Seconds(), "s")
	res.e2e("events_per_s", float64(passU.symbols)/passU.wall.Seconds(), "1/s")
	res.e2e("latency_p50_ms", lat.P50, "ms")
	res.e2e("latency_p99_ms", lat.P99, "ms")

	all := spans.snapshot()
	byName := sumByName(all)
	res.layer("gen.training_s", byName["gen.training"].Seconds(), "s")
	res.layer("seq.index_s", byName["seq.index"].Seconds(), "s")
	res.layer("inject.s", byName["inject"].Seconds(), "s")
	res.layer("seq.db_builds", float64(dbBuilds), "count")
	res.layer("seq.db_hits", float64(dbHits), "count")
	windowMemo := map[int][2]int{}
	streams := make([]seq.Stream, 0, len(cS.Placements))
	for _, size := range cS.Sizes() {
		streams = append(streams, cS.Placements[size].Stream)
	}
	for _, f := range families {
		res.layer("detector."+f+".train_s", ser.train[f].Seconds(), "s")
		res.layer("eval."+f+".assess_s", ser.assess[f].Seconds(), "s")
		var windows, distinct int
		for _, ext := range ser.extents[f] {
			wc, ok := windowMemo[ext]
			if !ok {
				a, b := windowCounts(streams, ext)
				wc = [2]int{a, b}
				windowMemo[ext] = wc
			}
			windows += wc[0]
			distinct += wc[1]
		}
		res.layer("detector."+f+".windows", float64(windows), "count")
		res.layer("detector."+f+".distinct_windows", float64(distinct), "count")
	}
	gridS := passU.wall.Seconds()
	res.layer("eval.grid_s", gridS, "s")
	res.layer("eval.serial_s", ser.wall.Seconds(), "s")
	res.layer("eval.longest_row_s", ser.longestRow.Seconds(), "s")
	res.layer("eval.parallel_eff", ser.wall.Seconds()/(gridS*float64(workers)), "frac")
	res.layer("eval.cells", float64(ser.cells), "count")
	res.layer("eval.cells_failed", float64(ser.failed), "count")
	res.layer("ensemble.s", passT.ensemble.Seconds(), "s")
	res.layer("trace.overhead_frac", passT.wall.Seconds()/passU.wall.Seconds()-1, "frac")
	un := unaccounted(all, setupID, serialID)
	res.layer("trace.unaccounted_frac", un, "frac")
	res.check(un <= 0.10, "layer spans cover only %.1f%% of setup + serial grid", 100*(1-un))
	res.detail["grid_s"] = gridS
	return res, finishTrace(rc, res, spans)
}
