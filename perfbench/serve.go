package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adiv"
	"adiv/internal/detector"
	"adiv/internal/gen"
	"adiv/internal/inject"
	"adiv/internal/obs"
	"adiv/internal/online"
	"adiv/internal/seq"
	"adiv/internal/serve"
)

// Every serve workload deploys window-6 detectors, the serving daemon's
// default.
const serveWindow = 6

// serveSetupReps is how many times a run sets the serving system up; the
// median is setup_s. One set-up takes tens of milliseconds, so many are
// cheap and steady the median.
const serveSetupReps = 41

// scorerKind selects the per-tenant scoring unit.
type scorerKind int

const (
	// alarmerTenant: Stide thresholded at 1 behind an online.Alarmer.
	alarmerTenant scorerKind = iota
	// pipelineTenant: Markov at 0.98 vetoed by Stide at 1, journaling.
	pipelineTenant
	// scorerTenant: raw Stide responses.
	scorerTenant
)

// serveSpec is one serving workload's traffic shape.
type serveSpec struct {
	kind scorerKind
	// http sends NDJSON over HTTP instead of frames over TCP.
	http bool
	// tenants is the number of concurrent tenant streams; they are split
	// evenly over one loopback connection per CPU.
	tenants int
	// batch is the events per batch (per NDJSON line over HTTP).
	batch int
	// sessionBatches is how many batches a tenant sends before closing its
	// stream; the next batch opens a fresh one from the scorer pool.
	sessionBatches int
	// poolSessions is how many distinct session streams each tenant cycles.
	poolSessions int
	// quiet asks for acknowledgements without per-event responses.
	quiet bool
	// injectSize, when positive, injects one canonical minimal foreign
	// sequence of that size into every session.
	injectSize int
	// freshIDs gives every session its own tenant id (the alert journal
	// is checked per id).
	freshIDs bool
	// window is the nominal width of the measurement windows the latency
	// percentiles and the event rate are taken in, wide enough to hold a
	// few thousand batches; windows that hold too few are joined.
	window time.Duration
}

// serveQueueDepth bounds each shard's queue. serve-small keeps 256 batches
// in flight over 2 shards and tenants do not hash evenly, so the daemon's
// default of 128 would turn a full loop into Busy rejections.
const serveQueueDepth = 1024

var (
	smallSpec = serveSpec{kind: alarmerTenant, tenants: 256, batch: 16, sessionBatches: 16,
		poolSessions: 4, window: 100 * time.Millisecond}
	heavySpec = serveSpec{kind: pipelineTenant, tenants: 16, batch: 1024, sessionBatches: 64,
		poolSessions: 4, quiet: true, injectSize: 6, freshIDs: true, window: 500 * time.Millisecond}
	httpSpec = serveSpec{kind: scorerTenant, http: true, tenants: 16, batch: 128, sessionBatches: 64,
		poolSessions: 4, window: time.Second}
)

func runServeSmall(rc *runCtx) (*result, error) { return runServe(rc, smallSpec) }
func runServeHeavy(rc *runCtx) (*result, error) { return runServe(rc, heavySpec) }
func runServeHTTP(rc *runCtx) (*result, error)  { return runServe(rc, httpSpec) }

// session is one precomputed tenant stream, scored from open to close.
type session struct {
	body []byte
	// ref holds the offline detector.Score responses over body (nil when
	// the workload asks for no responses).
	ref []float64
	// injectPos is where the injected anomaly starts (-1: none).
	injectPos int
	// alarmed says the scorer thresholds responses into alarms.
	alarmed bool
	// lines and replies hold, per batch, the NDJSON request line and the
	// reply line the server must send back (HTTP only). Encoding them
	// before timing starts keeps JSON work out of the load generator, and
	// comparing reply bytes checks the responses bit for bit.
	lines, replies [][]byte
}

// serveInputs are a run's generated inputs: the tenants with their session
// pools, plus what was spent generating them.
type serveInputs struct {
	tenants  []*tenant
	inject   time.Duration
	distinct map[string][2]int // family -> windows, distinct windows in the pool
}

// makeInputs generates every tenant's sessions from the seed: noisy streams
// from the paper's generator (independent substreams per session), the
// optional injected anomaly at a seeded position, and the offline reference
// responses of a separately trained Stide.
func makeInputs(spec serveSpec, seed int64) (*serveInputs, error) {
	cfg := gen.DefaultConfig()
	cfg.Seed = uint64(seed)
	g, err := gen.New(cfg)
	if err != nil {
		return nil, err
	}
	var ref detector.Detector
	if !spec.quiet {
		if ref, err = adiv.NewStide(serveWindow); err != nil {
			return nil, err
		}
		if err := detector.TrainWith(ref, seq.NewCorpus(g.Training())); err != nil {
			return nil, err
		}
	}
	var mfs seq.Stream
	if spec.injectSize > 0 {
		if mfs, err = g.Spec().CanonicalMFS(spec.injectSize); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	in := &serveInputs{}
	ids := map[string]bool{}
	sessLen := spec.batch * spec.sessionBatches
	var all []seq.Stream
	for i := 0; i < spec.tenants; i++ {
		base := fmt.Sprintf("t%08x", rng.Uint32())
		for ids[base] {
			base = fmt.Sprintf("t%08x", rng.Uint32())
		}
		ids[base] = true
		t := &tenant{base: base}
		for s := 0; s < spec.poolSessions; s++ {
			stream := g.Noisy(sessLen-len(mfs), uint64(i*spec.poolSessions+s))
			sess := &session{injectPos: -1, alarmed: spec.kind == alarmerTenant}
			if len(mfs) > 0 {
				pos := sessLen/4 + rng.Intn(sessLen/2)
				t0 := time.Now()
				p, err := inject.At(stream, mfs, pos)
				in.inject += time.Since(t0)
				if err != nil {
					return nil, err
				}
				stream, sess.injectPos = p.Stream, pos
			}
			sess.body = stream.Bytes()
			if ref != nil {
				if sess.ref, err = ref.Score(stream); err != nil {
					return nil, err
				}
			}
			if spec.http {
				if err := sess.encodeLines(spec, base); err != nil {
					return nil, err
				}
			}
			all = append(all, stream)
			t.sessions = append(t.sessions, sess)
		}
		in.tenants = append(in.tenants, t)
	}
	in.distinct = map[string][2]int{}
	for _, f := range spec.families() {
		w, d := windowCounts(all, familyExtent(f))
		in.distinct[f] = [2]int{w, d}
	}
	return in, nil
}

// encodeLines precomputes the session's NDJSON request and reply lines.
func (sess *session) encodeLines(spec serveSpec, tenant string) error {
	for off := 0; off < len(sess.body); off += spec.batch {
		closing := off+spec.batch >= len(sess.body)
		req := serve.PushRequest{Tenant: tenant, Symbols: make([]int, spec.batch), Close: closing, Quiet: spec.quiet}
		for i, b := range sess.body[off : off+spec.batch] {
			req.Symbols[i] = int(b)
		}
		line, err := json.Marshal(req)
		if err != nil {
			return err
		}
		reply, err := json.Marshal(serve.PushResponse{Tenant: tenant, Accepted: spec.batch,
			Responses: expected(sess.ref, off, spec.batch), Closed: closing})
		if err != nil {
			return err
		}
		sess.lines = append(sess.lines, append(line, '\n'))
		sess.replies = append(sess.replies, reply)
	}
	return nil
}

func (s serveSpec) families() []string {
	if s.kind == pipelineTenant {
		return []string{"markov", "stide"}
	}
	return []string{"stide"}
}

// familyExtent is the response extent at serveWindow: next-element
// predictors judge the window plus one.
func familyExtent(f string) int {
	if f == "markov" {
		return serveWindow + 1
	}
	return serveWindow
}

// pushRec is one timed TenantScorer.PushBatch call.
type pushRec struct {
	tenant     string
	start, end time.Time
	events     int
}

// pushLog collects PushBatch timings while on is set.
type pushLog struct {
	on   atomic.Bool
	mu   sync.Mutex
	recs []pushRec
}

func (l *pushLog) add(r pushRec) {
	l.mu.Lock()
	l.recs = append(l.recs, r)
	l.mu.Unlock()
}

// timedTenant is the TenantScorer the benchmark's factory hands the
// server: it remembers the tenant id and times PushBatch while tracing.
type timedTenant struct {
	serve.TenantScorer
	tenant string
	log    *pushLog
}

func (t *timedTenant) SetTenant(id string) {
	t.tenant = id
	t.TenantScorer.SetTenant(id)
}

func (t *timedTenant) PushBatch(syms []adiv.Symbol) ([]float64, int, error) {
	if !t.log.on.Load() {
		return t.TenantScorer.PushBatch(syms)
	}
	start := time.Now()
	r, a, err := t.TenantScorer.PushBatch(syms)
	t.log.add(pushRec{tenant: t.tenant, start: start, end: time.Now(), events: len(syms)})
	return r, a, err
}

// tenantFactory builds trained tenant scorers from the shared training
// corpus, counting the calls the server's pool makes.
type tenantFactory struct {
	kind    scorerKind
	corpus  *seq.Corpus
	journal *obs.AlertJournal
	created atomic.Int64
	newNs   atomic.Int64
	pushes  *pushLog
}

func (f *tenantFactory) trained(name string) (detector.Detector, error) {
	var det detector.Detector
	var err error
	if name == "markov" {
		det, err = adiv.NewMarkov(serveWindow)
	} else {
		det, err = adiv.NewStide(serveWindow)
	}
	if err != nil {
		return nil, err
	}
	return det, detector.TrainWith(det, f.corpus)
}

func (f *tenantFactory) build() (serve.TenantScorer, error) {
	stide, err := f.trained("stide")
	if err != nil {
		return nil, err
	}
	switch f.kind {
	case alarmerTenant:
		a, err := online.NewAlarmer(stide, adiv.StrictThreshold)
		if err != nil {
			return nil, err
		}
		return serve.AlarmerTenant{A: a}, nil
	case pipelineTenant:
		markov, err := f.trained("markov")
		if err != nil {
			return nil, err
		}
		p, err := online.NewVetoPipeline(markov, stide, adiv.RareSensitiveThreshold, adiv.StrictThreshold)
		if err != nil {
			return nil, err
		}
		p.SetJournal(f.journal)
		return serve.PipelineTenant{P: p}, nil
	default:
		s, err := online.NewScorer(stide)
		if err != nil {
			return nil, err
		}
		return serve.ScorerTenant{S: s}, nil
	}
}

// newTenant is the server's Config.NewTenant.
func (f *tenantFactory) newTenant() (serve.TenantScorer, error) {
	start := time.Now()
	sc, err := f.build()
	f.newNs.Add(int64(time.Since(start)))
	f.created.Add(1)
	if err != nil {
		return nil, err
	}
	return &timedTenant{TenantScorer: sc, log: f.pushes}, nil
}

// journalWriter is the alert journal's sink: it counts records and bytes
// and, while timed is set, the time spent in Write.
type journalWriter struct {
	f       *os.File
	timed   atomic.Bool
	records atomic.Int64
	bytes   atomic.Int64
	writeNs atomic.Int64
}

func (j *journalWriter) Write(p []byte) (int, error) {
	var start time.Time
	timed := j.timed.Load()
	if timed {
		start = time.Now()
	}
	n, err := j.f.Write(p)
	if timed {
		j.writeNs.Add(int64(time.Since(start)))
	}
	j.records.Add(1)
	j.bytes.Add(int64(n))
	return n, err
}

// serveEnv is a ready serving system: server, listener and transport.
type serveEnv struct {
	factory *tenantFactory
	srv     *serve.Server
	tcp     *serve.TCPServer
	httpSrv *http.Server
	addr    string
	journal *journalWriter
	served  chan error
}

// setupServe brings the system up: training-corpus synthesis, the shared
// sequence corpus, the first trained tenant, the server and its listener.
func setupServe(spec serveSpec, seed int64, spans *spanLog, parent uint64) (*serveEnv, error) {
	t0 := time.Now()
	cfg := gen.DefaultConfig()
	cfg.Seed = uint64(seed)
	g, err := gen.New(cfg)
	if err != nil {
		return nil, err
	}
	training := g.Training()
	t1 := time.Now()
	spans.add("gen.training", "gen", parent, obs.LaneMain, t0, t1)
	corpus := seq.NewCorpus(training)
	t2 := time.Now()
	spans.add("seq.index", "seq", parent, obs.LaneMain, t1, t2)
	env := &serveEnv{factory: &tenantFactory{kind: spec.kind, corpus: corpus, pushes: &pushLog{}}}
	if spec.kind == pipelineTenant {
		dir := filepath.Join(".bench_build", "tmp")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		f, err := os.CreateTemp(dir, "journal-*.ndjson")
		if err != nil {
			return nil, err
		}
		env.journal = &journalWriter{f: f}
		env.factory.journal = obs.NewAlertJournal(env.journal)
	}
	if _, err := env.factory.build(); err != nil {
		env.close()
		return nil, err
	}
	t3 := time.Now()
	spans.add("online.tenant_new", "online", parent, obs.LaneMain, t2, t3)
	env.srv, err = serve.NewServer(serve.Config{
		Shards:       runtime.NumCPU(),
		QueueDepth:   serveQueueDepth,
		AlphabetSize: g.Alphabet().Size(),
		NewTenant:    env.factory.newTenant,
	})
	if err != nil {
		env.close()
		return nil, err
	}
	t4 := time.Now()
	spans.add("serve.new_server", "serve", parent, obs.LaneMain, t3, t4)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.close()
		return nil, err
	}
	env.addr = ln.Addr().String()
	env.served = make(chan error, 1)
	if spec.http {
		env.httpSrv = &http.Server{Handler: serve.NewHTTPHandler(env.srv)}
		go func() { env.served <- env.httpSrv.Serve(ln) }()
	} else {
		env.tcp = serve.NewTCPServer(env.srv, ln)
		go func() { env.served <- env.tcp.Serve() }()
	}
	spans.add("serve.listen", "serve", parent, obs.LaneMain, t4, time.Now())
	return env, nil
}

// stop shuts the transport down and drains the server, returning its final
// counters; after it returns every accepted batch has been scored and
// journaled. It is safe on a partly built env and when called twice.
func (e *serveEnv) stop() serve.Stats {
	if e.httpSrv != nil {
		e.httpSrv.Close()
		<-e.served
	}
	if e.tcp != nil {
		e.tcp.Shutdown()
		<-e.served
	}
	var st serve.Stats
	if e.srv != nil {
		st = e.srv.Drain()
	}
	e.httpSrv, e.tcp, e.srv = nil, nil, nil
	return st
}

// close stops e and removes its journal file.
func (e *serveEnv) close() {
	e.stop()
	if e.journal != nil {
		e.journal.f.Close()
		os.Remove(e.journal.f.Name())
		e.journal = nil
	}
}

// runServe is the shared driver of the serve workloads.
func runServe(rc *runCtx, spec serveSpec) (*result, error) {
	res := newResult()
	in, err := makeInputs(spec, rc.seed)
	if err != nil {
		return nil, err
	}
	var spans *spanLog
	var setupID uint64
	if rc.traced {
		spans = newSpanLog(time.Now())
	}
	var setups []float64
	var env *serveEnv
	for i := 0; i < serveSetupReps; i++ {
		if env != nil {
			env.close()
		}
		runtime.GC()
		var sp *spanLog
		if i == serveSetupReps-1 {
			sp = spans
			setupID = sp.newID()
		}
		t0 := time.Now()
		env, err = setupServe(spec, rc.seed, sp, setupID)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		sp.record(setupID, "setup", categoryHarness, 0, obs.LaneMain, t0, t1)
		setups = append(setups, t1.Sub(t0).Seconds())
	}
	res.e2e("setup_s", median(setups), "s")

	dur := rc.duration()
	if rc.traced {
		dur /= 2
	}
	plain, err := measure(env, spec, in.tenants, dur, false)
	if err != nil {
		env.close()
		return nil, err
	}
	phases := []*phaseStats{plain}
	var traced *phaseStats
	if rc.traced {
		env.factory.pushes.on.Store(true)
		if env.journal != nil {
			env.journal.timed.Store(true)
		}
		if traced, err = measure(env, spec, in.tenants, dur, true); err != nil {
			env.close()
			return nil, err
		}
		env.factory.pushes.on.Store(false)
		phases = append(phases, traced)
	}
	shards := make([]int64, env.srv.Shards())
	for _, ph := range phases {
		for id, n := range ph.idEvents {
			shards[env.srv.TenantShard(id)] += n
		}
	}
	// The journal is checked after the drain, when every escalation is on
	// disk, and before close removes it. Peak memory is read before the
	// harness starts its own analysis.
	stats := env.stop()
	res.peakRSS()
	var journalRecords, journalBytes, journalNs int64
	var journalProblems []string
	if env.journal != nil {
		journalRecords, journalBytes, journalNs = env.journal.records.Load(), env.journal.bytes.Load(), env.journal.writeNs.Load()
		escalated := map[string]int{}
		var closed []closedSession
		for _, ph := range phases {
			for id, n := range ph.escalated {
				escalated[id] += n
			}
			closed = append(closed, ph.closed...)
		}
		journalProblems = verifyJournal(env.journal.f.Name(), escalated, closed, spec.injectSize)
		res.check(len(closed) > 0, "no session ran to its close, so no injected anomaly was checked")
		res.detail["sessions_checked"] = len(closed)
		res.detail["journal_records"] = journalRecords
	}
	env.close()

	for _, ph := range phases {
		res.attempted += ph.attempted
		res.failed += ph.failed
		for _, w := range ph.wrong {
			res.check(false, "%s", w)
		}
	}
	for _, p := range journalProblems {
		res.check(false, "journal: %s", p)
	}
	res.check(stats.Accepted == stats.Scored, "after Drain accepted=%d scored=%d", stats.Accepted, stats.Scored)
	var sent int64
	for _, ph := range phases {
		sent += ph.events
	}
	res.check(stats.Accepted == sent, "server accepted %d events, client saw %d acknowledged", stats.Accepted, sent)

	lat := plain.windows.summary(dur)
	res.e2e("events_per_s", lat.Rate, "1/s")
	res.e2e("latency_p50_ms", lat.P50, "ms")
	res.e2e("latency_p99_ms", lat.P99, "ms")
	res.detail["latency_samples"] = lat.N
	res.detail["windows"] = lat.Windows
	res.detail["window_s"] = lat.Width.Seconds()
	res.detail["events_per_s_whole_run"] = float64(plain.events) / plain.lastAck.Sub(plain.start).Seconds()
	res.detail["batches"] = plain.batches

	if traced == nil {
		return res, nil
	}
	// Per-layer metrics come from the traced phase.
	res.layer("inject.s", in.inject.Seconds(), "s")
	all := spans.snapshot()
	byName := sumByName(all)
	res.layer("gen.training_s", byName["gen.training"].Seconds(), "s")
	res.layer("seq.index_s", byName["seq.index"].Seconds(), "s")
	hits, builds := env.factory.corpus.Stats()
	res.layer("seq.db_builds", float64(builds), "count")
	res.layer("seq.db_hits", float64(hits), "count")
	for _, f := range spec.families() {
		res.layer("detector."+f+".windows", float64(traced.events), "count")
		wc := in.distinct[f]
		res.layer("detector."+f+".distinct_windows", float64(wc[1]), "count")
		res.detail["pool_windows_"+f] = wc[0]
	}

	pushes := env.factory.pushes.recs
	inUs, pushUs, outUs, unmatched := matchStages(traced.recs, pushes)
	totals := make([]float64, len(inUs))
	for i := range totals {
		totals[i] = inUs[i] + pushUs[i] + outUs[i]
	}
	res.check(unmatched == 0, "%d batches had no matching PushBatch call", unmatched)
	var pushNs, pushEvents int64
	for _, p := range pushes {
		pushNs += int64(p.end.Sub(p.start))
		pushEvents += int64(p.events)
	}
	ps, is, os_ := summarize(pushUs), summarize(inUs), summarize(outUs)
	res.layer("online.push_us_p50", ps.P50, "us")
	res.layer("online.push_us_p99", ps.P99, "us")
	if pushEvents > 0 {
		res.layer("online.push_ns_per_event", float64(pushNs)/float64(pushEvents), "ns")
	}
	created := env.factory.created.Load()
	var opened int64
	for _, ph := range phases {
		opened += ph.opened
	}
	res.layer("online.pool_created", float64(created), "count")
	res.layer("online.pool_reused", float64(opened-created), "count")
	if created > 0 {
		res.layer("online.tenant_new_ms", float64(env.factory.newNs.Load())/1e6/float64(created), "ms")
	}
	res.layer("serve.inbound_us_p50", is.P50, "us")
	res.layer("serve.inbound_us_p99", is.P99, "us")
	res.layer("serve.outbound_us_p50", os_.P50, "us")
	res.layer("serve.outbound_us_p99", os_.P99, "us")
	res.layer("serve.accepted", float64(stats.Accepted), "count")
	res.layer("serve.scored", float64(stats.Scored), "count")
	res.layer("serve.busy", float64(stats.Busy), "count")
	res.layer("serve.shard_skew", skew(shards), "ratio")
	if traced.events > 0 {
		res.layer("serve.bytes_in_per_event", float64(traced.bytesOut)/float64(traced.events), "B/event")
		res.layer("serve.bytes_out_per_event", float64(traced.bytesIn)/float64(traced.events), "B/event")
	}
	res.layer("obs.journal_records", float64(journalRecords), "count")
	res.layer("obs.journal_bytes", float64(journalBytes), "B")
	res.layer("obs.journal_write_s", float64(journalNs)/1e9, "s")
	if traced.encode > 0 {
		res.layer("loadgen.encode_ns", float64(traced.encodeNs)/float64(traced.encode), "ns")
	}
	if traced.decode > 0 {
		res.layer("loadgen.decode_ns", float64(traced.decodeNs)/float64(traced.decode), "ns")
	}
	res.layer("trace.overhead_frac", lat.Rate/traced.windows.summary(dur).Rate-1, "frac")
	// Each batch's inbound, push and outbound times add up to its latency
	// exactly (unmatched == 0 above), so the figure below compares like
	// with like: the sum of the three stage medians against the median
	// latency of the same batches. The two need not agree, since a median
	// of sums is not a sum of medians; how far they miss is reported.
	un := math.Abs(1 - (is.P50+ps.P50+os_.P50)/summarize(totals).P50)
	res.layer("trace.unaccounted_frac", un, "frac")
	batchSpans(spans, traced.recs, pushes)
	return res, finishTrace(rc, res, spans)
}

// skew is max over mean of the per-shard event counts.
func skew(shards []int64) float64 {
	var sum, hi int64
	for _, n := range shards {
		sum += n
		hi = max(hi, n)
	}
	if sum == 0 {
		return 0
	}
	return float64(hi) / (float64(sum) / float64(len(shards)))
}

// matchStages pairs each acknowledged batch with the PushBatch call that
// scored it. A tenant's batches are scored one at a time, in order, on its
// shard, so the k-th acknowledged batch of a tenant is its k-th PushBatch.
// It returns the inbound (send to push start), push and outbound (push end
// to decoded reply) times in microseconds, and how many batches found no
// call.
func matchStages(client []clientRec, pushes []pushRec) (in, push, out []float64, unmatched int) {
	byTenant := map[string][]int{}
	for i, p := range pushes {
		byTenant[p.tenant] = append(byTenant[p.tenant], i)
	}
	next := map[string]int{}
	for _, c := range client {
		k := next[c.tenant]
		next[c.tenant] = k + 1
		idx := byTenant[c.tenant]
		if k >= len(idx) {
			unmatched++
			continue
		}
		p := pushes[idx[k]]
		in = append(in, float64(p.start.Sub(c.sent))/1e3)
		push = append(push, float64(p.end.Sub(p.start))/1e3)
		out = append(out, float64(c.done.Sub(p.end))/1e3)
	}
	return in, push, out, unmatched
}

// batchSpans records a sample of batches as span trees (a harness root
// from send to decoded reply, with inbound, push and outbound children),
// enough to draw the timeline without overflowing the span budget.
func batchSpans(spans *spanLog, client []clientRec, pushes []pushRec) {
	byTenant := map[string][]int{}
	for i, p := range pushes {
		byTenant[p.tenant] = append(byTenant[p.tenant], i)
	}
	budget := spanLimit/2 - spans.count()
	every := 1
	if n := 4 * len(client); n > budget && budget > 0 {
		every = (n + budget - 1) / budget
	}
	next := map[string]int{}
	for i, c := range client {
		k := next[c.tenant]
		next[c.tenant] = k + 1
		if i%every != 0 || k >= len(byTenant[c.tenant]) {
			continue
		}
		p := pushes[byTenant[c.tenant][k]]
		root := spans.newID()
		spans.add("serve.inbound", "serve", root, obs.LaneAsync, c.sent, p.start)
		spans.add("online.push", "online", root, obs.LaneAsync, p.start, p.end)
		spans.add("serve.outbound", "serve", root, obs.LaneAsync, p.end, c.done)
		spans.record(root, "serve.batch", categoryHarness, 0, obs.LaneAsync, c.sent, c.done,
			obs.TraceAttr{Key: "tenant", Value: c.tenant})
	}
}
