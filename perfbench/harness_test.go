package main

import (
	"bufio"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"adiv/internal/obs"
	"adiv/internal/serve"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples reported; only 9 lie beyond it")
	}
	v, ok := percentile(seq(1000), 0.99)
	if !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v (ok=%v), want 990 with 10 beyond", v, ok)
	}
	if v, ok := percentile(seq(21), 0.5); !ok || v != 11 {
		t.Errorf("p50 of 1..21 = %v (ok=%v), want 11", v, ok)
	}
	if _, ok := percentile(seq(19), 0.5); ok {
		t.Error("p50 of 19 samples reported; only 9 lie beyond it")
	}
	if s := summarize(seq(500)); s.P99OK || s.N != 500 {
		t.Errorf("summary of 500 samples: %+v", s)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	span := func(id, parent uint64, start, end time.Duration, cat string) obs.SpanEvent {
		return obs.SpanEvent{ID: id, Parent: parent, Start: start, Dur: end - start, Cat: cat}
	}
	spans := []obs.SpanEvent{
		span(1, 0, 0, 100*ms, categoryHarness),
		// Overlapping children cover 10..60 once, not 30+30.
		span(2, 1, 10*ms, 40*ms, "layer"),
		span(3, 1, 30*ms, 60*ms, "layer"),
		// A child running past its parent counts only up to the parent's end.
		span(4, 1, 90*ms, 120*ms, "layer"),
		// A grandchild is subtracted from its own parent only.
		span(5, 2, 15*ms, 25*ms, "layer"),
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{1: 40 * ms, 2: 20 * ms, 3: 30 * ms, 4: 30 * ms, 5: 10 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %v, want %v", id, self[id], w)
		}
	}
	// Layer self times sum to 90ms of the root's 100ms.
	if got := unaccounted(spans, 1); got < 0.0999 || got > 0.1001 {
		t.Errorf("unaccounted = %v, want 0.1", got)
	}
}

func TestMatchStagesPairsByTenantAndSequence(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	// Two tenants whose batches interleave differently on the client and on
	// the shards; the k-th acknowledged batch of a tenant is its k-th push.
	client := []clientRec{
		{tenant: "a", sent: at(0), done: at(100)},
		{tenant: "b", sent: at(10), done: at(60)},
		{tenant: "a", sent: at(20), done: at(200)},
		{tenant: "c", sent: at(30), done: at(90)},
	}
	pushes := []pushRec{
		{tenant: "b", start: at(20), end: at(30)},
		{tenant: "a", start: at(40), end: at(70)},
		{tenant: "a", start: at(150), end: at(160)},
	}
	in, push, out, unmatched := matchStages(client, pushes)
	if unmatched != 1 {
		t.Errorf("unmatched = %d, want 1 (tenant c never pushed)", unmatched)
	}
	wantIn, wantPush, wantOut := []float64{40, 10, 130}, []float64{30, 10, 10}, []float64{30, 30, 40}
	for i := range wantIn {
		if in[i] != wantIn[i] || push[i] != wantPush[i] || out[i] != wantOut[i] {
			t.Errorf("batch %d: in/push/out = %v/%v/%v, want %v/%v/%v",
				i, in[i], push[i], out[i], wantIn[i], wantPush[i], wantOut[i])
		}
		if in[i]+push[i]+out[i] != []float64{100, 50, 180}[i] {
			t.Errorf("batch %d: stages do not add up to its latency", i)
		}
	}
}

// stallServer answers every frame with an acknowledgement, except that it
// sleeps for stall before answering frame number stallAt; stalled receives
// the stall's start and end.
func stallServer(t *testing.T, stallAt int, stall time.Duration) (addr string, stalled <-chan [2]time.Time, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan [2]time.Time, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for n := 0; ; n++ {
			f, err := serve.ReadFrame(br, 0)
			if err != nil {
				return
			}
			if n == stallAt {
				t0 := time.Now()
				time.Sleep(stall)
				ch <- [2]time.Time{t0, time.Now()}
			}
			typ := uint8(serve.FrameScores)
			if f.Type == serve.FrameClose {
				typ = serve.FrameClosed
			}
			reply := serve.AppendFrame(nil, serve.Frame{Type: typ, Tenant: f.Tenant,
				Body: serve.AppendScoresBody(nil, len(f.Body), 0, nil)})
			if _, err := conn.Write(reply); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String(), ch, func() { ln.Close(); wg.Wait() }
}

func TestClosedLoopChargesServerStallToWaitingBatches(t *testing.T) {
	const stall = 100 * time.Millisecond
	addr, stalled, stop := stallServer(t, 200, stall)
	defer stop()
	spec := serveSpec{tenants: 4, batch: 4, sessionBatches: 1000, poolSessions: 1, quiet: true, window: 100 * time.Millisecond}
	var tenants []*tenant
	for _, id := range []string{"a", "b", "c", "d"} {
		tenants = append(tenants, &tenant{base: id, sessions: []*session{{body: make([]byte, 4000), injectPos: -1}}})
	}
	start := time.Now()
	c, err := dialClient(addr, spec, start, 400*time.Millisecond, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.start(tenants); err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(c.readerDone)
		c.readLoop()
	}()
	select {
	case <-c.drained:
	case <-time.After(5 * time.Second):
		t.Fatal("replies still outstanding")
	}
	c.conn.Close()
	<-c.readerDone
	window := <-stalled

	st := c.st
	if st.failed != 0 || st.batches != st.attempted || st.attempted < 200 || len(st.recs) != int(st.batches) {
		t.Fatalf("attempted %d, acknowledged %d, recorded %d, failed %d", st.attempted, st.batches, len(st.recs), st.failed)
	}
	// Every tenant had a batch in flight when the server stalled, and each
	// of those waited out the stall.
	var waited int
	for _, r := range st.recs {
		if r.done.Sub(r.sent) >= stall*9/10 {
			waited++
		}
	}
	if waited != len(tenants) {
		t.Errorf("%d batches waited out the %v stall, want one per tenant (%d)", waited, stall, len(tenants))
	}
	// The latency windows saw the same stall.
	var slow uint32
	for b := histBucket(0.9 * float64(stall/time.Millisecond)); b < histBuckets; b++ {
		for _, h := range st.windows.wins {
			if h != nil {
				slow += h.counts[b]
			}
		}
	}
	if int(slow) != len(tenants) {
		t.Errorf("latency windows hold %d stalled batches, want %d", slow, len(tenants))
	}
	// A closed loop offers no load while every tenant waits.
	lo, hi := window[0].Add(time.Millisecond), window[1].Add(-time.Millisecond)
	for _, r := range st.recs {
		if r.sent.After(lo) && r.sent.Before(hi) {
			t.Errorf("a batch was sent %v into the stall", r.sent.Sub(window[0]))
		}
	}
}

// near reports whether got is within 1% (one histogram bucket) of want.
func near(got, want float64) bool { return math.Abs(got-want) <= 0.01*want }

func TestWindowedMediansIgnoreOneBadWindow(t *testing.T) {
	w := windows{width: time.Second}
	for k := 0; k < 3; k++ {
		for i := 0; i < 2000; i++ {
			l := 1.0
			if k == 1 {
				l = 50 // a stalled window
			}
			if i%50 == 0 {
				l *= 4 // two percent of slow requests
			}
			w.add(float64(k)+float64(i)/2000, l, 10)
		}
	}
	// Requests sent after the phase's whole windows are left out.
	w.add(3.5, 1000, 10)
	got := w.summary(3 * time.Second)
	if got.Windows != 3 || got.N != 6000 || !near(got.P50, 1) || !near(got.P99, 4) || got.Rate != 20000 {
		t.Errorf("summary = %+v, want 3 windows of 6000 requests, p50 1, p99 4, rate 20000", got)
	}
}

func TestSlowPhaseWidensWindows(t *testing.T) {
	// Ten 100ms windows of 150 requests each: windows are joined until one
	// holds 1000, and the 450-request remainder joins it.
	w := windows{width: 100 * time.Millisecond}
	for i := 0; i < 1500; i++ {
		w.add(float64(i)/1500, float64(1+i%100), 2)
	}
	got := w.summary(time.Second)
	if got.Windows != 1 || got.N != 1500 || got.Width != time.Second || got.Rate != 3000 || !near(got.P99, 99) {
		t.Errorf("summary = %+v, want one 1s window of 1500 requests, p99 99, rate 3000", got)
	}
	// Too few requests for any p99: the slowest one is reported instead.
	w = windows{width: 100 * time.Millisecond}
	for i := 0; i < 500; i++ {
		w.add(float64(i)/500, float64(1+i%100), 2)
	}
	if got := w.summary(time.Second); got.Windows != 0 || got.N != 500 || !near(got.P99, 100) {
		t.Errorf("summary = %+v, want no window and p99 read as the maximum, 100", got)
	}
}

func TestHistogramQuantilesFollowRawSamples(t *testing.T) {
	var h latHist
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = 0.01 * math.Pow(1.002, float64(i)) // 10µs to about 220ms
		h.add(xs[i], 1)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want, wantOK := percentile(xs, q)
		got, ok := h.quantile(q)
		if !near(got, want) || ok != wantOK {
			t.Errorf("q%.2f = %v (ok=%v), raw samples give %v (ok=%v)", q, got, ok, want, wantOK)
		}
	}
}

func TestExpectedResponsesFollowSessionOffset(t *testing.T) {
	ref := make([]float64, 32-serveWindow+1)
	for i := range ref {
		ref[i] = float64(i)
	}
	// The first batch fills the window: 8 events give 3 responses.
	if got := expected(ref, 0, 8); len(got) != 3 || got[0] != 0 {
		t.Errorf("first batch: %v", got)
	}
	// Later batches give one response per event.
	if got := expected(ref, 8, 8); len(got) != 8 || got[0] != 3 {
		t.Errorf("second batch: %v", got)
	}
	if got := expected(ref, 24, 8); len(got) != 8 || got[7] != float64(len(ref)-1) {
		t.Errorf("last batch: %v", got)
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	spec := serveSpec{kind: alarmerTenant, tenants: 3, batch: 16, sessionBatches: 4, poolSessions: 2}
	a, err := makeInputs(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := makeInputs(spec, 7)
	c, _ := makeInputs(spec, 8)
	same := func(x, y *serveInputs) bool {
		for i := range x.tenants {
			if x.tenants[i].base != y.tenants[i].base ||
				string(x.tenants[i].sessions[1].body) != string(y.tenants[i].sessions[1].body) {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("the same seed gave different inputs")
	}
	if same(a, c) {
		t.Error("different seeds gave the same inputs")
	}
	if got := len(a.tenants[0].sessions[0].ref); got != 64-serveWindow+1 {
		t.Errorf("reference responses: %d, want %d", got, 64-serveWindow+1)
	}
}
