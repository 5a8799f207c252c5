package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adiv"
	"adiv/internal/obs"
	"adiv/internal/serve"
)

// tenant is one client-side tenant stream and the batches it has in
// flight, oldest first. A tenant belongs to one connection.
type tenant struct {
	base     string
	id       string
	sessions []*session
	opened   int // sessions opened so far
	off      int // events sent in the current session
	pending  []inflight
	// desync is set after a Busy reply. The server skipped a batch, and
	// with several batches in flight the client cannot tell which one, so
	// from then on only acknowledgement counts are checked.
	desync bool
}

type inflight struct {
	id    string
	sess  *session
	off   int
	n     int
	close bool
	sent  time.Time
}

// next advances t by one batch sent at sent and returns it.
func (t *tenant) next(spec serveSpec, sent time.Time) inflight {
	sess := t.sessions[t.opened%len(t.sessions)]
	if t.off == 0 {
		t.id = t.base
		if spec.freshIDs {
			t.id = fmt.Sprintf("%s-%d", t.base, t.opened)
		}
	}
	p := inflight{id: t.id, sess: sess, off: t.off, n: spec.batch, sent: sent}
	t.off += spec.batch
	if t.off >= len(sess.body) {
		p.close = true
		t.off = 0
		t.opened++
	}
	t.pending = append(t.pending, p)
	return p
}

// clientRec is one completed batch as the client saw it.
type clientRec struct {
	tenant     string
	sent, done time.Time
}

// phaseStats is what one measurement phase observed on the client side.
type phaseStats struct {
	// traced keeps a record per batch for matching against PushBatch.
	traced            bool
	start, lastAck    time.Time
	windows           windows
	recs              []clientRec
	events, batches   int64
	attempted         int64
	failed            int64
	opened            int64
	wrong             []string
	encodeNs, encode  int64
	decodeNs, decode  int64
	bytesIn, bytesOut int64
	idEvents          map[string]int64
	escalated         map[string]int
	closed            []closedSession
}

type closedSession struct {
	id  string
	pos int
}

func newPhaseStats(start time.Time, window time.Duration, traced bool) *phaseStats {
	return &phaseStats{start: start, traced: traced, windows: windows{width: window},
		idEvents: map[string]int64{}, escalated: map[string]int{}}
}

func (s *phaseStats) fail(format string, args ...any) {
	s.failed++
	if len(s.wrong) < 8 {
		s.wrong = append(s.wrong, fmt.Sprintf(format, args...))
	}
}

// latency records one request's latency, from when it was sent to when its
// reply was decoded, and the events it acknowledged.
func (s *phaseStats) latency(sent, done time.Time, events int) {
	s.windows.add(sent.Sub(s.start).Seconds(), float64(done.Sub(sent))/1e6, events)
}

// sent records a batch leaving the client.
func (s *phaseStats) sent(p inflight) {
	s.attempted++
	if p.off == 0 {
		s.opened++
	}
}

// busy records a Busy reply against the tenant's oldest batch in flight.
func (s *phaseStats) busy(t *tenant) {
	t.pending = t.pending[1:]
	t.desync = true
	s.failed++
}

// complete checks one acknowledged batch against the offline reference and
// records it; a wrong reply counts as failed and complete returns false.
func (s *phaseStats) complete(t *tenant, accepted, alarms int, responses []float64, closed bool, done time.Time) bool {
	p := t.pending[0]
	t.pending = t.pending[1:]
	ok := true
	if accepted != p.n {
		s.fail("%s: ack for %d of %d events", p.id, accepted, p.n)
		ok = false
	}
	if !t.desync && closed != p.close {
		s.fail("%s: closed=%v, sent close=%v", p.id, closed, p.close)
		ok = false
	}
	if ok && !t.desync && p.sess.ref != nil {
		want := expected(p.sess.ref, p.off, p.n)
		if !sameBits(responses, want) {
			s.fail("%s: responses at offset %d differ from offline detector.Score", p.id, p.off)
			ok = false
		} else if wantAlarms := alarmsIn(want, p.sess.alarmed); alarms != wantAlarms {
			s.fail("%s: %d alarms, offline responses give %d", p.id, alarms, wantAlarms)
			ok = false
		}
	}
	if p.close && p.sess.injectPos >= 0 && !t.desync {
		s.closed = append(s.closed, closedSession{id: p.id, pos: p.sess.injectPos})
	}
	if !ok {
		return false
	}
	if s.traced {
		s.recs = append(s.recs, clientRec{tenant: p.id, sent: p.sent, done: done})
	}
	s.events += int64(p.n)
	s.batches++
	s.idEvents[p.id] += int64(p.n)
	s.escalated[p.id] += alarms
	if done.After(s.lastAck) {
		s.lastAck = done
	}
	return true
}

// expected returns the reference responses that become ready while n events
// are pushed at session offset off.
func expected(ref []float64, off, n int) []float64 {
	lo := off + 1 - serveWindow
	hi := off + n + 1 - serveWindow
	lo, hi = max(lo, 0), max(hi, 0)
	return ref[min(lo, len(ref)):min(hi, len(ref))]
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// alarmsIn is how many of the responses raise an alarm at the Alarmer's
// threshold, or 0 when the scorer raises none.
func alarmsIn(responses []float64, alarmed bool) int {
	if !alarmed {
		return 0
	}
	n := 0
	for _, x := range responses {
		if x >= adiv.StrictThreshold {
			n++
		}
	}
	return n
}

// merge folds other into s.
func (s *phaseStats) merge(o *phaseStats) {
	s.windows.merge(&o.windows)
	s.recs = append(s.recs, o.recs...)
	s.events += o.events
	s.batches += o.batches
	s.attempted += o.attempted
	s.failed += o.failed
	s.opened += o.opened
	s.wrong = append(s.wrong, o.wrong...)
	s.encodeNs += o.encodeNs
	s.encode += o.encode
	s.decodeNs += o.decodeNs
	s.decode += o.decode
	s.bytesIn += o.bytesIn
	s.bytesOut += o.bytesOut
	for k, v := range o.idEvents {
		s.idEvents[k] += v
	}
	for k, v := range o.escalated {
		s.escalated[k] += v
	}
	s.closed = append(s.closed, o.closed...)
	if o.lastAck.After(s.lastAck) {
		s.lastAck = o.lastAck
	}
}

// groups splits tenants round-robin over n connections.
func groups(tenants []*tenant, n int) [][]*tenant {
	out := make([][]*tenant, n)
	for i, t := range tenants {
		out[i%n] = append(out[i%n], t)
	}
	return out
}

// countingConn counts the bytes a client connection moves.
type countingConn struct {
	net.Conn
	in, out atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// measure runs one measurement phase of length dur against env.
func measure(env *serveEnv, spec serveSpec, tenants []*tenant, dur time.Duration, traced bool) (*phaseStats, error) {
	var st *phaseStats
	var err error
	if spec.http {
		st, err = measureHTTP(env, spec, groups(tenants, runtime.NumCPU()), dur, traced)
	} else {
		st, err = measureTCP(env, spec, groups(tenants, runtime.NumCPU()), dur, traced)
	}
	if err == nil && st.batches == 0 {
		err = errors.New("no batch was acknowledged")
	}
	return st, err
}

// drainTimeout bounds how long a phase waits for its last replies.
const drainTimeout = 60 * time.Second

var errDrainTimeout = errors.New("replies still outstanding after the drain timeout")

// tcpClient is one pipelined frame-protocol connection carrying a fixed
// group of tenants in a closed loop: each tenant has one batch in flight and
// sends the next when the previous one is acknowledged. After the initial
// batches the read loop is the only writer; mu guards the tenants' in-flight
// queues and the stats, which the read loop shares with the coordinator.
type tcpClient struct {
	spec serveSpec
	conn *countingConn
	br   *bufio.Reader

	mu          sync.Mutex
	byID        map[string]*tenant
	st          *phaseStats
	outstanding int
	isDrained   bool
	// drained closes once the deadline has passed and every batch is
	// answered; readerDone closes when the read loop returns.
	drained    chan struct{}
	readerDone chan struct{}
	deadline   time.Time
}

// dialClient connects one client for a phase that starts at start and
// sends until start+dur.
func dialClient(addr string, spec serveSpec, start time.Time, dur time.Duration, traced bool) (*tcpClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: conn}
	return &tcpClient{
		spec: spec, conn: cc, br: bufio.NewReaderSize(cc, 64<<10),
		byID: map[string]*tenant{}, st: newPhaseStats(start, spec.window, traced),
		drained: make(chan struct{}), readerDone: make(chan struct{}), deadline: start.Add(dur),
	}, nil
}

// enqueue advances t by one batch and appends its frame to dst. Callers
// hold c.mu.
func (c *tcpClient) enqueue(dst []byte, t *tenant) []byte {
	p := t.next(c.spec, time.Now())
	c.byID[p.id] = t
	typ := uint8(serve.FrameEvents)
	switch {
	case p.close:
		typ = serve.FrameClose
	case c.spec.quiet:
		typ = serve.FrameEventsQuiet
	}
	t0 := time.Now()
	dst = serve.AppendFrame(dst, serve.Frame{Type: typ, Tenant: p.id, Body: p.sess.body[p.off : p.off+p.n]})
	c.st.encodeNs += int64(time.Since(t0))
	c.st.encode++
	c.st.sent(p)
	c.outstanding++
	return dst
}

// start sends every tenant's first batch.
func (c *tcpClient) start(tenants []*tenant) error {
	var buf []byte
	c.mu.Lock()
	for _, t := range tenants {
		buf = c.enqueue(buf, t)
	}
	c.mu.Unlock()
	_, err := c.conn.Write(buf)
	return err
}

// readLoop decodes replies until the connection closes, sending each
// tenant's next batch as soon as the previous one is acknowledged, until
// the deadline.
func (c *tcpClient) readLoop() error {
	var out []byte
	for {
		// Peek first so that decode time excludes waiting for the reply.
		if _, err := c.br.Peek(4); err != nil {
			return err
		}
		t0 := time.Now()
		f, err := serve.ReadFrame(c.br, 0)
		if err != nil {
			return err
		}
		var accepted, alarms int
		var responses []float64
		var perr error
		if f.Type == serve.FrameScores || f.Type == serve.FrameClosed {
			accepted, alarms, responses, perr = serve.ParseScoresBody(f.Body)
		}
		done := time.Now()

		c.mu.Lock()
		c.st.decodeNs += int64(done.Sub(t0))
		c.st.decode++
		t := c.byID[f.Tenant]
		switch {
		case t == nil || len(t.pending) == 0:
			c.st.fail("reply (type %d) for tenant %q with nothing in flight", f.Type, f.Tenant)
			c.mu.Unlock()
			return fmt.Errorf("unmatched reply for %q", f.Tenant)
		case f.Type == serve.FrameBusy:
			c.st.busy(t)
		case perr != nil || (f.Type != serve.FrameScores && f.Type != serve.FrameClosed):
			t.pending = t.pending[1:]
			c.st.fail("%s: reply type %d: %s %v", f.Tenant, f.Type, f.Body, perr)
		default:
			p := t.pending[0]
			if c.st.complete(t, accepted, alarms, responses, f.Type == serve.FrameClosed, done) {
				c.st.latency(p.sent, done, p.n)
			}
		}
		c.outstanding--
		if len(t.pending) == 0 && done.Before(c.deadline) {
			out = c.enqueue(out[:0], t)
		}
		if c.outstanding == 0 && !c.isDrained {
			c.isDrained = true
			close(c.drained)
		}
		c.mu.Unlock()
		if len(out) > 0 {
			if _, err := c.conn.Write(out); err != nil {
				return err
			}
			out = out[:0]
		}
	}
}

// measureTCP runs one phase over one connection per tenant group.
func measureTCP(env *serveEnv, spec serveSpec, groups [][]*tenant, dur time.Duration, traced bool) (*phaseStats, error) {
	start := time.Now()
	clients := make([]*tcpClient, len(groups))
	for i := range groups {
		c, err := dialClient(env.addr, spec, start, dur, traced)
		if err != nil {
			for _, c := range clients[:i] {
				c.conn.Close()
			}
			return nil, err
		}
		clients[i] = c
	}
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	for i, c := range clients {
		// The first batches go out before the read loop starts, so the
		// read loop is the connection's only writer from then on.
		if err := c.start(groups[i]); err != nil {
			errs[i] = err
			close(c.readerDone)
			continue
		}
		wg.Add(1)
		go func(i int, c *tcpClient) {
			defer wg.Done()
			defer close(c.readerDone)
			errs[i] = c.readLoop()
		}(i, c)
	}
	timeout := time.After(dur + drainTimeout)
	var failure error
	for i, c := range clients {
		select {
		case <-c.drained:
			continue
		case <-c.readerDone:
			failure = fmt.Errorf("connection %d: %w", i, errs[i])
		case <-timeout:
			failure = errDrainTimeout
		}
		break
	}
	for _, c := range clients {
		c.conn.Close()
	}
	wg.Wait()
	st := newPhaseStats(start, spec.window, traced)
	for _, c := range clients {
		c.st.bytesIn, c.st.bytesOut = c.conn.in.Load(), c.conn.out.Load()
		st.merge(c.st)
	}
	return st, failure
}

// measureHTTP runs one closed-loop phase: each group's goroutine POSTs one
// NDJSON line per tenant of its group on its own keep-alive connection,
// waits for the reply, checks it, and posts again until the deadline. A
// POST is one latency sample.
func measureHTTP(env *serveEnv, spec serveSpec, groups [][]*tenant, dur time.Duration, traced bool) (*phaseStats, error) {
	start := time.Now()
	deadline := start.Add(dur)
	var cmu sync.Mutex
	var conns []*countingConn
	tr := &http.Transport{
		MaxConnsPerHost:     len(groups),
		MaxIdleConnsPerHost: len(groups),
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			var d net.Dialer
			conn, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			cc := &countingConn{Conn: conn}
			cmu.Lock()
			conns = append(conns, cc)
			cmu.Unlock()
			return cc, nil
		},
	}
	client := &http.Client{Transport: tr}
	url := "http://" + env.addr + "/v1/push"
	stats := make([]*phaseStats, len(groups))
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for i, g := range groups {
		stats[i] = newPhaseStats(start, spec.window, traced)
		wg.Add(1)
		go func(st *phaseStats, g []*tenant, errp *error) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := postOnce(client, url, spec, st, g); err != nil {
					*errp = err
					return
				}
			}
		}(stats[i], g, &errs[i])
	}
	wg.Wait()
	tr.CloseIdleConnections()
	st := newPhaseStats(start, spec.window, traced)
	for _, s := range stats {
		st.merge(s)
	}
	cmu.Lock()
	for _, c := range conns {
		st.bytesIn += c.in.Load()
		st.bytesOut += c.out.Load()
	}
	cmu.Unlock()
	return st, errors.Join(errs...)
}

// postOnce sends one batch for every tenant of g in a single POST and
// checks the reply lines against the precomputed ones, decoding only a
// line that differs.
func postOnce(client *http.Client, url string, spec serveSpec, st *phaseStats, g []*tenant) error {
	sent := time.Now()
	var body bytes.Buffer
	for _, t := range g {
		p := t.next(spec, sent)
		st.sent(p)
		t0 := time.Now()
		body.Write(p.sess.lines[p.off/spec.batch])
		st.encodeNs += int64(time.Since(t0))
		st.encode++
	}
	resp, err := client.Post(url, "application/x-ndjson", &body)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	t0 := time.Now()
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	done := time.Now()
	st.decodeNs += int64(done.Sub(t0))
	st.decode++
	acked := 0
	for i, t := range g {
		p := t.pending[0]
		if i < len(lines) && bytes.Equal(lines[i], p.sess.replies[p.off/spec.batch]) {
			st.complete(t, p.n, 0, expected(p.sess.ref, p.off, p.n), p.close, done)
			acked += p.n
			continue
		}
		var r serve.PushResponse
		if i < len(lines) {
			if err := json.Unmarshal(lines[i], &r); err != nil {
				return fmt.Errorf("bad reply line %q: %w", lines[i], err)
			}
		}
		switch {
		case i < len(lines) && r.Error == "":
			// A reply that differs from the expected bytes (a 429 still
			// answers the lines before the rejected one): complete reports
			// what, if anything, is wrong with it.
			if st.complete(t, r.Accepted, r.Alarms, r.Responses, r.Closed, done) {
				acked += p.n
			}
		case resp.StatusCode == http.StatusTooManyRequests:
			st.busy(t)
		default:
			t.pending = t.pending[1:]
			t.desync = true
			st.fail("%s: status %d: %s", p.id, resp.StatusCode, bytes.TrimSpace(data))
		}
	}
	st.latency(sent, done, acked)
	return nil
}

// verifyJournal checks the serve-heavy alert journal: every tenant session
// that ran to its close escalated at its injected anomaly (an escalated
// record positioned within the anomaly plus one window of slack on each
// side, the rule serveload -verify-journal applies), and each session's
// escalations acknowledged on the wire equal its escalated records.
func verifyJournal(path string, acked map[string]int, closed []closedSession, size int) []string {
	f, err := os.Open(path)
	if err != nil {
		return []string{err.Error()}
	}
	defer f.Close()
	type window struct{ lo, hi int }
	want := map[string]window{}
	for _, c := range closed {
		want[c.id] = window{c.pos - serveWindow, c.pos + size + serveWindow}
	}
	escalated := map[string]int{}
	hit := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	// Most records are raised or suppressed; only escalated ones need
	// decoding. A record the filter wrongly skipped would show up below as
	// a session whose acknowledged escalations exceed its journaled ones.
	escalatedField := []byte(`"disposition":"` + obs.DispositionEscalated + `"`)
	for sc.Scan() {
		if !bytes.Contains(sc.Bytes(), escalatedField) {
			continue
		}
		var rec obs.AlertRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return []string{fmt.Sprintf("bad journal line: %v", err)}
		}
		if rec.Disposition != obs.DispositionEscalated {
			continue
		}
		escalated[rec.Tenant]++
		if w, ok := want[rec.Tenant]; ok && rec.Position >= w.lo && rec.Position <= w.hi {
			hit[rec.Tenant] = true
		}
	}
	if err := sc.Err(); err != nil {
		return []string{err.Error()}
	}
	var problems []string
	note := func(format string, args ...any) {
		if len(problems) < 8 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	for id := range want {
		if !hit[id] {
			note("session %s did not escalate at its injected anomaly", id)
		}
	}
	for id, n := range escalated {
		if acked[id] != n {
			note("session %s: %d escalations acknowledged, %d journaled", id, acked[id], n)
		}
	}
	for id, n := range acked {
		if escalated[id] != n {
			note("session %s: %d escalations acknowledged, %d journaled", id, n, escalated[id])
		}
	}
	return problems
}
