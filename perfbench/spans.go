package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"adiv/internal/obs"
)

// spanLog keeps a traced run's spans in memory and writes them once, at the
// end, in the adiv.trace/v1 Chrome format. Spans carry explicit start and
// end times, so a span can be recorded after the fact from timestamps the
// harness already took (the serve workloads derive a batch's inbound, push
// and outbound spans from its send, push and receive times). A nil *spanLog
// records nothing, which is how untraced runs pay no tracing cost.
type spanLog struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []obs.SpanEvent
	nextID  uint64
	limit   int
	dropped int64
}

// spanLimit bounds a run's retained spans, matching the tracer ring the
// repository's own tooling sizes traces for.
const spanLimit = obs.DefaultTraceSpans

func newSpanLog(epoch time.Time) *spanLog {
	return &spanLog{epoch: epoch, limit: spanLimit}
}

// newID reserves a span ID, so a parent can be named by its children before
// the parent itself is recorded.
func (l *spanLog) newID() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	return l.nextID
}

// add records one completed span and returns its ID (0 when not recorded).
func (l *spanLog) add(name, cat string, parent uint64, lane int, start, end time.Time, attrs ...obs.TraceAttr) uint64 {
	return l.record(l.newID(), name, cat, parent, lane, start, end, attrs...)
}

// record records one completed span under a reserved ID.
func (l *spanLog) record(id uint64, name, cat string, parent uint64, lane int, start, end time.Time, attrs ...obs.TraceAttr) uint64 {
	if l == nil {
		return 0
	}
	dur := end.Sub(start)
	if dur < 0 {
		dur = 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= l.limit {
		l.dropped++
		return 0
	}
	l.spans = append(l.spans, obs.SpanEvent{
		ID:     id,
		Parent: parent,
		Name:   name,
		Cat:    cat,
		Lane:   lane,
		Start:  start.Sub(l.epoch),
		Dur:    dur,
		Attrs:  attrs,
	})
	return id
}

// count is how many spans are recorded.
func (l *spanLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// snapshot returns the recorded spans.
func (l *spanLog) snapshot() []obs.SpanEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]obs.SpanEvent(nil), l.spans...)
}

// write exports the spans as a Chrome trace at dir/name.
func (l *spanLog) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	l.mu.Lock()
	meta := obs.TraceMeta{
		Schema:  obs.TraceSchemaVersion,
		TraceID: uint64(l.epoch.UnixNano()),
		Total:   int64(len(l.spans)) + l.dropped,
		Dropped: l.dropped,
	}
	werr := obs.WriteChromeTrace(f, meta, l.spans)
	l.mu.Unlock()
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", fmt.Errorf("writing trace %s: %w", path, werr)
	}
	return path, nil
}

// selfTimes returns each span's self time: its duration minus the union of
// its direct children's intervals (clipped to the span), so children that
// overlap one another are not subtracted twice.
func selfTimes(spans []obs.SpanEvent) map[uint64]time.Duration {
	type iv struct{ lo, hi time.Duration }
	children := map[uint64][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.Start + s.Dur})
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		lo, hi := s.Start, s.Start+s.Dur
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
		var covered time.Duration
		curLo, curHi := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			klo, khi := max(k.lo, lo), min(k.hi, hi)
			if khi <= klo {
				continue
			}
			if curHi < 0 || klo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = klo, khi
				continue
			}
			if khi > curHi {
				curHi = khi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		out[s.ID] = s.Dur - covered
	}
	return out
}

// categoryHarness marks the benchmark's own spans around a whole phase.
// Their self time is time that no layer span covers.
const categoryHarness = "harness"

// unaccounted returns the share of the given root spans' duration that the
// layer spans beneath them do not cover: 1 - (sum of the self times of every
// descendant) / (sum of the roots' durations).
func unaccounted(spans []obs.SpanEvent, roots ...uint64) float64 {
	self := selfTimes(spans)
	kids := map[uint64][]uint64{}
	dur := map[uint64]time.Duration{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s.ID)
		dur[s.ID] = s.Dur
	}
	var total, layers time.Duration
	var walk func(id uint64)
	walk = func(id uint64) {
		for _, k := range kids[id] {
			layers += self[k]
			walk(k)
		}
	}
	for _, r := range roots {
		total += dur[r]
		walk(r)
	}
	if total <= 0 {
		return 1
	}
	return 1 - float64(layers)/float64(total)
}

// sumByName totals span durations per span name.
func sumByName(spans []obs.SpanEvent) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.Dur
	}
	return out
}

// finishTrace writes a traced run's spans and gates on none being dropped.
func finishTrace(rc *runCtx, res *result, spans *spanLog) error {
	path, err := spans.write(traceDir, fmt.Sprintf("%s-seed%d.json", rc.workload, rc.seed))
	if err != nil {
		return err
	}
	res.detail["trace"] = path
	res.detail["trace_spans"] = spans.count()
	res.check(spans.dropped == 0, "%d spans dropped", spans.dropped)
	return nil
}
