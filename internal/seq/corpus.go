package seq

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adiv/internal/obs"
)

// Corpus is a concurrency-safe cache of sequence databases over one
// immutable training stream. The evaluation grid trains every detector at
// every window width on the same stream — stide, t-stide and Lane &
// Brodley all want the width-w database and the next-element predictors
// want width w+1 — so a shared Corpus turns dozens of near-identical
// seq.Build passes over the (million-element) stream into one database
// per distinct width. Most of those never touch the stream: a width is
// derived from the narrowest completed wider database already cached
// (counts summed by key prefix, plus the few tail windows no wider window
// covers), so a caller that asks for its widest width first pays one
// stream pass for the whole range.
//
// DB is singleflight per width: concurrent callers asking for the same
// width block on a single build instead of duplicating it, and callers
// asking for different widths build in parallel. Every *DB handed out is
// shared; callers must treat it as read-only (DB is immutable after Build,
// so honest users need no further synchronization).
type Corpus struct {
	stream Stream

	mu      sync.Mutex
	entries map[int]*corpusEntry

	alphaOnce sync.Once
	alphaSize int

	hits   atomic.Int64
	misses atomic.Int64

	// Telemetry handles; nil when uninstrumented (the default).
	mHits    *obs.Counter
	mMisses  *obs.Counter
	mDerived *obs.Counter
	tBuild   *obs.Timing
	gWidths  *obs.Gauge
	tracer   *obs.Tracer
}

// corpusEntry is one width's cache slot. The goroutine that creates the
// entry fills it (by a stream pass or by derivation) and closes done;
// everyone else waits on done.
type corpusEntry struct {
	done chan struct{}
	db   *DB
	err  error
}

// NewCorpus returns a Corpus over stream. The stream is copied so later
// caller mutations cannot corrupt cached databases.
func NewCorpus(stream Stream) *Corpus {
	return &Corpus{
		stream:  stream.Clone(),
		entries: make(map[int]*corpusEntry),
	}
}

// Instrument records cache telemetry into reg: the seq/corpus/hit and
// seq/corpus/miss counters (a miss is one per-width cache fill), the
// seq/corpus/derived counter (misses filled from a wider cached database),
// the seq/corpus/build timing (one record per full pass over the stream,
// so its count is misses minus derived), and the seq/corpus/widths gauge
// (distinct widths cached). A nil registry disables instrumentation.
// Instrument is safe to call concurrently with DB.
func (c *Corpus) Instrument(reg *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if reg == nil {
		c.mHits, c.mMisses, c.mDerived, c.tBuild, c.gWidths, c.tracer = nil, nil, nil, nil, nil, nil
		return
	}
	c.mHits = reg.Counter("seq/corpus/hit")
	c.mMisses = reg.Counter("seq/corpus/miss")
	c.mDerived = reg.Counter("seq/corpus/derived")
	c.tBuild = reg.Timing("seq/corpus/build")
	c.gWidths = reg.Gauge("seq/corpus/widths")
	c.tracer = reg.Tracer()
}

// Stream returns the corpus's training stream. The returned slice is the
// corpus's own copy: callers must not modify it. It exists so corpus-aware
// code can fall back to plain Detector.Train for detectors that model the
// stream directly (e.g. the HMM) rather than through sequence databases.
func (c *Corpus) Stream() Stream { return c.stream }

// Len returns the length of the training stream.
func (c *Corpus) Len() int { return len(c.stream) }

// AlphabetSize returns the number of symbols in the training stream's
// alphabet (largest symbol observed plus one; 0 for an empty stream),
// computed once and cached — the predictors' smoothing and one-hot layers
// otherwise rescan the whole stream per training.
func (c *Corpus) AlphabetSize() int {
	c.alphaOnce.Do(func() {
		k := 0
		for _, s := range c.stream {
			if int(s)+1 > k {
				k = int(s) + 1
			}
		}
		c.alphaSize = k
	})
	return c.alphaSize
}

// DB returns the sequence database at the given width, filling each width
// at most once. A miss derives the width from the narrowest wider database
// whose fill has completed (an in-flight one is never waited on or read)
// and passes over the stream only when there is none; either way the
// result equals Build(stream, width). It returns an error for a
// non-positive width.
func (c *Corpus) DB(width int) (*DB, error) {
	if width <= 0 {
		return nil, fmt.Errorf("seq: non-positive window width %d", width)
	}
	c.mu.Lock()
	if e, ok := c.entries[width]; ok {
		hits := c.mHits
		c.mu.Unlock()
		<-e.done
		c.hits.Add(1)
		hits.Inc()
		return e.db, e.err
	}
	wide := c.widerLocked(width)
	e := &corpusEntry{done: make(chan struct{})}
	c.entries[width] = e
	misses, derived, tBuild, gWidths, tracer := c.mMisses, c.mDerived, c.tBuild, c.gWidths, c.tracer
	widths := len(c.entries)
	c.mu.Unlock()

	c.misses.Add(1)
	misses.Inc()
	// The singleflight fill has no worker identity (whichever training
	// task lost the race performs it), so the trace span stays laneless.
	tsp := tracer.Start("seq/db", "db")
	tsp.SetAttrInt("width", width)
	if wide != nil {
		tsp.SetAttrInt("from", wide.width)
		e.db = derive(wide, c.stream, width)
		derived.Inc()
	} else {
		start := time.Now()
		e.db, e.err = Build(c.stream, width)
		tBuild.Record(time.Since(start))
	}
	tsp.End()
	gWidths.Set(float64(widths))
	close(e.done)
	return e.db, e.err
}

// widerLocked returns the narrowest cached database wider than width whose
// fill has completed, or nil when there is none. c.mu must be held.
func (c *Corpus) widerLocked(width int) *DB {
	var best *DB
	for w, e := range c.entries {
		if w <= width || (best != nil && w >= best.width) {
			continue
		}
		select {
		case <-e.done:
			if e.err == nil {
				best = e.db
			}
		default: // still in flight
		}
	}
	return best
}

// Contains reports whether w occurs in the stream (at w's own length). An
// empty sequence trivially occurs.
func (c *Corpus) Contains(w Stream) (bool, error) {
	if len(w) == 0 {
		return true, nil
	}
	db, err := c.DB(len(w))
	if err != nil {
		return false, err
	}
	return db.Contains(w), nil
}

// Stats returns the cache's lifetime hit and miss counts. Each miss is
// exactly one per-width cache fill, so a grid run's database work is
// provable from the miss count alone. A miss is not necessarily a pass
// over the stream: the instrumented seq/corpus/derived counter says how
// many fills were derived from a wider database instead.
func (c *Corpus) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Widths returns the distinct widths cached so far, ascending. Widths
// whose builds are still in flight are included.
func (c *Corpus) Widths() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, len(c.entries))
	for w := range c.entries {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}
