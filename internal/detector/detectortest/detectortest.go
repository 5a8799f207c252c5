// Package detectortest holds the fixtures of the window-detector families'
// reference-oracle tests: the evaluation corpus, the test streams every
// batch Score is checked on, and a bit-exact comparison of a Score against
// the family's retained legacy batch loop.
package detectortest

import (
	"errors"
	"math"
	"sort"
	"sync"
	"testing"

	"adiv/internal/alphabet"
	"adiv/internal/core"
	"adiv/internal/detector"
	"adiv/internal/gen"
	"adiv/internal/rng"
	"adiv/internal/seq"
)

// MaxWindow is the largest detector window of the paper's grid; the
// oracles check every window from 1 up to it.
const MaxWindow = 15

// RandomLen is the length of the random stream. Over the evaluation
// alphabet it holds more distinct windows at DW ≥ 5 than ScoreWindows'
// memo keeps (2048), so the memo's full-table fall-through is exercised.
const RandomLen = 6_000

var corpus = struct {
	once sync.Once
	c    *core.Corpus
	err  error
}{}

// Corpus returns the quick-scale evaluation corpus, built once per test
// binary.
func Corpus(tb testing.TB) *core.Corpus {
	tb.Helper()
	corpus.once.Do(func() { corpus.c, corpus.err = core.BuildCorpus(core.QuickConfig()) })
	if corpus.err != nil {
		tb.Fatalf("build corpus: %v", corpus.err)
	}
	return corpus.c
}

// Streams returns every placement stream of c in anomaly-size order,
// followed by a uniformly random stream of RandomLen symbols over the
// evaluation alphabet.
func Streams(c *core.Corpus) []seq.Stream {
	sizes := make([]int, 0, len(c.Placements))
	for s := range c.Placements {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	out := make([]seq.Stream, 0, len(sizes)+1)
	for _, s := range sizes {
		out = append(out, c.Placements[s].Stream)
	}
	src := rng.New(20260417)
	random := make(seq.Stream, RandomLen)
	for i := range random {
		random[i] = alphabet.Symbol(src.Intn(gen.AlphabetSize))
	}
	return append(out, random)
}

// ScoreFunc is a batch scorer: a detector's Score or a retained legacy
// loop.
type ScoreFunc func(seq.Stream) ([]float64, error)

// Same fails tb unless got and want return the same responses bit for bit
// (math.Float64bits) on test, or errors that match under errors.Is for
// both sentinel errors of CheckScorable.
func Same(tb testing.TB, label string, got, want ScoreFunc, test seq.Stream) {
	tb.Helper()
	g, gerr := got(test)
	w, werr := want(test)
	if (gerr == nil) != (werr == nil) {
		tb.Fatalf("%s: error %v, reference %v", label, gerr, werr)
	}
	if werr != nil {
		for _, sentinel := range []error{detector.ErrNotTrained, detector.ErrStreamTooShort} {
			if errors.Is(gerr, sentinel) != errors.Is(werr, sentinel) {
				tb.Fatalf("%s: error %v, reference %v", label, gerr, werr)
			}
		}
		return
	}
	if len(g) != len(w) {
		tb.Fatalf("%s: %d responses, reference %d", label, len(g), len(w))
	}
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			tb.Fatalf("%s: response %d = %v, reference %v", label, i, g[i], w[i])
		}
	}
}

// SameErrors checks the error paths against the reference: an untrained
// detector fails with ErrNotTrained even on a stream too short for it
// (untrained wins over too short), and a trained one fails short streams
// with ErrStreamTooShort. untrained and trained must have the given
// extent; each pair is the detector's Score and its legacy loop.
func SameErrors(tb testing.TB, extent int, untrained, untrainedRef, trained, trainedRef ScoreFunc) {
	tb.Helper()
	short := make(seq.Stream, extent-1)
	full := make(seq.Stream, extent)
	Same(tb, "untrained, short stream", untrained, untrainedRef, short)
	Same(tb, "untrained, full stream", untrained, untrainedRef, full)
	Same(tb, "trained, short stream", trained, trainedRef, short)
	if _, err := untrained(short); !errors.Is(err, detector.ErrNotTrained) {
		tb.Fatalf("untrained short stream: error %v, want ErrNotTrained", err)
	}
	if _, err := trained(short); !errors.Is(err, detector.ErrStreamTooShort) {
		tb.Fatalf("trained short stream: error %v, want ErrStreamTooShort", err)
	}
}
