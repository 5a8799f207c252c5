package markovdet

// The batch Score loop the Markov detector had before Score was derived
// from the single-gram kernel (detector.ScoreWindows), retained verbatim as
// the oracle the memoized path is checked against bit for bit.

import (
	"fmt"
	"testing"

	"adiv/internal/detector"
	"adiv/internal/detector/detectortest"
	"adiv/internal/seq"
)

func (d *Detector) refScore(test seq.Stream) ([]float64, error) {
	if err := detector.CheckScorable(d.contexts != nil, d.window+1, test); err != nil {
		return nil, err
	}
	n := seq.NumWindows(len(test), d.window+1)
	out := make([]float64, n)
	// Encode the test stream once; each gram is an overlapping subslice, so
	// the loop performs two counted map lookups and no allocation per gram.
	b := test.Bytes()
	for i := 0; i < n; i++ {
		out[i] = 1 - d.probBytes(b[i:i+d.window+1])
	}
	return out, nil
}

func TestScoreMatchesReference(t *testing.T) {
	c := detectortest.Corpus(t)
	streams := detectortest.Streams(c)
	for _, lambda := range []float64{0, 0.5} {
		for dw := 1; dw <= detectortest.MaxWindow; dw++ {
			d, err := NewSmoothed(dw, lambda)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Train(c.Training); err != nil {
				t.Fatal(err)
			}
			for i, s := range streams {
				label := fmt.Sprintf("lambda=%v DW=%d stream %d", lambda, dw, i)
				detectortest.Same(t, label, d.Score, d.refScore, s)
			}
		}
	}
}

func TestScoreErrorsMatchReference(t *testing.T) {
	untrained, _ := New(5)
	trained, _ := New(5)
	if err := trained.Train(detectortest.Corpus(t).Training); err != nil {
		t.Fatal(err)
	}
	detectortest.SameErrors(t, trained.Extent(),
		untrained.Score, untrained.refScore, trained.Score, trained.refScore)
}
