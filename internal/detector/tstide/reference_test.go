package tstide

// The batch Score loop t-stide had before Score was derived from the
// single-window kernel (detector.ScoreWindows), retained verbatim as the
// oracle the memoized path is checked against bit for bit.

import (
	"fmt"
	"testing"

	"adiv/internal/detector"
	"adiv/internal/detector/detectortest"
	"adiv/internal/seq"
)

func (d *Detector) refScore(test seq.Stream) ([]float64, error) {
	if err := detector.CheckScorable(d.normal != nil, d.window, test); err != nil {
		return nil, err
	}
	n := seq.NumWindows(len(test), d.window)
	out := make([]float64, n)
	// Encode the test stream once and fold the foreign and rare predicates
	// into a single counted lookup per window: foreign means count 0, rare
	// means a positive count below the cutoff fraction of training windows.
	b := test.Bytes()
	limit := d.cutoff * float64(d.normal.Total())
	for i := 0; i < n; i++ {
		c := d.normal.CountBytes(b[i : i+d.window])
		if c == 0 || float64(c) < limit {
			out[i] = 1
		}
	}
	return out, nil
}

func TestScoreMatchesReference(t *testing.T) {
	c := detectortest.Corpus(t)
	streams := detectortest.Streams(c)
	for dw := 1; dw <= detectortest.MaxWindow; dw++ {
		d, err := New(dw, DefaultRareCutoff)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Train(c.Training); err != nil {
			t.Fatal(err)
		}
		for i, s := range streams {
			detectortest.Same(t, fmt.Sprintf("DW=%d stream %d", dw, i), d.Score, d.refScore, s)
		}
	}
}

func TestScoreErrorsMatchReference(t *testing.T) {
	untrained, _ := New(5, DefaultRareCutoff)
	trained, _ := New(5, DefaultRareCutoff)
	if err := trained.Train(detectortest.Corpus(t).Training); err != nil {
		t.Fatal(err)
	}
	detectortest.SameErrors(t, trained.Extent(),
		untrained.Score, untrained.refScore, trained.Score, trained.refScore)
}
