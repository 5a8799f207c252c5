package lbr

// The batch Score loop Lane & Brodley had before Score was derived from the
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
	simMax := float64(MaxSimilarity(d.window))
	n := seq.NumWindows(len(test), d.window)
	out := make([]float64, n)
	// Encode the test stream once; each window compared is an overlapping
	// subslice of the encoded buffer.
	b := test.Bytes()
	for i := 0; i < n; i++ {
		w := b[i : i+d.window]
		best := 0
		for _, normal := range d.normal {
			if s := similarityBytes(normal, w); s > best {
				best = s
				if best == int(simMax) {
					break
				}
			}
		}
		out[i] = 1 - float64(best)/simMax
	}
	return out, nil
}

func TestScoreMatchesReference(t *testing.T) {
	c := detectortest.Corpus(t)
	streams := detectortest.Streams(c)
	for dw := 1; dw <= detectortest.MaxWindow; dw++ {
		d, err := New(dw)
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
	untrained, _ := New(5)
	trained, _ := New(5)
	if err := trained.Train(detectortest.Corpus(t).Training); err != nil {
		t.Fatal(err)
	}
	detectortest.SameErrors(t, trained.Extent(),
		untrained.Score, untrained.refScore, trained.Score, trained.refScore)
}
