package nnet

// This file retains the pre-kernel network implementation verbatim (dense
// row-major [][]float64 storage, per-example forward/step) as a test-only
// reference. The equivalence test in kernel_test.go trains both
// implementations on the same data and asserts the weights are bit-for-bit
// identical, which is the repo's determinism contract for the flat
// column-major kernel: same seeded PCG consumption, same floating-point
// operation order, same trained network.
//
// It also retains the batch Score loop the detector had before Score was
// derived from the single-gram kernel (detector.ScoreWindows), verbatim, as
// the oracle the memoized path is checked against bit for bit.

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"adiv/internal/detector"
	"adiv/internal/detector/detectortest"
	"adiv/internal/rng"
	"adiv/internal/seq"
)

type refNetwork struct {
	window  int
	k       int
	hidden  int
	hidden2 int

	w1, v1  [][]float64
	b1, vb1 []float64
	wm, vm  [][]float64
	bm, vbm []float64
	w2, v2  [][]float64
	b2, vb2 []float64

	h, dh, h2, dh2, probs, dout []float64
}

func (n *refNetwork) top() int {
	if n.hidden2 > 0 {
		return n.hidden2
	}
	return n.hidden
}

func newRefNetwork(window, k, hidden, hidden2 int, src *rng.Source) *refNetwork {
	n := &refNetwork{window: window, k: k, hidden: hidden, hidden2: hidden2}
	inputs := window * k
	inScale := 1 / math.Sqrt(float64(window))
	n.w1 = refRandomMatrix(src, hidden, inputs, inScale)
	n.v1 = refZeroMatrix(hidden, inputs)
	n.b1 = make([]float64, hidden)
	n.vb1 = make([]float64, hidden)
	if hidden2 > 0 {
		mScale := 1 / math.Sqrt(float64(hidden))
		n.wm = refRandomMatrix(src, hidden2, hidden, mScale)
		n.vm = refZeroMatrix(hidden2, hidden)
		n.bm = make([]float64, hidden2)
		n.vbm = make([]float64, hidden2)
		n.h2 = make([]float64, hidden2)
		n.dh2 = make([]float64, hidden2)
	}
	top := n.top()
	tScale := 1 / math.Sqrt(float64(top))
	n.w2 = refRandomMatrix(src, k, top, tScale)
	n.v2 = refZeroMatrix(k, top)
	n.b2 = make([]float64, k)
	n.vb2 = make([]float64, k)
	n.h = make([]float64, hidden)
	n.dh = make([]float64, hidden)
	n.probs = make([]float64, k)
	n.dout = make([]float64, k)
	return n
}

func refRandomMatrix(src *rng.Source, rows, cols int, scale float64) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		for j := range m[i] {
			m[i][j] = (src.Float64()*2 - 1) * scale
		}
	}
	return m
}

func refZeroMatrix(rows, cols int) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
	}
	return m
}

func (n *refNetwork) forward(context []byte) []float64 {
	for j := 0; j < n.hidden; j++ {
		a := n.b1[j]
		row := n.w1[j]
		for pos, sym := range context {
			a += row[pos*n.k+int(sym)]
		}
		n.h[j] = math.Tanh(a)
	}
	topAct := n.h
	if n.hidden2 > 0 {
		for m := 0; m < n.hidden2; m++ {
			a := n.bm[m]
			row := n.wm[m]
			for j := 0; j < n.hidden; j++ {
				a += row[j] * n.h[j]
			}
			n.h2[m] = math.Tanh(a)
		}
		topAct = n.h2
	}
	maxLogit := math.Inf(-1)
	for o := 0; o < n.k; o++ {
		a := n.b2[o]
		row := n.w2[o]
		for t := range topAct {
			a += row[t] * topAct[t]
		}
		n.probs[o] = a
		if a > maxLogit {
			maxLogit = a
		}
	}
	sum := 0.0
	for o := 0; o < n.k; o++ {
		n.probs[o] = math.Exp(n.probs[o] - maxLogit)
		sum += n.probs[o]
	}
	for o := 0; o < n.k; o++ {
		n.probs[o] /= sum
	}
	return n.probs
}

func (n *refNetwork) step(context []byte, target int, weight, lr, momentum float64) float64 {
	probs := n.forward(context)
	loss := weight * crossEntropy(probs[target])

	for o := 0; o < n.k; o++ {
		n.dout[o] = probs[o]
	}
	n.dout[target] -= 1

	topAct, topDelta := n.h, n.dh
	if n.hidden2 > 0 {
		topAct, topDelta = n.h2, n.dh2
	}

	for t := range topAct {
		s := 0.0
		for o := 0; o < n.k; o++ {
			s += n.w2[o][t] * n.dout[o]
		}
		topDelta[t] = s * (1 - topAct[t]*topAct[t])
	}
	if n.hidden2 > 0 {
		for j := 0; j < n.hidden; j++ {
			s := 0.0
			for m := 0; m < n.hidden2; m++ {
				s += n.wm[m][j] * n.dh2[m]
			}
			n.dh[j] = s * (1 - n.h[j]*n.h[j])
		}
	}

	step := lr * weight

	for o := 0; o < n.k; o++ {
		g := n.dout[o]
		row, vel := n.w2[o], n.v2[o]
		for t := range topAct {
			vel[t] = momentum*vel[t] - step*g*topAct[t]
			row[t] += vel[t]
		}
		n.vb2[o] = momentum*n.vb2[o] - step*g
		n.b2[o] += n.vb2[o]
	}

	if n.hidden2 > 0 {
		for m := 0; m < n.hidden2; m++ {
			g := n.dh2[m]
			row, vel := n.wm[m], n.vm[m]
			for j := 0; j < n.hidden; j++ {
				vel[j] = momentum*vel[j] - step*g*n.h[j]
				row[j] += vel[j]
			}
			n.vbm[m] = momentum*n.vbm[m] - step*g
			n.bm[m] += n.vbm[m]
		}
	}

	for j := 0; j < n.hidden; j++ {
		g := n.dh[j]
		row, vel := n.w1[j], n.v1[j]
		for pos, sym := range context {
			i := pos*n.k + int(sym)
			vel[i] = momentum*vel[i] - step*g
			row[i] += vel[i]
		}
		n.vb1[j] = momentum*n.vb1[j] - step*g
		n.b1[j] += n.vb1[j]
	}
	return loss
}

type refExample struct {
	context []byte
	next    int
	weight  float64
}

// refFit replicates the pre-kernel fit loop: weighted examples from the
// distinct grams, sorted deterministically, weights normalized to mean 1,
// per-example SGD in seeded shuffle order.
func refFit(grams *seq.DB, window, k int, cfg Config) *refNetwork {
	examples := make([]refExample, 0, grams.Distinct())
	grams.Each(func(w seq.Stream, count int) {
		b := w.Bytes()
		examples = append(examples, refExample{
			context: b[:window],
			next:    int(b[window]),
			weight:  float64(count),
		})
	})
	sort.Slice(examples, func(i, j int) bool {
		ci, cj := examples[i].context, examples[j].context
		if c := refCompareBytes(ci, cj); c != 0 {
			return c < 0
		}
		return examples[i].next < examples[j].next
	})
	totalW := 0.0
	for _, e := range examples {
		totalW += e.weight
	}
	scale := float64(len(examples)) / totalW
	for i := range examples {
		examples[i].weight *= scale
	}

	net := newRefNetwork(window, k, cfg.Hidden, cfg.Hidden2, rng.New(cfg.Seed))
	src := rng.New(cfg.Seed ^ 0xA5A5A5A5A5A5A5A5)
	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		src.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss := 0.0
		for _, idx := range order {
			e := examples[idx]
			epochLoss += net.step(e.context, e.next, e.weight, cfg.LearningRate, cfg.Momentum)
		}
		if cfg.TargetLoss > 0 && epochLoss/float64(len(order)) < cfg.TargetLoss {
			break
		}
	}
	return net
}

func refCompareBytes(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return len(a) - len(b)
}

func (d *Detector) refScore(test seq.Stream) ([]float64, error) {
	if err := detector.CheckScorable(d.net != nil, d.window+1, test); err != nil {
		return nil, err
	}
	b := test.Bytes()
	n := seq.NumWindows(len(test), d.window+1)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		probs := d.net.forward(b[i : i+d.window])
		next := int(b[i+d.window])
		p := 0.0
		if next < len(probs) {
			p = probs[next]
		}
		out[i] = 1 - p
	}
	return out, nil
}

// oracleCfg trains in a few milliseconds per window: the oracle needs a
// trained network, not a good one.
func oracleCfg() Config {
	cfg := DefaultConfig()
	cfg.Hidden = 8
	cfg.Epochs = 3
	return cfg
}

func TestScoreMatchesReference(t *testing.T) {
	c := detectortest.Corpus(t)
	streams := detectortest.Streams(c)
	for dw := 1; dw <= detectortest.MaxWindow; dw++ {
		d, err := New(dw, oracleCfg())
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
	untrained, _ := New(5, oracleCfg())
	trained, _ := New(5, oracleCfg())
	if err := trained.Train(detectortest.Corpus(t).Training); err != nil {
		t.Fatal(err)
	}
	detectortest.SameErrors(t, trained.Extent(),
		untrained.Score, untrained.refScore, trained.Score, trained.refScore)
}
