package detector_test

import (
	"math"
	"sync"
	"testing"

	"adiv/internal/alphabet"
	"adiv/internal/detector"
	"adiv/internal/detector/lbr"
	"adiv/internal/detector/markovdet"
	"adiv/internal/detector/nnet"
	"adiv/internal/detector/stide"
	"adiv/internal/detector/tstide"
	"adiv/internal/rng"
	"adiv/internal/seq"
)

// noisyCycle is a period-k cycle with a fraction of random symbols mixed
// in; different seeds give different models of the same alphabet.
func noisyCycle(seed uint64, n, k int, noise float64) seq.Stream {
	src := rng.New(seed)
	s := make(seq.Stream, n)
	for i := range s {
		if src.Float64() < noise {
			s[i] = alphabet.Symbol(src.Intn(k))
		} else {
			s[i] = alphabet.Symbol(i % k)
		}
	}
	return s
}

// windowFamilies returns one trained detector per window-local family at
// window dw, trained on train.
func windowFamilies(t *testing.T, dw int, train seq.Stream) map[string]detector.Detector {
	t.Helper()
	st, _ := stide.New(dw)
	ts, _ := tstide.New(dw, tstide.DefaultRareCutoff)
	mk, _ := markovdet.New(dw)
	lb, _ := lbr.New(dw)
	cfg := nnet.DefaultConfig()
	cfg.Hidden, cfg.Epochs = 8, 5
	nn, err := nnet.New(dw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dets := map[string]detector.Detector{"stide": st, "tstide": ts, "markov": mk, "lb": lb, "nn": nn}
	for name, d := range dets {
		if err := d.Train(train); err != nil {
			t.Fatalf("train %s: %v", name, err)
		}
	}
	return dets
}

// kernelScores scores every window of test with d's kernel, no memo: what
// a fresh, memo-less batch Score returns.
func kernelScores(t *testing.T, d detector.Detector, test seq.Stream) []float64 {
	t.Helper()
	ws, ok := detector.AsWindowByteScorer(d)
	if !ok {
		t.Fatalf("%s offers no window kernel", d.Name())
	}
	b := test.Bytes()
	out := make([]float64, seq.NumWindows(len(test), d.Extent()))
	for i := range out {
		r, err := ws.ScoreWindowBytes(b[i : i+d.Extent()])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	return out
}

func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d responses, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: response %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestScoreNoMemoLeakAcrossModels scores stream A with one model, then an
// overlapping stream B with a different model of the same extent: B's
// responses must be the second model's own, proving the pooled memo is
// cleared between calls.
func TestScoreNoMemoLeakAcrossModels(t *testing.T) {
	a := noisyCycle(1, 3000, 6, 0.1)
	b := append(append(seq.Stream{}, a[1000:]...), noisyCycle(2, 1000, 6, 0.3)...)
	first := windowFamilies(t, 4, noisyCycle(3, 4000, 6, 0.02))
	second := windowFamilies(t, 4, noisyCycle(4, 4000, 6, 0.2))
	for name, d1 := range first {
		d2 := second[name]
		if _, err := d1.Score(a); err != nil {
			t.Fatal(err)
		}
		got, err := d2.Score(b)
		if err != nil {
			t.Fatal(err)
		}
		want := kernelScores(t, d2, b)
		sameBits(t, name, got, want)
		differ := false
		for i, r := range kernelScores(t, d1, b) {
			differ = differ || math.Float64bits(r) != math.Float64bits(want[i])
		}
		if !differ {
			t.Fatalf("%s: the two models agree on B, so a leak would go unseen", name)
		}
	}
}

// TestScoreConcurrent runs concurrent Score calls on one trained stide and
// one trained L&B detector (their kernels only read the model) and
// compares each result to serial output. Run under -race.
func TestScoreConcurrent(t *testing.T) {
	dets := windowFamilies(t, 6, noisyCycle(5, 5000, 8, 0.05))
	streams := []seq.Stream{noisyCycle(6, 2000, 8, 0.1), noisyCycle(7, 2000, 9, 0.3), noisyCycle(8, 500, 8, 0)}
	for _, name := range []string{"stide", "lb"} {
		d := dets[name]
		want := make([][]float64, len(streams))
		for i, s := range streams {
			r, err := d.Score(s)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = r
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < 6; k++ {
					i := (g + k) % len(streams)
					got, err := d.Score(streams[i])
					if err != nil {
						t.Error(err)
						return
					}
					for j := range got {
						if math.Float64bits(got[j]) != math.Float64bits(want[i][j]) {
							t.Errorf("%s goroutine %d stream %d: response %d = %v, serial %v", name, g, i, j, got[j], want[i][j])
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestScoreTwoAllocations pins the batch Score of every window-local
// family at two allocations, the stream encoding and the response slice.
func TestScoreTwoAllocations(t *testing.T) {
	test := noisyCycle(9, 2000, 8, 0.1)
	for name, d := range windowFamilies(t, 8, noisyCycle(10, 5000, 8, 0.05)) {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := d.Score(test); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 2 {
			t.Errorf("%s: Score made %v allocations, want 2", name, allocs)
		}
	}
}
