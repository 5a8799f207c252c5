package core

import (
	"testing"

	"adiv/internal/detector"
	"adiv/internal/detector/lbr"
	"adiv/internal/detector/markovdet"
	"adiv/internal/detector/stide"
	"adiv/internal/eval"
	"adiv/internal/obs"
)

// buildQuickCorpus builds a reduced corpus once per test binary run.
var quickCorpus = func() func(t *testing.T) *Corpus {
	var c *Corpus
	var err error
	built := false
	return func(t *testing.T) *Corpus {
		t.Helper()
		if !built {
			c, err = BuildCorpus(QuickConfig())
			built = true
		}
		if err != nil {
			t.Fatalf("BuildCorpus(QuickConfig()): %v", err)
		}
		return c
	}
}()

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig().Validate() = %v", err)
	}
	if err := QuickConfig().Validate(); err != nil {
		t.Fatalf("QuickConfig().Validate() = %v", err)
	}
}

func TestConfigValidateRejectsBadRanges(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"size below minimum", func(c *Config) { c.MinSize = 1 }},
		{"size above maximum", func(c *Config) { c.MaxSize = 10 }},
		{"inverted sizes", func(c *Config) { c.MinSize, c.MaxSize = 5, 3 }},
		{"zero window", func(c *Config) { c.MinWindow = 0 }},
		{"inverted windows", func(c *Config) { c.MinWindow, c.MaxWindow = 9, 3 }},
		{"rare cutoff zero", func(c *Config) { c.RareCutoff = 0 }},
		{"rare cutoff one", func(c *Config) { c.RareCutoff = 1 }},
		{"train too short", func(c *Config) { c.Gen.TrainLen = 5 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := QuickConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("Validate() accepted invalid config")
			}
		})
	}
}

func TestBuildCorpusVerifiesAnomalies(t *testing.T) {
	c := quickCorpus(t)
	if got, want := len(c.Sizes()), c.Config.MaxSize-c.Config.MinSize+1; got != want {
		t.Fatalf("corpus has %d anomaly sizes, want %d", got, want)
	}
	for size, report := range c.Anomalies {
		if !report.IsMFS() {
			t.Errorf("size %d: anomaly is not a verified MFS: %+v", size, report)
		}
		if len(report.Sequence) != size {
			t.Errorf("size %d: anomaly has length %d", size, len(report.Sequence))
		}
	}
	for size, p := range c.Placements {
		if p.AnomalyLen != size {
			t.Errorf("size %d: placement anomaly length %d", size, p.AnomalyLen)
		}
		if len(p.Stream) != len(c.Background)+size {
			t.Errorf("size %d: test stream length %d, want %d", size, len(p.Stream), len(c.Background)+size)
		}
	}
}

// TestPerformanceMapShapes is the repository's smoke test for the paper's
// headline result: the three deterministic detectors produce the coverage
// shapes of Figures 3–5.
// TestBuildCorpusStreamPasses pins how often building the corpus counts the
// training stream. Anomaly verification asks for widths 1 and 2 first and
// injection then visits its widths widest first, so every other width the
// grid needs is derived from a wider cached database.
func TestBuildCorpusStreamPasses(t *testing.T) {
	reg := obs.New()
	c, err := BuildCorpusObserved(QuickConfig(), reg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Hash() != quickCorpus(t).Hash() {
		t.Fatal("instrumented corpus differs from BuildCorpus(QuickConfig())")
	}
	passes, _, _, _ := reg.Timing("seq/corpus/build").Stats()
	derived := reg.Counter("seq/corpus/derived").Value()
	_, misses := c.TrainingDBs().Stats()
	if passes > 3 {
		t.Errorf("%d full passes over the training stream, want <= 3", passes)
	}
	if want := c.Config.MaxWindow + 1; misses != int64(want) {
		t.Errorf("%d widths filled, want %d (1 through MaxWindow+1)", misses, want)
	}
	if passes+derived != misses {
		t.Errorf("%d passes + %d derived != %d misses", passes, derived, misses)
	}
}

func TestPerformanceMapShapes(t *testing.T) {
	c := quickCorpus(t)
	opts := eval.DefaultOptions()

	stideMap, err := c.PerformanceMap("stide", func(dw int) (detector.Detector, error) { return stide.New(dw) }, opts)
	if err != nil {
		t.Fatalf("stide map: %v", err)
	}
	markovMap, err := c.PerformanceMap("markov", func(dw int) (detector.Detector, error) { return markovdet.New(dw) }, opts)
	if err != nil {
		t.Fatalf("markov map: %v", err)
	}
	lbMap, err := c.PerformanceMap("lb", func(dw int) (detector.Detector, error) { return lbr.New(dw) }, opts)
	if err != nil {
		t.Fatalf("lb map: %v", err)
	}

	for size := c.Config.MinSize; size <= c.Config.MaxSize; size++ {
		for dw := c.Config.MinWindow; dw <= c.Config.MaxWindow; dw++ {
			// Figure 5: Stide detects iff DW >= AS.
			want := eval.Weak
			if dw >= size {
				want = eval.Capable
			} else {
				want = eval.Blind
			}
			if got := stideMap.Outcome(size, dw); got != want {
				t.Errorf("stide AS=%d DW=%d: outcome %v, want %v (resp %v)",
					size, dw, got, want, stideMap.At(size, dw).MaxResponse)
			}
			// Figure 4: Markov detects iff DW >= AS-1 (edge gain), weak below.
			if dw >= size-1 {
				want = eval.Capable
			} else {
				want = eval.Weak
			}
			if got := markovMap.Outcome(size, dw); got != want {
				t.Errorf("markov AS=%d DW=%d: outcome %v, want %v (resp %v)",
					size, dw, got, want, markovMap.At(size, dw).MaxResponse)
			}
			// Figure 3: L&B never reaches a maximal response anywhere.
			if got := lbMap.Outcome(size, dw); got == eval.Capable {
				t.Errorf("lb AS=%d DW=%d: capable, want blind/weak (resp %v)",
					size, dw, lbMap.At(size, dw).MaxResponse)
			}
		}
	}

	if !markovMap.CoversAtLeast(stideMap) {
		t.Errorf("markov coverage does not include stide coverage")
	}
}
