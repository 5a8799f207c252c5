package online

// The pre-kernel streaming push path — slide a seq.Stream window, call the
// detector's batch Score per push — retained verbatim as refScorer, the
// behavioral reference for the zero-alloc fast path. The tests compare the
// new Scorer response-for-response (bit equality) against it for every
// detector family with a fast path, plus one without, and pin the
// steady-state push at zero allocations.

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"adiv/internal/alphabet"
	"adiv/internal/detector"
	"adiv/internal/detector/hmm"
	"adiv/internal/detector/lbr"
	"adiv/internal/detector/markovdet"
	"adiv/internal/detector/nnet"
	"adiv/internal/detector/stide"
	"adiv/internal/detector/tstide"
	"adiv/internal/obs"
	"adiv/internal/rng"
	"adiv/internal/seq"
)

// refScorer is the retained pre-kernel Scorer: batch Score per push.
type refScorer struct {
	det    detector.Detector
	extent int
	buf    seq.Stream
	seen   int
}

func newRefScorer(det detector.Detector) (*refScorer, error) {
	if det == nil {
		return nil, errors.New("online: nil detector")
	}
	extent := det.Extent()
	if extent < 1 {
		return nil, fmt.Errorf("online: detector %s reports extent %d", det.Name(), extent)
	}
	return &refScorer{
		det:    det,
		extent: extent,
		buf:    make(seq.Stream, 0, extent),
	}, nil
}

func (s *refScorer) Push(sym alphabet.Symbol) (response float64, ready bool, err error) {
	s.seen++
	if len(s.buf) < s.extent {
		s.buf = append(s.buf, sym)
	} else {
		copy(s.buf, s.buf[1:])
		s.buf[s.extent-1] = sym
	}
	if len(s.buf) < s.extent {
		return 0, false, nil
	}
	responses, err := s.det.Score(s.buf)
	if err != nil {
		return 0, false, fmt.Errorf("online: %w", err)
	}
	if len(responses) != 1 {
		return 0, false, fmt.Errorf("online: scoring one window yielded %d responses", len(responses))
	}
	return responses[0], true, nil
}

func refStream(seed uint64, length, k int) seq.Stream {
	src := rng.New(seed)
	out := make(seq.Stream, length)
	for i := range out {
		if src.Float64() < 0.2 {
			out[i] = alphabet.Symbol(src.Intn(k))
		} else {
			out[i] = alphabet.Symbol(i % k)
		}
	}
	return out
}

// refDetectors builds one trained detector per family that offers the
// streaming fast path, plus labels.
func refDetectors(t *testing.T, train seq.Stream) map[string]detector.Detector {
	t.Helper()
	out := make(map[string]detector.Detector)

	st, err := stide.New(6)
	if err != nil {
		t.Fatal(err)
	}
	out["stide"] = st

	ts, err := tstide.New(6, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	out["tstide"] = ts

	mk, err := markovdet.New(4)
	if err != nil {
		t.Fatal(err)
	}
	out["markov"] = mk

	lb, err := lbr.New(6)
	if err != nil {
		t.Fatal(err)
	}
	out["lbr"] = lb

	nncfg := nnet.DefaultConfig()
	nncfg.Hidden, nncfg.Epochs = 8, 20
	nn, err := nnet.New(4, nncfg)
	if err != nil {
		t.Fatal(err)
	}
	out["nn"] = nn

	cfg := hmm.DefaultConfig()
	cfg.Iterations = 4
	hm, err := hmm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out["hmm"] = hm

	for name, d := range out {
		if err := d.Train(train); err != nil {
			t.Fatalf("train %s: %v", name, err)
		}
	}
	return out
}

// TestPushMatchesReference compares the fast-path Scorer push-for-push and
// bit-for-bit against the retained batch-Score-per-push reference, for
// every fast-path detector family.
func TestPushMatchesReference(t *testing.T) {
	train := refStream(3, 3000, 8)
	test := refStream(11, 1200, 9) // includes a symbol foreign to training
	for name, det := range refDetectors(t, train) {
		if _, ok := detector.AsWindowByteScorer(det); !ok {
			t.Fatalf("%s: expected a streaming fast path", name)
		}
		ref, err := newRefScorer(det)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewScorer(det)
		if err != nil {
			t.Fatal(err)
		}
		for i, sym := range test {
			wantR, wantReady, wantErr := ref.Push(sym)
			gotR, gotReady, gotErr := got.Push(sym)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s push %d: err %v, reference %v", name, i, gotErr, wantErr)
			}
			if wantReady != gotReady {
				t.Fatalf("%s push %d: ready %v, reference %v", name, i, gotReady, wantReady)
			}
			if math.Float64bits(wantR) != math.Float64bits(gotR) {
				t.Fatalf("%s push %d: response %v, reference %v", name, i, gotR, wantR)
			}
		}
	}
}

// TestPushUntrainedMatchesReference pins the error path: pushing into an
// untrained detector fails identically on both paths.
func TestPushUntrainedMatchesReference(t *testing.T) {
	st, err := stide.New(6)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := newRefScorer(st)
	got, _ := NewScorer(st)
	stream := refStream(1, 10, 4)
	for _, sym := range stream {
		_, _, wantErr := ref.Push(sym)
		_, _, gotErr := got.Push(sym)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && !errors.Is(gotErr, detector.ErrNotTrained)) {
			t.Fatalf("err %v, reference %v", gotErr, wantErr)
		}
	}
}

// TestPushObservedUnwraps checks the fast path survives the Observed
// instrumentation wrapper (captured through Unwrap at construction).
func TestPushObservedUnwraps(t *testing.T) {
	train := refStream(3, 2000, 8)
	st, err := stide.New(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Train(train); err != nil {
		t.Fatal(err)
	}
	wrapped := detector.Observed(st, obs.New())
	s, err := NewScorer(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if s.fast == nil {
		t.Fatalf("Observed wrapper hid the streaming fast path")
	}
	test := refStream(9, 500, 8)
	got, err := s.PushAll(test)
	if err != nil {
		t.Fatal(err)
	}
	want, err := st.Score(test)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d responses, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("response %d: %v, batch %v", i, got[i], want[i])
		}
	}
}

// TestPushSteadyStateAllocs is the regression guard for the streaming hot
// path: once the window is full, a push allocates nothing — instrumented
// or not.
func TestPushSteadyStateAllocs(t *testing.T) {
	train := refStream(3, 3000, 8)
	for name, det := range refDetectors(t, train) {
		s, err := NewScorer(det)
		if err != nil {
			t.Fatal(err)
		}
		s.Instrument(obs.New())
		warm := refStream(5, 64, 8)
		if _, err := s.PushAll(warm); err != nil {
			t.Fatal(err)
		}
		sym := alphabet.Symbol(1)
		allocs := testing.AllocsPerRun(200, func() {
			if _, _, err := s.Push(sym); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: steady-state push allocated %.2f times, want 0", name, allocs)
		}
	}
}

// TestScorerRecent covers the preallocated response ring: fill, wrap,
// order, reset.
func TestScorerRecent(t *testing.T) {
	train := refStream(3, 2000, 8)
	st, err := stide.New(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Train(train); err != nil {
		t.Fatal(err)
	}
	s, err := NewScorer(st)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Recent(nil); len(got) != 0 {
		t.Fatalf("fresh scorer Recent returned %d responses", len(got))
	}
	test := refStream(5, 300, 9)
	want, err := s.PushAll(test)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Recent(nil)
	if len(got) != responseRingLen {
		t.Fatalf("Recent returned %d responses, want %d", len(got), responseRingLen)
	}
	tail := want[len(want)-responseRingLen:]
	for i := range got {
		if got[i] != tail[i] {
			t.Fatalf("Recent[%d] = %v, want %v", i, got[i], tail[i])
		}
	}
	s.Reset()
	if got := s.Recent(nil); len(got) != 0 {
		t.Fatalf("Recent after Reset returned %d responses", len(got))
	}
}
