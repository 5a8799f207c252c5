// Package inject implements the paper's anomaly-injection procedure and the
// incident span (Section 5.4.2, Figure 2).
//
// Randomly dropping an anomaly into background data is undesirable: the
// sliding detector window composes "boundary sequences" from trailing
// background elements and leading anomaly elements (and vice versa), and an
// unlucky position turns those boundary sequences into unintended foreign or
// rare sequences that confound the results. A valid injection point is one
// at which every window that mixes anomaly and background elements — for
// every detector-window width under evaluation — already exists in the
// training data. Windows containing the entire anomaly are necessarily
// foreign (a superstring of a foreign sequence is foreign) and are exactly
// the signal the detectors are meant to see.
package inject

import (
	"errors"
	"fmt"

	"adiv/internal/seq"
)

// ErrNoValidPosition reports that no injection point in the background
// satisfies the boundary-sequence constraint; per the paper, "a new anomaly
// must be produced as a replacement, and the process repeated".
var ErrNoValidPosition = errors.New("inject: no position satisfies the boundary-sequence constraint")

// Placement is an anomaly injected into background data: the final test
// stream plus the location of the anomalous event within it.
type Placement struct {
	// Stream is the test stream: background with the anomaly inserted.
	Stream seq.Stream
	// Start is the index in Stream of the first anomaly element.
	Start int
	// AnomalyLen is the length of the injected anomaly.
	AnomalyLen int
}

// Anomaly returns the injected anomalous subsequence (a view into Stream).
func (p Placement) Anomaly() seq.Stream {
	return p.Stream[p.Start : p.Start+p.AnomalyLen]
}

// IncidentSpan returns the inclusive range [lo, hi] of window start indices
// such that the width-sized window starting there contains at least one
// element of the injected anomaly — the incident span of Figure 2. The
// range is clipped to valid window starts; ok is false when the width is
// non-positive or exceeds the stream length.
func (p Placement) IncidentSpan(width int) (lo, hi int, ok bool) {
	if width <= 0 || width > len(p.Stream) {
		return 0, 0, false
	}
	lo = p.Start - width + 1
	if lo < 0 {
		lo = 0
	}
	hi = p.Start + p.AnomalyLen - 1
	if last := len(p.Stream) - width; hi > last {
		hi = last
	}
	if hi < lo {
		return 0, 0, false
	}
	return lo, hi, true
}

// ContainsWholeAnomaly reports whether the width-sized window starting at
// start covers every element of the injected anomaly.
func (p Placement) ContainsWholeAnomaly(start, width int) bool {
	return start <= p.Start && start+width >= p.Start+p.AnomalyLen
}

// Options configures the injection search.
type Options struct {
	// MinWidth and MaxWidth are the detector-window widths the placement
	// must be valid for. The paper evaluates widths 2 through 15 on a single
	// injected stream per anomaly size.
	MinWidth, MaxWidth int
	// ContextWidths additionally validates mixed windows one element wider
	// than MaxWidth when true. The Markov and neural-network detectors
	// examine (width+1)-grams (context plus predicted element); validating
	// those grams keeps their boundary behaviour equally confound-free.
	ContextWidths bool
}

// Validate reports option errors.
func (o Options) Validate() error {
	if o.MinWidth < 1 || o.MaxWidth < o.MinWidth {
		return fmt.Errorf("inject: invalid width range [%d,%d]", o.MinWidth, o.MaxWidth)
	}
	return nil
}

// At builds the test stream with anomaly inserted into background before
// index pos (0 <= pos <= len(background)) without validating the boundary
// constraint. Most callers want Inject instead.
func At(background, anomaly seq.Stream, pos int) (Placement, error) {
	if pos < 0 || pos > len(background) {
		return Placement{}, fmt.Errorf("inject: position %d outside background of length %d", pos, len(background))
	}
	if len(anomaly) == 0 {
		return Placement{}, errors.New("inject: empty anomaly")
	}
	stream := make(seq.Stream, 0, len(background)+len(anomaly))
	stream = append(stream, background[:pos]...)
	stream = append(stream, anomaly...)
	stream = append(stream, background[pos:]...)
	return Placement{Stream: stream, Start: pos, AnomalyLen: len(anomaly)}, nil
}

// Valid reports whether the placement satisfies the boundary-sequence
// constraint against the training index: every window of every width in
// [opts.MinWidth, opts.MaxWidth] (plus one, with opts.ContextWidths) that
// contains at least one anomaly element but not the whole anomaly occurs in
// the training data.
//
// Widths are visited widest first. Validity is a conjunction over widths,
// so the order never changes the verdict, but it does decide which
// training database is asked for first: once the widest is cached, the
// index derives every narrower one from it instead of passing over the
// training stream again (see seq.Corpus.DB).
func Valid(trainIx *seq.Index, p Placement, opts Options) (bool, error) {
	if err := opts.Validate(); err != nil {
		return false, err
	}
	maxW := opts.MaxWidth
	if opts.ContextWidths {
		maxW++
	}
	for width := maxW; width >= opts.MinWidth; width-- {
		lo, hi, ok := p.IncidentSpan(width)
		if !ok {
			continue
		}
		for start := lo; start <= hi; start++ {
			if p.ContainsWholeAnomaly(start, width) {
				continue
			}
			occurs, err := trainIx.Contains(p.Stream[start : start+width])
			if err != nil {
				return false, err
			}
			if !occurs {
				return false, nil
			}
		}
	}
	return true, nil
}

// Inject searches the background, from the middle outward, for an insertion
// point satisfying the boundary-sequence constraint and returns the first
// valid placement. Searching from the middle keeps the anomaly away from
// stream edges, so every width's incident span is fully populated on both
// sides.
func Inject(trainIx *seq.Index, background, anomaly seq.Stream, opts Options) (Placement, error) {
	if err := opts.Validate(); err != nil {
		return Placement{}, err
	}
	if len(background) < 2*(opts.MaxWidth+1) {
		return Placement{}, fmt.Errorf("inject: background of length %d too short for max width %d", len(background), opts.MaxWidth)
	}
	mid := len(background) / 2
	margin := opts.MaxWidth + 1
	for offset := 0; ; offset++ {
		candidates := []int{mid + offset}
		if offset > 0 {
			candidates = append(candidates, mid-offset)
		}
		tried := false
		for _, pos := range candidates {
			if pos < margin || pos > len(background)-margin {
				continue
			}
			tried = true
			p, err := At(background, anomaly, pos)
			if err != nil {
				return Placement{}, err
			}
			ok, err := Valid(trainIx, p, opts)
			if err != nil {
				return Placement{}, err
			}
			if ok {
				return p, nil
			}
		}
		if !tried && offset > 0 {
			return Placement{}, ErrNoValidPosition
		}
	}
}
