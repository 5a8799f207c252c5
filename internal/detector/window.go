package detector

import "adiv/internal/seq"

// WindowByteScorer is the single-window scoring kernel of a detector:
// score exactly one extent-length window, presented as its byte encoding
// (seq.Stream.AppendBytes layout), without a response slice or stream
// re-encoding.
//
// For window-local families — those whose response at a position depends
// only on the extent-length window there (stide, t-stide, Markov, L&B,
// neural network) — the kernel is the whole scorer: their batch Score is
// ScoreWindows over it, so batch and streaming share one code path. The
// HMM also offers the kernel for streaming, but its batch Score carries
// belief across windows and is not derived from it.
//
// Contract: for a trained detector whose batch Score of an extent-length
// stream w yields the single response r, ScoreWindowBytes of w's byte
// encoding must return exactly r — bit for bit — or the corresponding
// error (ErrNotTrained before training). Implementations must not retain w
// and must not allocate in the success path; the online scorer's
// steady-state zero-allocation guarantee is built on both properties.
type WindowByteScorer interface {
	ScoreWindowBytes(w []byte) (float64, error)
}

// ScoreWindows is the batch Score of a window-local detector, derived from
// its kernel: after the CheckScorable precondition it byte-encodes test
// once and answers each extent-length window from a per-call exact memo,
// calling ws only for windows not seen earlier in the stream. A memo hit
// returns the response the kernel computed for the same bytes, so the
// output is bit-identical to calling ws on every window. The memo is a
// fixed-size table reused across calls; once full, further misses go
// straight to ws.
// The call makes two allocations, the encoding and the response slice.
func ScoreWindows(ws WindowByteScorer, trained bool, extent int, test seq.Stream) ([]float64, error) {
	if err := CheckScorable(trained, extent, test); err != nil {
		return nil, err
	}
	b := test.Bytes()
	out := make([]float64, seq.NumWindows(len(test), extent))
	m := getMemo()
	defer putMemo(m)
	// h is a polynomial rolling hash of the current window: each step
	// shifts in the window's last byte and, after scoring, drops its first.
	top := uint64(1) // memoBase^(extent-1), the first byte's weight
	h := uint64(0)
	for _, c := range b[:extent-1] {
		top *= memoBase
		h = h*memoBase + uint64(c)
	}
	for i := range out {
		h = h*memoBase + uint64(b[i+extent-1])
		r, err := m.score(ws, b[i:i+extent], h)
		if err != nil {
			return nil, err
		}
		out[i] = r
		h -= uint64(b[i]) * top
	}
	return out, nil
}

// AsWindowByteScorer returns d's streaming fast path if it offers one,
// unwrapping instrumentation layers (anything exposing Unwrap() Detector)
// until a scorer or a bare detector is reached. Callers that unwrap this
// way bypass the wrapper's per-Score telemetry by design — the streaming
// adapter records its own online/* metrics instead, keeping spans and
// histograms off the per-symbol hot path.
func AsWindowByteScorer(d Detector) (WindowByteScorer, bool) {
	for d != nil {
		if ws, ok := d.(WindowByteScorer); ok {
			return ws, true
		}
		u, ok := d.(interface{ Unwrap() Detector })
		if !ok {
			return nil, false
		}
		d = u.Unwrap()
	}
	return nil, false
}
