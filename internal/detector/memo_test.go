package detector

import (
	"errors"
	"math"
	"testing"

	"adiv/internal/alphabet"
	"adiv/internal/rng"
	"adiv/internal/seq"
)

// countingScorer is a window kernel whose response is a salted hash of the
// window's bytes, counting its calls.
type countingScorer struct {
	extent int
	salt   uint64
	calls  int
	fail   bool
}

func (c *countingScorer) ScoreWindowBytes(w []byte) (float64, error) {
	c.calls++
	if c.fail {
		return 0, errors.New("kernel failure")
	}
	if len(w) != c.extent {
		return 0, errors.New("wrong window length")
	}
	h := c.salt
	for _, b := range w {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	return float64(h>>11) / (1 << 53), nil
}

func randomStream(seed uint64, n, k int) seq.Stream {
	src := rng.New(seed)
	s := make(seq.Stream, n)
	for i := range s {
		s[i] = alphabet.Symbol(src.Intn(k))
	}
	return s
}

// direct scores every window with the kernel, no memo.
func direct(t *testing.T, ws WindowByteScorer, extent int, test seq.Stream) []float64 {
	t.Helper()
	b := test.Bytes()
	out := make([]float64, seq.NumWindows(len(test), extent))
	for i := range out {
		r, err := ws.ScoreWindowBytes(b[i : i+extent])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	return out
}

func distinctWindows(test seq.Stream, extent int) int {
	seen := make(map[string]bool)
	b := test.Bytes()
	for i := 0; i+extent <= len(b); i++ {
		seen[string(b[i:i+extent])] = true
	}
	return len(seen)
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

// TestScoreWindowsScoresEachDistinctWindowOnce: below the memo's capacity
// the kernel runs once per distinct window, and every response equals the
// kernel's own.
func TestScoreWindowsScoresEachDistinctWindowOnce(t *testing.T) {
	for _, extent := range []int{1, 2, 5, 16, 40} {
		test := randomStream(uint64(extent), 5000, 3)
		ws := &countingScorer{extent: extent, salt: 1}
		got, err := ScoreWindows(ws, true, extent, test)
		if err != nil {
			t.Fatal(err)
		}
		if want := distinctWindows(test, extent); extent <= 16 && ws.calls != want {
			t.Errorf("extent %d: %d kernel calls, want one per distinct window (%d)", extent, ws.calls, want)
		}
		sameBits(t, "memoized", got, direct(t, &countingScorer{extent: extent, salt: 1}, extent, test))
	}
}

// TestScoreWindowsFullMemoFallsThrough drives more distinct windows than
// the memo holds: the overflow is scored by the kernel on every
// occurrence, the responses stay exact, and the memo stops at capacity.
func TestScoreWindowsFullMemoFallsThrough(t *testing.T) {
	const extent = 12
	test := randomStream(7, 3*memoEntries, 16)
	test = append(test, test...) // every window recurs
	if d := distinctWindows(test, extent); d <= memoEntries {
		t.Fatalf("stream has %d distinct windows, want more than %d", d, memoEntries)
	}
	ws := &countingScorer{extent: extent, salt: 2}
	got, err := ScoreWindows(ws, true, extent, test)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "overflowing memo", got, direct(t, &countingScorer{extent: extent, salt: 2}, extent, test))
	n := seq.NumWindows(len(test), extent)
	if ws.calls <= n/2 || ws.calls >= n {
		t.Errorf("%d kernel calls over %d windows: want the memo to absorb some repeats but not all", ws.calls, n)
	}
}

// TestScoreWindowsArenaLimit: windows longer than 16 bytes fill the key
// arena before the slot limit; the memo must stop inserting there and stay
// exact.
func TestScoreWindowsArenaLimit(t *testing.T) {
	const extent = 64
	test := randomStream(9, memoArena/extent*3, 4)
	test = append(test, test...)
	ws := &countingScorer{extent: extent, salt: 3}
	got, err := ScoreWindows(ws, true, extent, test)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "arena-limited memo", got, direct(t, &countingScorer{extent: extent, salt: 3}, extent, test))
}

// TestScoreWindowsPooledMemoCleared: a memo goes back to the pool empty,
// so a second model of the same extent never sees the first one's
// responses.
func TestScoreWindowsPooledMemoCleared(t *testing.T) {
	const extent = 6
	a := randomStream(11, 4000, 4)
	b := append(append(seq.Stream{}, a[2000:]...), randomStream(12, 2000, 4)...)
	if _, err := ScoreWindows(&countingScorer{extent: extent, salt: 4}, true, extent, a); err != nil {
		t.Fatal(err)
	}
	got, err := ScoreWindows(&countingScorer{extent: extent, salt: 5}, true, extent, b)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "second model", got, direct(t, &countingScorer{extent: extent, salt: 5}, extent, b))

	m := getMemo()
	defer putMemo(m)
	if m.n != 0 || len(m.arena) != 0 {
		t.Fatalf("pooled memo holds %d entries, %d arena bytes", m.n, len(m.arena))
	}
	for i, s := range m.slots {
		if s != (memoSlot{}) {
			t.Fatalf("pooled memo slot %d not cleared: %+v", i, s)
		}
	}
}

// TestScoreWindowsErrors: CheckScorable's order (untrained before too
// short) holds, and a kernel error aborts the call.
func TestScoreWindowsErrors(t *testing.T) {
	ws := &countingScorer{extent: 4}
	if _, err := ScoreWindows(ws, false, 4, seq.Stream{1, 2}); !errors.Is(err, ErrNotTrained) {
		t.Errorf("untrained short stream: %v, want ErrNotTrained", err)
	}
	if _, err := ScoreWindows(ws, true, 4, seq.Stream{1, 2}); !errors.Is(err, ErrStreamTooShort) {
		t.Errorf("trained short stream: %v, want ErrStreamTooShort", err)
	}
	if ws.calls != 0 {
		t.Errorf("precondition failures called the kernel %d times", ws.calls)
	}
	if out, err := ScoreWindows(&countingScorer{extent: 4, fail: true}, true, 4, seq.Stream{1, 2, 3, 4, 5}); err == nil {
		t.Errorf("kernel failure: got %v, want an error", out)
	}
}
