package seq

import (
	"runtime"
	"testing"
	"testing/quick"

	"adiv/internal/alphabet"
)

// mk builds a stream from ints for test readability.
func mk(vals ...int) Stream {
	s := make(Stream, len(vals))
	for i, v := range vals {
		s[i] = alphabet.Symbol(v)
	}
	return s
}

func TestNumWindows(t *testing.T) {
	tests := []struct {
		n, width, want int
	}{
		{0, 1, 0},
		{5, 0, 0},
		{5, -1, 0},
		{5, 6, 0},
		{5, 5, 1},
		{5, 1, 5},
		{10, 3, 8},
	}
	for _, tt := range tests {
		if got := NumWindows(tt.n, tt.width); got != tt.want {
			t.Errorf("NumWindows(%d, %d) = %d, want %d", tt.n, tt.width, got, tt.want)
		}
	}
}

func TestBuildRejectsBadWidth(t *testing.T) {
	for _, w := range []int{0, -3} {
		if _, err := Build(mk(1, 2, 3), w); err == nil {
			t.Errorf("Build with width %d succeeded", w)
		}
	}
}

func TestBuildCounts(t *testing.T) {
	// Stream: a b a b a — windows of width 2: ab ba ab ba.
	db, err := Build(mk(0, 1, 0, 1, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	if db.Width() != 2 {
		t.Errorf("Width() = %d", db.Width())
	}
	if db.Total() != 4 {
		t.Errorf("Total() = %d, want 4", db.Total())
	}
	if db.Distinct() != 2 {
		t.Errorf("Distinct() = %d, want 2", db.Distinct())
	}
	if got := db.Count(mk(0, 1)); got != 2 {
		t.Errorf("Count(ab) = %d, want 2", got)
	}
	if got := db.Count(mk(1, 0)); got != 2 {
		t.Errorf("Count(ba) = %d, want 2", got)
	}
	if got := db.Count(mk(1, 1)); got != 0 {
		t.Errorf("Count(bb) = %d, want 0", got)
	}
	if got := db.Count(mk(0, 1, 0)); got != 0 {
		t.Errorf("Count of wrong-length sequence = %d, want 0", got)
	}
}

func TestBuildShortStream(t *testing.T) {
	db, err := Build(mk(1, 2), 5)
	if err != nil {
		t.Fatal(err)
	}
	if db.Total() != 0 || db.Distinct() != 0 {
		t.Errorf("short stream produced %d windows, %d distinct", db.Total(), db.Distinct())
	}
	if db.RelFreq(mk(1, 2, 3, 4, 5)) != 0 {
		t.Errorf("RelFreq on empty DB should be 0")
	}
}

// TestBuildRetainsPerDistinct pins a DB's retained heap to its distinct
// windows, not its stream length: a 200k-window periodic stream has 8
// distinct windows, and its DB must stay far below the megabytes a map
// sized for every window would hold for the corpus's lifetime.
func TestBuildRetainsPerDistinct(t *testing.T) {
	stream := make(Stream, 200_000)
	for i := range stream {
		stream[i] = alphabet.Symbol(i % 8)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db, err := Build(stream, 6)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(db)
	if db.Distinct() != 8 {
		t.Fatalf("%d distinct windows, want 8", db.Distinct())
	}
	if retained > 64<<10 {
		t.Errorf("DB of 8 distinct windows retains %d bytes, want under 64 KiB", retained)
	}
}

func TestForeignRareCommon(t *testing.T) {
	// 96 copies of "0 1" then 4 copies of "2 3": pairs (1,0),(0,1) are
	// common; (1,2),(2,3),(3,2) occur; (3,0) etc.
	var s Stream
	for i := 0; i < 96; i++ {
		s = append(s, 0, 1)
	}
	for i := 0; i < 4; i++ {
		s = append(s, 2, 3)
	}
	db, err := Build(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if db.IsForeign(mk(0, 1)) {
		t.Errorf("(0,1) classified foreign")
	}
	if !db.IsForeign(mk(0, 3)) {
		t.Errorf("(0,3) not classified foreign")
	}
	if db.IsForeign(mk(0, 1, 2)) {
		t.Errorf("wrong-length sequence classified foreign at width 2")
	}
	// (2,3) occurs 4 times of 199 windows ≈ 2%: rare at 5%, not at 1%.
	if !db.IsRare(mk(2, 3), 0.05) {
		t.Errorf("(2,3) not rare at cutoff 5%%")
	}
	if db.IsRare(mk(2, 3), 0.01) {
		t.Errorf("(2,3) rare at cutoff 1%%")
	}
	if db.IsRare(mk(0, 3), 0.05) {
		t.Errorf("foreign sequence classified rare")
	}

	rare := db.Rare(0.05)
	common := db.Common(0.05)
	if len(rare)+len(common) != db.Distinct() {
		t.Errorf("Rare+Common = %d+%d, want %d distinct", len(rare), len(common), db.Distinct())
	}
	for _, r := range rare {
		if !db.IsRare(r, 0.05) {
			t.Errorf("Rare() returned non-rare %v", r)
		}
	}
	for _, c := range common {
		if db.IsRare(c, 0.05) {
			t.Errorf("Common() returned rare %v", c)
		}
	}
}

func TestEachVisitsAll(t *testing.T) {
	db, err := Build(mk(0, 1, 2, 0, 1, 2), 3)
	if err != nil {
		t.Fatal(err)
	}
	total, distinct := 0, 0
	db.Each(func(w Stream, count int) {
		distinct++
		total += count
		if len(w) != 3 {
			t.Errorf("Each yielded sequence of length %d", len(w))
		}
	})
	if total != db.Total() || distinct != db.Distinct() {
		t.Errorf("Each visited %d/%d, want %d/%d", distinct, total, db.Distinct(), db.Total())
	}
}

func TestBytesRoundTrip(t *testing.T) {
	check := func(raw []byte) bool {
		s := FromBytes(raw)
		b := s.Bytes()
		if len(b) != len(raw) {
			return false
		}
		for i := range b {
			if b[i] != raw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	s := mk(1, 2, 3)
	c := s.Clone()
	c[0] = 9
	if s[0] != 1 {
		t.Errorf("Clone aliases the original")
	}
}

// TestCountsSumToTotal is the fundamental multiset invariant, checked over
// random streams.
func TestCountsSumToTotal(t *testing.T) {
	check := func(raw []byte, w uint8) bool {
		width := int(w%6) + 1
		s := FromBytes(raw)
		db, err := Build(s, width)
		if err != nil {
			return false
		}
		sum := 0
		db.Each(func(_ Stream, count int) { sum += count })
		return sum == db.Total() && db.Total() == NumWindows(len(s), width)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// TestEveryWindowContained: every window of the source stream must be
// contained in its own database with count >= 1.
func TestEveryWindowContained(t *testing.T) {
	check := func(raw []byte, w uint8) bool {
		width := int(w%5) + 1
		s := FromBytes(raw)
		db, err := Build(s, width)
		if err != nil {
			return false
		}
		for i := 0; i+width <= len(s); i++ {
			if !db.Contains(s[i : i+width]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}
