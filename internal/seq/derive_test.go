package seq_test

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"adiv/internal/alphabet"
	"adiv/internal/gen"
	"adiv/internal/obs"
	"adiv/internal/seq"
)

// maxDeriveWidth is the widest database the evaluation grid asks for:
// detector window 15 plus the predictors' next element.
const maxDeriveWidth = 16

// sameDB fails unless got equals want key for key: same width, Total,
// Distinct, and count for every key.
func sameDB(tb testing.TB, label string, got, want *seq.DB) {
	tb.Helper()
	if got.Width() != want.Width() || got.Total() != want.Total() || got.Distinct() != want.Distinct() {
		tb.Fatalf("%s: width/total/distinct %d/%d/%d, seq.Build %d/%d/%d", label,
			got.Width(), got.Total(), got.Distinct(), want.Width(), want.Total(), want.Distinct())
	}
	want.EachKey(func(key string, count int) {
		if c := got.CountBytes([]byte(key)); c != count {
			tb.Fatalf("%s: key %v counted %d, seq.Build %d", label, []byte(key), c, count)
		}
	})
}

func randomStream(seed uint64, n, k int) seq.Stream {
	r := rand.New(rand.NewPCG(seed, 0))
	s := make(seq.Stream, n)
	for i := range s {
		s[i] = alphabet.Symbol(r.IntN(k))
	}
	return s
}

// deriveStreams are the streams every derivation test covers: the paper's
// 1M-symbol training stream, a random stream whose windows are mostly
// distinct, and streams shorter than, as long as, and one longer than the
// widest width.
func deriveStreams(tb testing.TB) map[string]seq.Stream {
	tb.Helper()
	g, err := gen.New(gen.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]seq.Stream{
		"paper":    g.Training(),
		"random":   randomStream(1, 20_000, 8),
		"len<W":    randomStream(2, maxDeriveWidth-5, 3),
		"len=W":    randomStream(3, maxDeriveWidth, 3),
		"len=W+1":  randomStream(4, maxDeriveWidth+1, 3),
		"constant": make(seq.Stream, 100),
	}
}

// TestDerivedDBMatchesBuild asks for the widest width first, so every
// narrower width is derived, then checks each against seq.Build. Asking
// the rest widest-first derives each from the next wider width; asking
// them narrowest-first derives each straight from the widest.
func TestDerivedDBMatchesBuild(t *testing.T) {
	for name, stream := range deriveStreams(t) {
		want := make([]*seq.DB, maxDeriveWidth+1)
		for w := 1; w <= maxDeriveWidth; w++ {
			db, err := seq.Build(stream, w)
			if err != nil {
				t.Fatal(err)
			}
			want[w] = db
		}
		for _, order := range []string{"widest-first", "narrowest-first"} {
			reg := obs.New()
			c := seq.NewCorpus(stream)
			c.Instrument(reg)
			widths := []int{maxDeriveWidth}
			for w := 1; w < maxDeriveWidth; w++ {
				if order == "widest-first" {
					widths = append(widths, maxDeriveWidth-w)
				} else {
					widths = append(widths, w)
				}
			}
			for _, w := range widths {
				got, err := c.DB(w)
				if err != nil {
					t.Fatal(err)
				}
				sameDB(t, fmt.Sprintf("%s %s width %d", name, order, w), got, want[w])
			}
			if got := reg.Counter("seq/corpus/derived").Value(); got != maxDeriveWidth-1 {
				t.Errorf("%s %s: %d widths derived, want %d", name, order, got, maxDeriveWidth-1)
			}
			if passes, _, _, _ := reg.Timing("seq/corpus/build").Stats(); passes != 1 {
				t.Errorf("%s %s: %d stream passes, want 1", name, order, passes)
			}
		}
	}
}

// TestConcurrentDerivationMatchesSerial races every width's first request
// across goroutines (run it under -race): whichever fills land first, and
// whatever each is derived from, every caller must get the one cached DB
// per width, equal to seq.Build.
func TestConcurrentDerivationMatchesSerial(t *testing.T) {
	stream := randomStream(5, 20_000, 6)
	want := make([]*seq.DB, maxDeriveWidth+1)
	for w := 1; w <= maxDeriveWidth; w++ {
		db, err := seq.Build(stream, w)
		if err != nil {
			t.Fatal(err)
		}
		want[w] = db
	}
	for round := uint64(0); round < 4; round++ {
		c := seq.NewCorpus(stream)
		const goroutines = 8
		got := make([][]*seq.DB, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = make([]*seq.DB, maxDeriveWidth+1)
				r := rand.New(rand.NewPCG(round, uint64(g)))
				for _, i := range r.Perm(maxDeriveWidth) {
					db, err := c.DB(i + 1)
					if err != nil {
						t.Error(err)
						return
					}
					got[g][i+1] = db
				}
			}()
		}
		wg.Wait()
		for w := 1; w <= maxDeriveWidth; w++ {
			sameDB(t, fmt.Sprintf("round %d width %d", round, w), got[0][w], want[w])
			for g := 1; g < goroutines; g++ {
				if got[g][w] != got[0][w] {
					t.Fatalf("round %d width %d: goroutines got different *DBs", round, w)
				}
			}
		}
		if _, misses := c.Stats(); misses != maxDeriveWidth {
			t.Errorf("round %d: %d misses, want %d", round, misses, maxDeriveWidth)
		}
	}
}

// TestInFlightFillNeverDerivedFrom holds a wider fill open, its entry
// carrying a wrong database, and checks that a narrower request neither
// waits on it nor reads it.
func TestInFlightFillNeverDerivedFrom(t *testing.T) {
	stream := randomStream(6, 5_000, 4)
	bogus, err := seq.Build(randomStream(7, 5_000, 4), 8)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	c := seq.NewCorpus(stream)
	c.Instrument(reg)
	finish := c.StartFill(8, bogus)
	defer finish()

	done := make(chan *seq.DB, 1)
	go func() {
		db, err := c.DB(4)
		if err != nil {
			t.Error(err)
		}
		done <- db
	}()
	var got *seq.DB
	select {
	case got = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("DB(4) is waiting on the in-flight width-8 fill")
	}
	want, err := seq.Build(stream, 4)
	if err != nil {
		t.Fatal(err)
	}
	sameDB(t, "width 4 beside an in-flight width 8", got, want)
	if n := reg.Counter("seq/corpus/derived").Value(); n != 0 {
		t.Errorf("%d fills derived, want 0: the only wider fill is in flight", n)
	}
}
