// Package seq provides the fixed-length-sequence machinery that the entire
// evaluation rests on: sliding windows over symbol streams, per-width
// sequence databases with occurrence counts, and the foreignness, rarity and
// minimality predicates of Tan & Maxion's methodology.
//
// Terminology (paper, Section 5.1):
//
//   - A sequence of length N is "foreign" with respect to a training stream
//     if every symbol is in the training alphabet but the length-N sequence
//     itself never occurs in the training stream.
//   - A sequence is "rare" if its relative frequency among same-length
//     windows of the training stream is below a cutoff (0.5% in the paper).
//   - A "minimal foreign sequence" (MFS) is a foreign sequence all of whose
//     proper contiguous subsequences occur in the training stream: a foreign
//     sequence containing no smaller foreign sequence.
package seq

import (
	"fmt"
	"sort"

	"adiv/internal/alphabet"
)

// Stream is a stream of categorical symbols, the unit of data every detector
// trains on and scores.
type Stream []alphabet.Symbol

// Clone returns an independent copy of the stream.
func (s Stream) Clone() Stream {
	out := make(Stream, len(s))
	copy(out, s)
	return out
}

// Bytes returns the stream as a byte slice usable for map keying. The result
// aliases freshly allocated memory, never the stream itself.
func (s Stream) Bytes() []byte {
	b := make([]byte, len(s))
	for i, sym := range s {
		b[i] = byte(sym)
	}
	return b
}

// AppendBytes appends the stream's byte encoding to dst and returns the
// extended slice — the allocation-free counterpart of Bytes for callers that
// own a scratch buffer (score loops, window cursors) and re-encode many
// streams without garbage.
func (s Stream) AppendBytes(dst []byte) []byte {
	for _, sym := range s {
		dst = append(dst, byte(sym))
	}
	return dst
}

// FromBytes converts a byte-encoded window back to a Stream.
func FromBytes(b []byte) Stream {
	s := make(Stream, len(b))
	for i, c := range b {
		s[i] = alphabet.Symbol(c)
	}
	return s
}

// NumWindows returns the number of width-sized windows in a stream of length
// n: max(0, n-width+1).
func NumWindows(n, width int) int {
	if width <= 0 || n < width {
		return 0
	}
	return n - width + 1
}

// DB is a sequence database for one fixed window width: the multiset of all
// width-length windows of a stream, with occurrence counts. It answers the
// membership and frequency queries behind every detector and every
// data-synthesis verification step.
//
// A DB is immutable after Build and safe for concurrent readers.
type DB struct {
	width int
	total int
	// counts stores an out-of-line counter per distinct window. The
	// indirection is what makes Build allocate per *distinct* sequence
	// rather than per window: incrementing through the pointer needs only
	// an allocation-free map read (`m[string(b)]` compiles to a no-copy
	// lookup), where a map[string]int would re-materialize the key string
	// on every `m[string(b)]++`.
	counts map[string]*int
}

// Build slides a window of the given width across the stream and records
// every window with its occurrence count. It returns an error for a
// non-positive width; a stream shorter than the width yields an empty DB.
func Build(stream Stream, width int) (*DB, error) {
	if width <= 0 {
		return nil, fmt.Errorf("seq: non-positive window width %d", width)
	}
	n := NumWindows(len(stream), width)
	// The map grows from empty: the distinct count is unknown and usually
	// tiny next to n (at most 690 distinct windows per width over the
	// paper's 1M-symbol training stream), and a cached DB lives as long as
	// its corpus, so a size hint near n would hold megabytes of empty
	// slots per width.
	db := &DB{
		width:  width,
		total:  n,
		counts: make(map[string]*int),
	}
	b := stream.Bytes()
	for i := 0; i < n; i++ {
		if p := db.counts[string(b[i:i+width])]; p != nil {
			*p++
		} else {
			p = new(int)
			*p = 1
			db.counts[string(b[i:i+width])] = p
		}
	}
	return db, nil
}

// derive returns stream's database at width w < wide.Width(), computed from
// wide, the same stream's database at a larger width W, without rescanning
// the stream. Every w-window starting at i <= n-W is the w-prefix of the
// W-window starting at i, so summing wide's counts by key prefix counts
// all of them; the W-w windows at the stream's tail (fewer when the stream
// is shorter than W) start past the last W-window, so Build counts them
// over the tail alone. The result equals Build(stream, w) key for key —
// same Total, Distinct and every count — at O(distinct(wide) + W) cost
// instead of O(n). The prefix keys share wide's key memory, which is fine
// because a cached wide database lives as long as anything derived from
// it.
func derive(wide *DB, stream Stream, w int) *DB {
	db, _ := Build(stream[NumWindows(len(stream), wide.width):], w)
	db.total = NumWindows(len(stream), w)
	for k, c := range wide.counts {
		if p := db.counts[k[:w]]; p != nil {
			*p += *c
		} else {
			p = new(int)
			*p = *c
			db.counts[k[:w]] = p
		}
	}
	return db
}

// Width returns the window width the database was built for.
func (db *DB) Width() int { return db.width }

// Total returns the total number of windows recorded (with multiplicity).
func (db *DB) Total() int { return db.total }

// Distinct returns the number of distinct sequences in the database.
func (db *DB) Distinct() int { return len(db.counts) }

// Count returns the number of occurrences of w. Sequences of the wrong
// length never occur and count zero.
func (db *DB) Count(w Stream) int {
	if len(w) != db.width {
		return 0
	}
	// Encode into a stack buffer so the common widths (the evaluation grid
	// tops out at 16) query without allocating; CountBytes documents the
	// fully allocation-free path for callers that already hold bytes.
	var tmp [64]byte
	if db.width <= len(tmp) {
		for i, sym := range w {
			tmp[i] = byte(sym)
		}
		if p := db.counts[string(tmp[:db.width])]; p != nil {
			return *p
		}
		return 0
	}
	return db.CountBytes(w.Bytes())
}

// CountBytes returns the number of occurrences of the byte-encoded window b
// (as produced by Stream.Bytes, Stream.AppendBytes, or a Cursor). It never
// allocates: the hot score loops of the window detectors slice one encoded
// test stream and query every window through here. Sequences of the wrong
// length count zero.
func (db *DB) CountBytes(b []byte) int {
	if len(b) != db.width {
		return 0
	}
	if p := db.counts[string(b)]; p != nil {
		return *p
	}
	return 0
}

// Contains reports whether w occurs at least once.
func (db *DB) Contains(w Stream) bool { return db.Count(w) > 0 }

// ContainsBytes reports whether the byte-encoded window b occurs at least
// once, without allocating.
func (db *DB) ContainsBytes(b []byte) bool { return db.CountBytes(b) > 0 }

// RelFreq returns the relative frequency of w among all recorded windows,
// in [0,1]. An empty database yields 0.
func (db *DB) RelFreq(w Stream) float64 {
	if db.total == 0 {
		return 0
	}
	return float64(db.Count(w)) / float64(db.total)
}

// RelFreqBytes is RelFreq for a byte-encoded window, without allocating.
func (db *DB) RelFreqBytes(b []byte) float64 {
	if db.total == 0 {
		return 0
	}
	return float64(db.CountBytes(b)) / float64(db.total)
}

// IsForeign reports whether w (of the database's width) never occurs:
// the paper's definition of a foreign sequence at this width.
func (db *DB) IsForeign(w Stream) bool {
	return len(w) == db.width && !db.Contains(w)
}

// IsForeignBytes is IsForeign for a byte-encoded window, without
// allocating.
func (db *DB) IsForeignBytes(b []byte) bool {
	return len(b) == db.width && db.CountBytes(b) == 0
}

// IsRare reports whether w occurs with relative frequency in (0, cutoff).
// A foreign sequence is not rare: it does not occur at all.
func (db *DB) IsRare(w Stream, cutoff float64) bool {
	c := db.Count(w)
	return c > 0 && float64(c) < cutoff*float64(db.total)
}

// IsRareBytes is IsRare for a byte-encoded window, without allocating.
func (db *DB) IsRareBytes(b []byte, cutoff float64) bool {
	c := db.CountBytes(b)
	return c > 0 && float64(c) < cutoff*float64(db.total)
}

// Each calls fn for every distinct sequence with its count, in unspecified
// order. fn must not retain the Stream beyond the call.
func (db *DB) Each(fn func(w Stream, count int)) {
	for k, c := range db.counts {
		fn(FromBytes([]byte(k)), *c)
	}
}

// EachKey calls fn for every distinct sequence with its count, in
// unspecified order, passing the byte-encoded window as a string — the
// allocation-free counterpart of Each for callers (e.g. the neural-network
// trainer) that consume the encoded form directly.
func (db *DB) EachKey(fn func(key string, count int)) {
	for k, c := range db.counts {
		fn(k, *c)
	}
}

// Rare returns all distinct sequences whose relative frequency is below
// cutoff, sorted lexicographically for determinism.
func (db *DB) Rare(cutoff float64) []Stream {
	keys := make([]string, 0)
	limit := cutoff * float64(db.total)
	for k, c := range db.counts {
		if float64(*c) < limit {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]Stream, len(keys))
	for i, k := range keys {
		out[i] = FromBytes([]byte(k))
	}
	return out
}

// Common returns all distinct sequences whose relative frequency is at least
// cutoff, sorted lexicographically for determinism.
func (db *DB) Common(cutoff float64) []Stream {
	keys := make([]string, 0)
	limit := cutoff * float64(db.total)
	for k, c := range db.counts {
		if float64(*c) >= limit {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]Stream, len(keys))
	for i, k := range keys {
		out[i] = FromBytes([]byte(k))
	}
	return out
}
