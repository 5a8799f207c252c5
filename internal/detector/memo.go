package detector

import "runtime"

// Capacity of the per-call window memo behind ScoreWindows. The table holds
// at most memoEntries windows at a load factor of one half, and the arena
// holds their key bytes: 16 per entry covers every extent of the paper's
// grid (DW up to 15, plus the predicted element). A paper-scale test
// stream has a few hundred distinct windows, far below either limit.
const (
	memoBits    = 12
	memoSlots   = 1 << memoBits
	memoEntries = memoSlots / 2
	memoArena   = memoEntries * 16
)

// memoBase is the rolling hash's multiplier and memoMix spreads the hash's
// low-order structure into the high bits that index the table. Both are
// odd 64-bit constants; the memo is exact whatever the hash quality.
const (
	memoBase = 0x100000001b3
	memoMix  = 0x9e3779b97f4a7c15
)

type memoSlot struct {
	tag uint32 // low mixed-hash bits with the low bit set; 0 marks an empty slot
	off uint32 // offset of the window's bytes in the arena
	r   float64
}

// windowMemo is an open-addressed exact memo from window bytes to the
// kernel's response. All windows of one call share one length, so a slot
// stores only the arena offset of its key. Inserts stop when either the
// entry limit or the arena is reached; nothing is ever evicted.
type windowMemo struct {
	slots [memoSlots]memoSlot
	used  [memoEntries]uint16 // occupied slot indices, so clearing is O(entries)
	n     int
	arena []byte
}

// memoFree holds cleared memos for reuse, one per processor. Unlike a
// sync.Pool it survives garbage collection, so a steady stream of Score
// calls never reallocates a table and Score's allocation count stays
// exactly two; calls beyond GOMAXPROCS in flight allocate a memo and drop
// it afterwards.
var memoFree = make(chan *windowMemo, runtime.GOMAXPROCS(0))

func getMemo() *windowMemo {
	select {
	case m := <-memoFree:
		return m
	default:
		return &windowMemo{arena: make([]byte, 0, memoArena)}
	}
}

// putMemo clears m and returns it to the free list, so no response
// outlives the call (and the model) that computed it.
func putMemo(m *windowMemo) {
	for _, i := range m.used[:m.n] {
		m.slots[i] = memoSlot{}
	}
	m.n = 0
	m.arena = m.arena[:0]
	select {
	case memoFree <- m:
	default:
	}
}

// score returns ws's response to w, whose rolling hash is h, from the memo
// when w was scored earlier in the call.
func (m *windowMemo) score(ws WindowByteScorer, w []byte, h uint64) (float64, error) {
	h *= memoMix
	tag := uint32(h) | 1
	i := int(h >> (64 - memoBits))
	for ; m.slots[i].tag != 0; i = (i + 1) & (memoSlots - 1) {
		s := &m.slots[i]
		if s.tag == tag && string(m.arena[s.off:int(s.off)+len(w)]) == string(w) {
			return s.r, nil
		}
	}
	r, err := ws.ScoreWindowBytes(w)
	if err == nil && m.n < memoEntries && len(m.arena)+len(w) <= cap(m.arena) {
		m.slots[i] = memoSlot{tag: tag, off: uint32(len(m.arena)), r: r}
		m.arena = append(m.arena, w...)
		m.used[m.n] = uint16(i)
		m.n++
	}
	return r, err
}
