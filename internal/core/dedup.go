package core

import "math/bits"

// dedupTable is the combining index of one open request message: a
// power-of-two, linear-probing hash table from a packed record address
// (read: prop<<48|offset, write: prop<<48|op<<40|offset) to a 32-bit
// position in the message. A message window only inserts and looks up — it
// never deletes — and ends with clear, so clear is a generation bump: a slot
// is live only while its gen matches the table's, and no memory is touched
// until the counter wraps. The zero value is an empty table.
type dedupTable struct {
	slots []dedupSlot
	shift uint   // 64 - log2(len(slots)): the hash keeps the product's high bits
	gen   uint32 // current generation, never 0 once slots exist
	n     int    // live entries
}

type dedupSlot struct {
	key uint64
	val uint32
	gen uint32
}

const dedupMinSlots = 256

// slot returns the table position where key lives or would be inserted.
// Fibonacci hashing: batch keys differ mostly in their low (offset) bits, and
// the multiplication spreads those over the high bits the index is cut from.
func (t *dedupTable) slot(key uint64) *dedupSlot {
	mask := len(t.slots) - 1
	for i := int(key * 0x9e3779b97f4a7c15 >> t.shift); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.gen != t.gen || s.key == key {
			return s
		}
	}
}

// get returns the value stored under key in the current generation.
func (t *dedupTable) get(key uint64) (uint32, bool) {
	if t.n == 0 {
		return 0, false
	}
	s := t.slot(key)
	return s.val, s.gen == t.gen
}

// put stores val under key, growing the table to keep it at most half full.
func (t *dedupTable) put(key uint64, val uint32) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	s := t.slot(key)
	if s.gen != t.gen {
		t.n++
	}
	*s = dedupSlot{key: key, val: val, gen: t.gen}
}

func (t *dedupTable) grow() {
	old, oldGen := t.slots, t.gen
	size := max(dedupMinSlots, 2*len(old))
	t.slots = make([]dedupSlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.gen = 1
	for _, s := range old {
		if s.gen == oldGen {
			*t.slot(s.key) = dedupSlot{key: s.key, val: s.val, gen: 1}
		}
	}
}

// clear empties the table in O(1).
func (t *dedupTable) clear() {
	if t.n == 0 {
		return
	}
	t.n = 0
	if t.gen++; t.gen == 0 { // wrapped: stale slots could alias the new generation
		for i := range t.slots {
			t.slots[i].gen = 0
		}
		t.gen = 1
	}
}
