package metadata

import (
	"fmt"
	"math/bits"
)

// Borrowed is a set-associative, LRU-replaced table keyed by a block's
// original (home) address. In an NDP unit the value is the block's remapped
// address in the borrowed data region; in a bridge it is the borrowing
// receiver's unit ID. When an entry is evicted, the owner must return the
// block home — the Evicted callback result surfaces that.
//
// All storage is allocated lazily: the tables are sized for the paper's
// full-scale machine (64k entries per bridge) but mostly empty in small runs,
// and per-system eager allocation (even of just per-set headers) dominated
// end-to-end profiles. The first Insert allocates one small header per 64
// sets (a setPage); a set's entry storage exists only once the set is
// touched, and grows one entry at a time up to ways. A lookup on a
// never-touched set reads one bitmap word and no entry storage. An absent
// slot is indistinguishable from an invalid one: lookups never match it, and
// Insert prefers the first invalid slot as victim — which for a partially
// materialized set is exactly the append position — so victim choice, slot
// numbering, and eviction order all match an eagerly-allocated layout.
// Iteration (ForEach, snapshots) walks the pages and their bitmaps, which
// visits sets in ascending order.
//ndplint:domain(perowner)
type Borrowed struct {
	sets  int
	ways  int
	pages []setPage // sets 64 at a time; nil until the first Insert
	clock uint64
	used  int

	// last is the entry the latest Lookup hit: about a third of lookups
	// repeat the previous hit (a block's data sub-messages, consecutive
	// tasks on one block). Insert and Remove, which may move or clear
	// entries, reset it to nil.
	last *bentry //ndplint:nosnap lookup cache; nil after restore
}

// setPage covers 64 consecutive sets. Bit j of touched is set once set j of
// the page has held an entry, and sets holds the touched sets' storage in
// ascending set order, so set j's storage is
// sets[popcount(touched & (1<<j - 1))].
type setPage struct {
	touched uint64
	sets    [][]bentry
}

type bentry struct {
	valid bool
	key   uint64
	value uint64
	lru   uint64
}

// Eviction describes an entry displaced by Insert.
//ndplint:domain(xfer)
type Eviction struct {
	Key   uint64
	Value uint64
}

// NewBorrowed builds a table with the given total entries and associativity.
// entries must be a multiple of ways and the set count must be a power of
// two.
func NewBorrowed(entries, ways int) *Borrowed {
	if ways <= 0 || entries <= 0 || entries%ways != 0 {
		panic("metadata: entries must be a positive multiple of ways")
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("metadata: set count %d must be a power of two", sets))
	}
	return &Borrowed{sets: sets, ways: ways}
}

func (b *Borrowed) setIndex(key uint64) uint32 {
	// Keys are block addresses; drop the low bits that are constant
	// within a block by hashing, so consecutive blocks spread over sets.
	h := key * 0x9e3779b97f4a7c15
	return uint32(h>>32) & uint32(b.sets-1)
}

// Lookup returns the value for key and touches its LRU position.
//
//ndplint:hotpath
func (b *Borrowed) Lookup(key uint64) (uint64, bool) {
	e := b.last
	if e == nil || e.key != key {
		if e = b.find(key); e == nil {
			return 0, false
		}
		b.last = e
	}
	b.clock++
	e.lru = b.clock
	return e.value, true
}

// Contains reports presence without touching LRU state.
//
//ndplint:hotpath
func (b *Borrowed) Contains(key uint64) bool { return b.find(key) != nil }

// find returns key's entry, or nil.
//
//ndplint:hotpath
func (b *Borrowed) find(key uint64) *bentry {
	set := b.set(key)
	for i := range set {
		if set[i].valid && set[i].key == key {
			return &set[i]
		}
	}
	return nil
}

// page returns set si's page and bit.
func (b *Borrowed) page(si uint32) (*setPage, uint64) {
	return &b.pages[si/64], uint64(1) << (si % 64)
}

// setAt returns set si's storage, nil when the set was never touched.
//
//ndplint:hotpath
func (b *Borrowed) setAt(si uint32) []bentry {
	if b.pages == nil {
		return nil
	}
	pg, bit := b.page(si)
	if pg.touched&bit == 0 {
		return nil
	}
	return pg.sets[bits.OnesCount64(pg.touched&(bit-1))]
}

// set returns key's set storage, nil when the set was never touched or the
// table is empty.
//
//ndplint:hotpath
func (b *Borrowed) set(key uint64) []bentry {
	if b.used == 0 {
		return nil
	}
	return b.setAt(b.setIndex(key))
}

// grow appends one invalid slot to set si, registering the set as touched
// on its first slot, and returns the new slot.
//
//ndplint:hotpath
func (b *Borrowed) grow(si uint32) *bentry {
	if b.pages == nil {
		b.pages = make([]setPage, (b.sets+63)/64) //ndplint:alloc once, on first insert
	}
	pg, bit := b.page(si)
	k := bits.OnesCount64(pg.touched & (bit - 1))
	if pg.touched&bit == 0 {
		pg.touched |= bit
		pg.sets = append(pg.sets, nil)
		copy(pg.sets[k+1:], pg.sets[k:])
		pg.sets[k] = nil
	}
	pg.sets[k] = append(pg.sets[k], bentry{}) //ndplint:alloc amortized set growth
	set := pg.sets[k]
	return &set[len(set)-1]
}

// slotAt returns set si's way-th entry, materializing storage up to it. Only
// snapshot restore addresses slots directly; Insert grows sets itself.
func (b *Borrowed) slotAt(si, way int) *bentry {
	for {
		if set := b.setAt(uint32(si)); len(set) > way {
			return &set[way]
		}
		b.grow(uint32(si))
	}
}

// eachSet calls fn with every touched set's index and storage, in ascending
// set order.
func (b *Borrowed) eachSet(fn func(si int, set []bentry)) {
	for pi := range b.pages {
		pg := &b.pages[pi]
		t := pg.touched
		for k := 0; t != 0; k++ {
			fn(pi*64+bits.TrailingZeros64(t), pg.sets[k])
			t &= t - 1
		}
	}
}

// Insert adds or updates key→value. If the set is full, the LRU entry is
// evicted and returned.
//
//ndplint:hotpath
func (b *Borrowed) Insert(key, value uint64) (ev Eviction, evicted bool) {
	b.last = nil
	si := b.setIndex(key)
	set := b.setAt(si)
	b.clock++
	var victim *bentry
	for i := range set {
		e := &set[i]
		if e.valid && e.key == key {
			e.value = value
			e.lru = b.clock
			return Eviction{}, false
		}
		if !e.valid {
			if victim == nil || victim.valid {
				victim = e
			}
		} else if victim == nil || (victim.valid && e.lru < victim.lru) {
			victim = e
		}
	}
	if (victim == nil || victim.valid) && len(set) < b.ways {
		// No stored invalid slot: the first unmaterialized one is the
		// victim an eager layout would have chosen.
		victim = b.grow(si)
	}
	if victim.valid {
		ev = Eviction{Key: victim.key, Value: victim.value}
		evicted = true
	} else {
		b.used++
	}
	*victim = bentry{valid: true, key: key, value: value, lru: b.clock}
	return ev, evicted
}

// Remove deletes key, reporting whether it was present.
//
//ndplint:hotpath
func (b *Borrowed) Remove(key uint64) bool {
	e := b.find(key)
	if e == nil {
		return false
	}
	b.last = nil
	*e = bentry{}
	b.used--
	return true
}

// Len returns the number of valid entries.
func (b *Borrowed) Len() int { return b.used }

// Capacity returns the total entry count.
func (b *Borrowed) Capacity() int { return b.sets * b.ways }

// ForEach visits every valid entry in ascending (set, way) order.
func (b *Borrowed) ForEach(fn func(key, value uint64)) {
	if b.used == 0 {
		return
	}
	b.eachSet(func(_ int, set []bentry) {
		for i := range set {
			if set[i].valid {
				fn(set[i].key, set[i].value)
			}
		}
	})
}
