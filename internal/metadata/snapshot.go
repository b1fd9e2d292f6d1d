package metadata

import (
	"fmt"

	"ndpbridge/internal/checkpoint"
)

// This file is the migration-metadata serialization boundary. Both
// structures encode their complete state — including the Borrowed table's
// LRU clock, which steers future evictions and therefore must survive a
// snapshot for the restored run to stay deterministic.

// SnapshotTo encodes the bitmap sparsely: the shape (blocks, shift, word
// count) for validation on restore, then only the nonzero words with their
// index. A unit rarely lends more than a few dozen blocks out of a bank's
// few hundred thousand, so this keeps the per-unit bitmap contribution to a
// snapshot near zero instead of bank-capacity-proportional.
func (l *IsLent) SnapshotTo(e *checkpoint.Enc) {
	e.U64(l.blocks)
	e.U64(uint64(l.blockShift))
	e.U32(uint32(l.words()))
	if l.lentCount == 0 {
		// SetLent keeps lentCount equal to the bitmap popcount, so an
		// empty count means every word is zero — skip the scans.
		e.U32(0)
		e.I64(0)
		return
	}
	var nz uint32
	for _, w := range l.bits {
		if w != 0 {
			nz++
		}
	}
	e.U32(nz)
	for i, w := range l.bits {
		if w != 0 {
			e.U32(uint32(i))
			e.U64(w)
		}
	}
	e.I64(int64(l.lentCount))
}

// RestoreFrom rebuilds the bitmap from a SnapshotTo stream. The shape must
// match the receiver's. All words not listed in the snapshot are cleared.
func (l *IsLent) RestoreFrom(d *checkpoint.Dec) error {
	blocks := d.U64()
	shift := uint(d.U64())
	n := d.U32()
	if d.Err() == nil && (blocks != l.blocks || shift != l.blockShift || int(n) != l.words()) {
		return fmt.Errorf("metadata: isLent snapshot shape (%d blocks, shift %d, %d words) does not match (%d, %d, %d)",
			blocks, shift, n, l.blocks, l.blockShift, l.words())
	}
	nz := d.U32()
	if d.Err() != nil {
		return d.Err()
	}
	if int(nz) > l.words() {
		return fmt.Errorf("metadata: isLent snapshot has %d nonzero words for a %d-word bitmap", nz, l.words())
	}
	for i := range l.bits {
		l.bits[i] = 0
	}
	if nz > 0 && l.bits == nil {
		l.bits = make([]uint64, l.words())
	}
	for k := uint32(0); k < nz; k++ {
		idx := d.U32()
		if d.Err() != nil {
			return d.Err()
		}
		if int(idx) >= len(l.bits) {
			return fmt.Errorf("metadata: isLent snapshot word %d names bad index %d", k, idx)
		}
		l.bits[idx] = d.U64()
	}
	l.lentCount = int(d.I64())
	return d.Err()
}

// SnapshotTo encodes the set-associative table sparsely: geometry for
// validation, the LRU clock, then only the valid entries with their physical
// slot index. Invalid slots carry no behavioral state (Insert chooses victims
// by validity and LRU alone, Remove zeroes the slot), so restoring them as
// zero is exact — and the tables are sized for the paper's full-scale
// machine, so walking only the occupied slots keeps snapshots cheap when the
// tables are mostly empty. Slot index order is the physical layout, so no
// sorting is needed for determinism.
func (b *Borrowed) SnapshotTo(e *checkpoint.Enc) {
	e.I64(int64(b.sets))
	e.I64(int64(b.ways))
	e.U64(b.clock)
	e.U32(uint32(b.used))
	if b.used == 0 {
		return
	}
	b.eachSet(func(si int, set []bentry) {
		for i := range set {
			if set[i].valid {
				e.U32(uint32(si*b.ways + i))
				e.U64(set[i].key)
				e.U64(set[i].value)
				e.U64(set[i].lru)
			}
		}
	})
}

// RestoreFrom rebuilds the table from a SnapshotTo stream. The geometry
// must match the receiver's. All slots not listed in the snapshot are
// cleared.
func (b *Borrowed) RestoreFrom(d *checkpoint.Dec) error {
	sets := int(d.I64())
	ways := int(d.I64())
	if d.Err() == nil && (sets != b.sets || ways != b.ways) {
		return fmt.Errorf("metadata: borrowed snapshot geometry %d×%d does not match %d×%d", sets, ways, b.sets, b.ways)
	}
	b.clock = d.U64()
	b.last = nil
	n := int(d.U32())
	if d.Err() != nil {
		return d.Err()
	}
	if n > b.sets*b.ways {
		return fmt.Errorf("metadata: borrowed snapshot has %d entries for a %d-slot table", n, b.sets*b.ways)
	}
	for i := range b.pages {
		for _, set := range b.pages[i].sets {
			clear(set)
		}
	}
	for k := 0; k < n; k++ {
		slot := int(d.U32())
		if d.Err() != nil {
			return d.Err()
		}
		if slot >= b.sets*b.ways {
			return fmt.Errorf("metadata: borrowed snapshot entry %d names bad slot %d", k, slot)
		}
		ent := b.slotAt(slot/b.ways, slot%b.ways)
		if ent.valid {
			return fmt.Errorf("metadata: borrowed snapshot entry %d names duplicate slot %d", k, slot)
		}
		*ent = bentry{
			valid: true,
			key:   d.U64(),
			value: d.U64(),
			lru:   d.U64(),
		}
	}
	b.used = n
	return d.Err()
}
