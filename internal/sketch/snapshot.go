package sketch

import (
	"fmt"

	"ndpbridge/internal/checkpoint"
	"ndpbridge/internal/task"
)

// This file is the sketch layer's serialization boundary: the heavy-hitter
// sketch (bucket tables plus its private RNG stream position — probabilistic
// decay must resume mid-stream for determinism) and the reserved task queue
// (live blocks in drain order).

// SnapshotTo encodes the sketch: shape for validation, every bucket's
// entries in slot order, the decay RNG position, and the counters.
func (s *Sketch) SnapshotTo(e *checkpoint.Enc) {
	e.I64(int64(s.buckets))
	e.I64(int64(s.entries))
	for _, bucket := range s.table {
		e.U32(uint32(len(bucket)))
		for _, ent := range bucket {
			e.U64(ent.Addr)
			e.U64(ent.Workload)
		}
	}
	e.U64(s.rng.State())
	e.U64(s.inserted)
	e.U64(s.decays)
}

// RestoreFrom rebuilds the sketch from a SnapshotTo stream. The shape must
// match the receiver's.
func (s *Sketch) RestoreFrom(d *checkpoint.Dec) error {
	buckets := int(d.I64())
	entries := int(d.I64())
	if d.Err() == nil && (buckets != s.buckets || entries != s.entries) {
		return fmt.Errorf("sketch: snapshot shape %d×%d does not match %d×%d", buckets, entries, s.buckets, s.entries)
	}
	for i := range s.table {
		n := d.U32()
		if d.Err() != nil {
			return d.Err()
		}
		s.table[i] = s.table[i][:0]
		for j := uint32(0); j < n; j++ {
			s.table[i] = append(s.table[i], Entry{Addr: d.U64(), Workload: d.U64()})
		}
		s.rescan(i)
	}
	s.rng.SetState(d.U64())
	s.inserted = d.U64()
	s.decays = d.U64()
	return d.Err()
}

// SnapshotTo encodes the reserved queue: chunk accounting plus every live
// block with its reserved tasks, in drain order. A block appears once, at its
// first order position (where DrainAppend takes it), however many stale
// order entries precede its current list.
func (r *ReservedQueue) SnapshotTo(e *checkpoint.Enc) {
	e.I64(int64(r.chunkTasks))
	e.I64(int64(r.totalChunks))
	e.I64(int64(r.freeChunks))
	e.U32(uint32(r.live()))
	if r.live() == 0 {
		return // the queue is empty at every epoch barrier
	}
	written := make([]bool, len(r.lists))
	for _, b := range r.order {
		_, li := r.find(b)
		if li < 0 || written[li] {
			continue // stale order entry (block taken, or already written)
		}
		written[li] = true
		bl := &r.lists[li]
		e.U64(b)
		e.I64(int64(bl.chunks))
		e.U32(uint32(len(bl.tasks)))
		for _, t := range bl.tasks {
			task.EncodeTask(e, t)
		}
	}
}

// RestoreFrom rebuilds the reserved queue from a SnapshotTo stream. The
// chunk shape must match the receiver's.
func (r *ReservedQueue) RestoreFrom(d *checkpoint.Dec) error {
	chunkTasks := int(d.I64())
	totalChunks := int(d.I64())
	if d.Err() == nil && (chunkTasks != r.chunkTasks || totalChunks != r.totalChunks) {
		return fmt.Errorf("sketch: reserved-queue snapshot shape (%d, %d) does not match (%d, %d)",
			chunkTasks, totalChunks, r.chunkTasks, r.totalChunks)
	}
	r.freeChunks = int(d.I64())
	n := d.U32()
	r.lists = r.lists[:0]
	r.free = r.free[:0]
	clear(r.index)
	r.order = r.order[:0]
	r.total = 0
	for i := uint32(0); i < n; i++ {
		b := d.U64()
		if _, li := r.find(b); li >= 0 {
			return fmt.Errorf("sketch: reserved-queue snapshot repeats block %#x", b)
		}
		bl := &r.lists[r.insert(b)]
		bl.chunks = int(d.I64())
		cnt := d.U32()
		for j := uint32(0); j < cnt; j++ {
			bl.tasks = append(bl.tasks, task.DecodeTask(d))
		}
		if d.Err() != nil {
			return d.Err()
		}
		r.order = append(r.order, b)
		r.total += len(bl.tasks)
	}
	return d.Err()
}
