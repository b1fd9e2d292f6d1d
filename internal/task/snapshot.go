package task

import (
	"fmt"

	"ndpbridge/internal/checkpoint"
)

// This file is the task layer's serialization boundary: a full-fidelity
// codec for Task (every field, including the simulator-side SpawnedAt and ID
// metadata the wire format omits) and the Queue snapshot used by checkpoints
// and the state-digest audit. Epoch FIFOs are encoded in ascending epoch
// order so the byte stream is a pure function of queue contents.

// EncodeTask appends t to e.
func EncodeTask(e *checkpoint.Enc, t Task) {
	e.U32(uint32(t.Func))
	e.U32(t.TS)
	e.U64(t.Addr)
	e.U32(t.Workload)
	e.U8(t.NArgs)
	for i := 0; i < int(t.NArgs); i++ {
		e.U64(t.Args[i])
	}
	e.U64(t.SpawnedAt)
	e.U64(t.ID)
}

// DecodeTask reads one task from d.
func DecodeTask(d *checkpoint.Dec) Task {
	var t Task
	t.Func = FuncID(d.U32())
	t.TS = d.U32()
	t.Addr = d.U64()
	t.Workload = d.U32()
	t.NArgs = d.U8()
	if int(t.NArgs) > MaxArgs {
		// Poison the decoder instead of indexing out of bounds.
		for i := 0; i < int(t.NArgs); i++ {
			d.U64()
		}
		t.NArgs = 0
		t.SpawnedAt = d.U64()
		t.ID = d.U64()
		return t
	}
	for i := 0; i < int(t.NArgs); i++ {
		t.Args[i] = d.U64()
	}
	t.SpawnedAt = d.U64()
	t.ID = d.U64()
	return t
}

// SnapshotTo encodes the queue: the non-empty per-epoch FIFOs in ascending
// epoch order, each with its tasks front to back. Empty FIFOs carry no state
// and are not encoded.
func (q *Queue) SnapshotTo(e *checkpoint.Enc) {
	n := 0
	for i := range q.live {
		if q.live[i].len() > 0 {
			n++
		}
	}
	e.U32(uint32(n))
	for i := range q.live {
		f := &q.live[i]
		if f.len() == 0 {
			continue
		}
		e.U32(f.ts)
		e.U32(uint32(f.len()))
		for _, t := range f.items[f.head:] {
			EncodeTask(e, t)
		}
	}
}

// RestoreFrom rebuilds the queue from a SnapshotTo stream, replacing the
// current contents. Workload sums are recomputed from the tasks.
func (q *Queue) RestoreFrom(d *checkpoint.Dec) error {
	q.reset()
	n := d.U32()
	for i := uint32(0); i < n; i++ {
		ts := d.U32()
		cnt := d.U32()
		for j := uint32(0); j < cnt; j++ {
			t := DecodeTask(d)
			if d.Err() != nil {
				return d.Err()
			}
			if t.TS != ts {
				return fmt.Errorf("task: snapshot epoch %d holds task of epoch %d", ts, t.TS)
			}
			q.Push(t)
		}
	}
	return d.Err()
}
