package mailbox

import (
	"fmt"

	"ndpbridge/internal/checkpoint"
	"ndpbridge/internal/msg"
)

// SnapshotTo encodes the mailbox: capacity (for shape validation on
// restore), the queued messages front to back, and the accounting counters.
func (mb *Mailbox) SnapshotTo(e *checkpoint.Enc) {
	e.U64(mb.capacity)
	e.U32(uint32(mb.q.Len()))
	for _, m := range mb.q.Msgs() {
		msg.EncodeSnapshot(e, m)
	}
	e.U64(mb.q.Bytes())
	e.U64(mb.enqueued)
	e.U64(mb.dequeued)
	e.U64(mb.stalls)
	e.U64(mb.peakUsed)
}

// RestoreFrom rebuilds the mailbox from a SnapshotTo stream, replacing the
// current contents. The capacity must match the snapshot's, and the encoded
// occupancy must equal the summed wire size of the encoded messages.
func (mb *Mailbox) RestoreFrom(d *checkpoint.Dec) error {
	capacity := d.U64()
	if d.Err() == nil && capacity != mb.capacity {
		return fmt.Errorf("mailbox: snapshot capacity %d, have %d", capacity, mb.capacity)
	}
	n := d.U32()
	mb.q.Reset()
	for i := uint32(0); i < n; i++ {
		mm := msg.DecodeSnapshot(d)
		if d.Err() != nil {
			return d.Err()
		}
		mb.q.Push(mm)
	}
	used := d.U64()
	if d.Err() == nil && used != mb.q.Bytes() {
		return fmt.Errorf("mailbox: snapshot occupancy %d B, queued messages sum to %d B", used, mb.q.Bytes())
	}
	mb.enqueued = d.U64()
	mb.dequeued = d.U64()
	mb.stalls = d.U64()
	mb.peakUsed = d.U64()
	return d.Err()
}
