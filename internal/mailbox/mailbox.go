// Package mailbox implements the in-DRAM mailbox region of NDPBridge
// (Section V-A): a ring buffer of outgoing messages whose head and tail
// pointers live in the unit controller. New messages are appended at the
// tail; the parent bridge's GATHER command drains from the head. When the
// region is full, the next enqueue stalls.
//
// The simulator stores message values rather than encoded bytes, but byte
// occupancy is accounted exactly using each message's wire size, so capacity
// pressure and the L_mailbox state reported to bridges behave as in hardware.
package mailbox

import (
	"ndpbridge/internal/msg"
)

// Mailbox is a byte-accounted FIFO ring of outgoing messages.
//ndplint:domain(perowner)
type Mailbox struct {
	capacity uint64
	q        msg.FIFO

	// Accounting.
	enqueued uint64
	dequeued uint64
	stalls   uint64
	peakUsed uint64

	// drainBuf backs DrainUpTo's return slice so a mailbox drained every
	// bus round does not allocate. Valid only until the next DrainUpTo on
	// the same mailbox; every caller hands the batch off (or finishes
	// iterating it) before draining this mailbox again.
	drainBuf []*msg.Message //ndplint:nosnap scratch; contents owned by caller
}

// New returns an empty mailbox of the given byte capacity.
func New(capacity uint64) *Mailbox {
	if capacity == 0 {
		panic("mailbox: zero capacity")
	}
	return &Mailbox{capacity: capacity}
}

// Capacity returns the region size in bytes.
func (mb *Mailbox) Capacity() uint64 { return mb.capacity }

// Used returns the occupied bytes — the L_mailbox value of state messages.
func (mb *Mailbox) Used() uint64 { return mb.q.Bytes() }

// Len returns the number of queued messages.
func (mb *Mailbox) Len() int { return mb.q.Len() }

// Empty reports whether no messages are waiting.
func (mb *Mailbox) Empty() bool { return mb.q.Len() == 0 }

// CanFit reports whether a message of n wire bytes fits.
func (mb *Mailbox) CanFit(n uint64) bool { return mb.q.Bytes()+n <= mb.capacity }

// CheckBytes returns the recorded occupancy and the queued messages' wire
// size recomputed now (see msg.FIFO.CheckBytes).
func (mb *Mailbox) CheckBytes() (recorded, recomputed uint64) { return mb.q.CheckBytes() }

// Enqueue appends m. It returns false (a stall) when the region is full, in
// which case the unit controller must retry later (Section V-A).
//
//ndplint:hotpath
func (mb *Mailbox) Enqueue(m *msg.Message) bool {
	if !mb.CanFit(m.Size()) {
		mb.stalls++
		return false
	}
	mb.q.Push(m)
	mb.enqueued++
	mb.peakUsed = max(mb.peakUsed, mb.q.Bytes())
	return true
}

// PushFront re-inserts m at the head of the ring — the retry protocol's
// "refused drain" path, where a message pulled for transmission must go back
// in arrival order because the hop is backpressured. Returns false when the
// message no longer fits.
//
//ndplint:hotpath
func (mb *Mailbox) PushFront(m *msg.Message) bool {
	if !mb.CanFit(m.Size()) {
		mb.stalls++
		return false
	}
	mb.q.PushFront(m)
	mb.peakUsed = max(mb.peakUsed, mb.q.Bytes())
	return true
}

// Dequeue removes and returns the head message.
//
//ndplint:hotpath
func (mb *Mailbox) Dequeue() (*msg.Message, bool) {
	if mb.q.Len() == 0 {
		return nil, false
	}
	mb.dequeued++
	return mb.q.Pop(), true
}

// Drain removes messages from the head whose combined wire size does not
// exceed budget bytes, and returns them with their combined size. It always
// removes at least one message when the mailbox is non-empty: the transfer
// granularity is a floor on bus occupancy, not a cap on message size (and
// messages are ≤64 B ≤ G_xfer anyway). This models one GATHER of G_xfer
// bytes.
//
// The returned slice is only valid until the next drain of this mailbox.
//
//ndplint:hotpath
func (mb *Mailbox) Drain(budget uint64) ([]*msg.Message, uint64) {
	out, n := mb.q.DrainUpTo(mb.drainBuf[:0], budget)
	mb.drainBuf = out
	mb.dequeued += uint64(len(out))
	if len(out) == 0 {
		return nil, 0
	}
	return out, n
}

// DrainUpTo is Drain without the byte count, for callers that need only the
// messages.
func (mb *Mailbox) DrainUpTo(budget uint64) []*msg.Message {
	ms, _ := mb.Drain(budget)
	return ms
}

// Stats returns cumulative enqueue/dequeue/stall counts and peak occupancy.
func (mb *Mailbox) Stats() (enq, deq, stalls, peak uint64) {
	return mb.enqueued, mb.dequeued, mb.stalls, mb.peakUsed
}
