package msg

// FIFO is a byte-accounted message queue: the shared representation of the
// mailbox ring, the level-1 scatter and backup buffers, the level-2 per-rank
// scatter queues, and the commit queues of the unit inbox and the host
// forwarder's channels. Each message's wire size is recorded when it is
// pushed, so the budget loops that drain these queues (GATHER, SCATTER,
// channel batches) read sizes from a dense byte array instead of
// dereferencing every queued message, and the queue's byte occupancy is a
// running total rather than a re-walk.
//
// A message's size must not change while it is queued; the auditor checks
// each queue's byte total against its messages' recomputed sizes
// (CheckBytes).
//
// The zero value is an empty queue.
//
//ndplint:domain(perowner)
type FIFO struct {
	msgs  []*Message
	sizes []uint8 // wire size per message; every size is ≤ MaxSize
	head  int
	bytes uint64
	peak  int // most messages held since the queue was last empty
}

// Sizes are stored as uint8: this fails to compile if MaxSize outgrows it.
const _ = uint8(MaxSize)

// Len returns the number of queued messages.
func (f *FIFO) Len() int { return len(f.msgs) - f.head }

// Bytes returns the summed wire size of the queued messages.
func (f *FIFO) Bytes() uint64 { return f.bytes }

// Msgs returns the queued messages front to back. The slice aliases the
// queue's storage and is valid only until the next mutation.
func (f *FIFO) Msgs() []*Message { return f.msgs[f.head:] }

// Push appends m at the tail.
//
//ndplint:hotpath
func (f *FIFO) Push(m *Message) {
	s := m.Size()
	f.msgs = append(f.msgs, m)
	f.sizes = append(f.sizes, uint8(s))
	f.bytes += s
	f.peak = max(f.peak, len(f.msgs)-f.head)
}

// PushFront re-inserts m at the head, ahead of every queued message.
//
//ndplint:hotpath
func (f *FIFO) PushFront(m *Message) {
	s := m.Size()
	if f.head > 0 {
		f.head--
	} else {
		f.msgs = append(f.msgs, nil)
		copy(f.msgs[1:], f.msgs)
		f.sizes = append(f.sizes, 0)
		copy(f.sizes[1:], f.sizes)
	}
	f.msgs[f.head] = m
	f.sizes[f.head] = uint8(s)
	f.bytes += s
}

// Head returns the head message and its wire size without removing it, or
// false when the queue is empty. The size comes from the queue, so a budget
// check need not touch the message itself.
//
//ndplint:hotpath
func (f *FIFO) Head() (*Message, uint64, bool) {
	if f.head == len(f.msgs) {
		return nil, 0, false
	}
	return f.msgs[f.head], uint64(f.sizes[f.head]), true
}

// Pop removes and returns the head message. The queue must be non-empty.
//
//ndplint:hotpath
func (f *FIFO) Pop() *Message {
	m := f.msgs[f.head]
	f.msgs[f.head] = nil
	f.bytes -= uint64(f.sizes[f.head])
	f.head++
	if f.head == len(f.msgs) {
		f.release()
	} else if f.head > 64 && f.head*2 >= len(f.msgs) {
		n := copy(f.msgs, f.msgs[f.head:])
		clear(f.msgs[n:])
		copy(f.sizes, f.sizes[f.head:])
		f.msgs, f.sizes, f.head = f.msgs[:n], f.sizes[:n], 0
	}
	return m
}

// retainCap is the backing-array capacity an emptied FIFO always keeps.
const retainCap = 64

// release empties the queue's storage after the last message is popped. A
// queue keeps its array while its fills use it, so refilling to the same
// depth does not allocate; an array grown by a burst four times deeper than
// the latest fill is released, so idle queues do not pin a past peak.
func (f *FIFO) release() {
	if c := cap(f.msgs); c > retainCap && c > 4*f.peak {
		f.msgs, f.sizes = nil, nil
	} else {
		f.msgs, f.sizes = f.msgs[:0], f.sizes[:0]
	}
	f.head, f.peak = 0, 0
}

// DrainUpTo pops messages from the head while their combined wire size
// stays within budget, appending them to dst, and returns the extended
// slice with the bytes drained. It always pops at least one message when
// the queue is non-empty — a transfer granularity is a floor on bus
// occupancy, not a cap on message size — and stops once budget is reached.
//
//ndplint:hotpath
func (f *FIFO) DrainUpTo(dst []*Message, budget uint64) ([]*Message, uint64) {
	var used uint64
	for f.head < len(f.msgs) {
		s := uint64(f.sizes[f.head])
		if used > 0 && used+s > budget {
			break
		}
		dst = append(dst, f.Pop())
		used += s
		if used >= budget {
			break
		}
	}
	return dst, used
}

// RemoveIf deletes every queued message for which drop reports true,
// keeping the others in order, and returns dst extended by the deleted
// messages in queue order.
func (f *FIFO) RemoveIf(dst []*Message, drop func(*Message) bool) []*Message {
	keep := f.head
	for i := f.head; i < len(f.msgs); i++ {
		m := f.msgs[i]
		if drop(m) {
			f.bytes -= uint64(f.sizes[i])
			dst = append(dst, m)
			continue
		}
		f.msgs[keep], f.sizes[keep] = m, f.sizes[i]
		keep++
	}
	clear(f.msgs[keep:])
	f.msgs, f.sizes = f.msgs[:keep], f.sizes[:keep]
	return dst
}

// Reset empties the queue, keeping its storage.
func (f *FIFO) Reset() {
	clear(f.msgs)
	f.msgs, f.sizes, f.head, f.bytes, f.peak = f.msgs[:0], f.sizes[:0], 0, 0, 0
}

// CheckBytes returns the queue's recorded byte total and the wire size of
// its messages recomputed now. They differ when the running total drifted or
// a message's size changed while it was queued.
func (f *FIFO) CheckBytes() (recorded, recomputed uint64) {
	for _, m := range f.msgs[f.head:] {
		recomputed += m.Size()
	}
	return f.bytes, recomputed
}
