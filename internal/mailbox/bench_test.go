package mailbox

import (
	"testing"

	"ndpbridge/internal/msg"
	"ndpbridge/internal/task"
)

var sinkBytes uint64

// BenchmarkMailboxEnqueueDrain: one operation is an Enqueue plus its share
// of the 256-byte GATHER drains that empty the mailbox again, 256 messages
// per batch, deeper than an emptied FIFO always retains.
func BenchmarkMailboxEnqueueDrain(b *testing.B) {
	const batch = 256
	mb := New(64 << 10)
	ms := make([]*msg.Message, batch)
	for i := range ms {
		ms[i] = &msg.Message{Type: msg.TypeTask, Task: task.Task{NArgs: uint8(i % 3)}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		for _, m := range ms {
			mb.Enqueue(m)
		}
		for !mb.Empty() {
			_, n := mb.Drain(256)
			sinkBytes += n
		}
	}
}
