package task

import "testing"

var sinkAddr uint64

// BenchmarkQueuePushPopTwoEpochs: one operation is a Push and a Pop with
// two epochs live, the current one being drained while the next fills — the
// bulk-synchronous steady state.
func BenchmarkQueuePushPopTwoEpochs(b *testing.B) {
	const batch = 256
	q := NewQueue()
	for j := 0; j < batch; j++ {
		q.Push(Task{TS: 0, Addr: uint64(j), Workload: 40})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, ts := 0, uint32(0); i < b.N; i, ts = i+batch, ts+1 {
		for j := 0; j < batch; j++ {
			q.Push(Task{TS: ts + 1, Addr: uint64(j), Workload: 40})
			t, _ := q.Pop(ts)
			sinkAddr += t.Addr
		}
	}
}
