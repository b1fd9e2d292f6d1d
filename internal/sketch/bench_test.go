package sketch

import (
	"testing"

	"ndpbridge/internal/sim"
	"ndpbridge/internal/task"
)

var sinkTasks int

// BenchmarkReservedAddTake churns blocks through the reserved queue: one
// operation is an Add; every fourth Add starts a new block, and the block
// added 32 blocks earlier is taken, so about 32 blocks are live and block
// addresses keep changing, as on a design-O unit's accept/refill path.
func BenchmarkReservedAddTake(b *testing.B) {
	const perBlock, window = 4, 32
	q := NewReservedQueue(1<<12, 4)
	var buf []task.Task
	blockOf := func(k int) uint64 { return uint64(k%(1<<16)) << 8 }
	step := func(i int) {
		k := i / perBlock
		q.Add(blockOf(k), task.Task{TS: 1, Addr: blockOf(k), Workload: 40})
		if i%perBlock == perBlock-1 && k >= window {
			buf = q.TakeAppend(buf[:0], blockOf(k-window))
			sinkTasks += len(buf)
		}
	}
	for i := 0; i < 1<<14; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(1<<14 + i)
	}
}

// BenchmarkSketchHottest: one operation is an Observe that may move a
// bucket's maximum, then a Hottest query, on a full 16×16 sketch (the
// paper's shape).
func BenchmarkSketchHottest(b *testing.B) {
	const blocks = 1024
	s := New(16, 16, 1.08, sim.NewRNG(1))
	rng := sim.NewRNG(2)
	addrs := make([]uint64, blocks)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1<<20)) << 8
	}
	for i := 0; i < 1<<14; i++ {
		s.Observe(addrs[i%blocks], 40)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(addrs[i%blocks], 40)
		e, _ := s.Hottest()
		sinkTasks += int(e.Workload)
	}
}
