package sketch

import (
	"bytes"
	"testing"

	"ndpbridge/internal/checkpoint"
	"ndpbridge/internal/sim"
	"ndpbridge/internal/task"
)

func TestSketchSnapshotRoundTrip(t *testing.T) {
	s := New(8, 4, 1.08, sim.NewRNG(42))
	for i := uint64(0); i < 200; i++ {
		s.Observe((i%30)<<8, 10+i%7)
	}

	var e checkpoint.Enc
	s.SnapshotTo(&e)

	r := New(8, 4, 1.08, sim.NewRNG(999))
	if err := r.RestoreFrom(checkpoint.NewDec(e.Data())); err != nil {
		t.Fatal(err)
	}
	if r.Len() != s.Len() || r.TrackedWorkload() != s.TrackedWorkload() || r.InsertedWorkload() != s.InsertedWorkload() {
		t.Errorf("restored len=%d tracked=%d inserted=%d, want %d, %d, %d",
			r.Len(), r.TrackedWorkload(), r.InsertedWorkload(), s.Len(), s.TrackedWorkload(), s.InsertedWorkload())
	}
	h1, ok1 := s.Hottest()
	h2, ok2 := r.Hottest()
	if ok1 != ok2 || h1 != h2 {
		t.Errorf("hottest diverged: %+v,%v vs %+v,%v", h1, ok1, h2, ok2)
	}
	// The decay RNG position survives: identical future observations keep
	// the two sketches identical (probabilistic decay replays bit-for-bit).
	for i := uint64(0); i < 500; i++ {
		s.Observe((i%60)<<8, 5)
		r.Observe((i%60)<<8, 5)
	}
	var a, b checkpoint.Enc
	s.SnapshotTo(&a)
	r.SnapshotTo(&b)
	if !bytes.Equal(a.Data(), b.Data()) {
		t.Fatal("sketches diverged after restore — decay RNG position lost")
	}

	bad := New(4, 4, 1.08, sim.NewRNG(1))
	var e2 checkpoint.Enc
	s.SnapshotTo(&e2)
	if err := bad.RestoreFrom(checkpoint.NewDec(e2.Data())); err == nil {
		t.Fatal("shape mismatch not rejected")
	}
}

func TestReservedQueueSnapshotRoundTrip(t *testing.T) {
	q := NewReservedQueue(8, 2)
	for i := 0; i < 10; i++ {
		blk := uint64(i%3) << 12
		if !q.Add(blk, task.Task{TS: 1, Addr: blk + uint64(i), Workload: uint32(i + 1)}) {
			t.Fatalf("add %d failed", i)
		}
	}
	q.TakeAppend(nil, 1<<12) // free one block so order has a stale entry

	var e checkpoint.Enc
	q.SnapshotTo(&e)

	r := NewReservedQueue(8, 2)
	if err := r.RestoreFrom(checkpoint.NewDec(e.Data())); err != nil {
		t.Fatal(err)
	}
	if r.Total() != q.Total() || r.FreeChunks() != q.FreeChunks() {
		t.Fatalf("restored total=%d free=%d, want %d, %d", r.Total(), r.FreeChunks(), q.Total(), q.FreeChunks())
	}
	want := q.Drain()
	got := r.Drain()
	if len(got) != len(want) {
		t.Fatalf("drain lengths %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("drain[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestReservedQueueSnapshotWritesBlockOnce is the regression test for a
// block taken and re-added: order then holds it twice, and the snapshot
// must still carry its list once, so a restore counts one task, not two.
func TestReservedQueueSnapshotWritesBlockOnce(t *testing.T) {
	q := NewReservedQueue(4, 2)
	q.Add(0x100, task.Task{TS: 1, Addr: 0x100})
	q.TakeAppend(nil, 0x100)
	q.Add(0x100, task.Task{TS: 1, Addr: 0x101})

	var e checkpoint.Enc
	q.SnapshotTo(&e)
	r := NewReservedQueue(4, 2)
	if err := r.RestoreFrom(checkpoint.NewDec(e.Data())); err != nil {
		t.Fatal(err)
	}
	if r.Total() != 1 || r.Len(0x100) != 1 || r.FreeChunks() != 3 {
		t.Fatalf("restored total=%d len=%d free=%d, want 1, 1, 3", r.Total(), r.Len(0x100), r.FreeChunks())
	}
	if got := r.Drain(); len(got) != 1 || got[0].Addr != 0x101 {
		t.Errorf("restored drain = %v, want the one re-added task", got)
	}
}
