package task

import (
	"testing"
	"testing/quick"

	"ndpbridge/internal/checkpoint"
)

func TestQueueFIFOWithinEpoch(t *testing.T) {
	q := NewQueue()
	for i := uint64(0); i < 5; i++ {
		q.Push(New(0, 1, i, 10))
	}
	for i := uint64(0); i < 5; i++ {
		tk, ok := q.Pop(1)
		if !ok || tk.Addr != i {
			t.Fatalf("pop %d: got %v, %v", i, tk.Addr, ok)
		}
	}
	if _, ok := q.Pop(1); ok {
		t.Error("pop from empty epoch should fail")
	}
}

func TestQueueEpochIsolation(t *testing.T) {
	q := NewQueue()
	q.Push(New(0, 2, 100, 1)) // future epoch
	q.Push(New(0, 1, 200, 1)) // current epoch
	if _, ok := q.Pop(1); !ok {
		t.Fatal("current epoch task missing")
	}
	if _, ok := q.Pop(1); ok {
		t.Fatal("must not return future-epoch task for epoch 1")
	}
	if tk, ok := q.Pop(2); !ok || tk.Addr != 100 {
		t.Fatal("future epoch task lost")
	}
}

func TestQueueWorkloadTracking(t *testing.T) {
	q := NewQueue()
	q.Push(New(0, 1, 0, 10))
	q.Push(New(0, 1, 1, 20))
	q.Push(New(0, 2, 2, 5))
	if q.Workload(1) != 30 {
		t.Errorf("Workload(1) = %d, want 30", q.Workload(1))
	}
	if q.Workload(2) != 5 {
		t.Errorf("Workload(2) = %d, want 5", q.Workload(2))
	}
	if q.TotalWorkload() != 35 {
		t.Errorf("TotalWorkload = %d, want 35", q.TotalWorkload())
	}
	q.Pop(1)
	if q.Workload(1) != 20 {
		t.Errorf("after pop Workload(1) = %d, want 20", q.Workload(1))
	}
	// Unspecified workload counts as 1.
	q.Push(New(0, 1, 3, 0))
	if q.Workload(1) != 21 {
		t.Errorf("Workload(1) = %d, want 21", q.Workload(1))
	}
}

func TestQueuePopTail(t *testing.T) {
	q := NewQueue()
	for i := uint64(0); i < 3; i++ {
		q.Push(New(0, 1, i, 1))
	}
	tk, ok := q.PopTail(1)
	if !ok || tk.Addr != 2 {
		t.Fatalf("PopTail = %v, %v; want addr 2", tk.Addr, ok)
	}
	// Head unaffected.
	tk, _ = q.Pop(1)
	if tk.Addr != 0 {
		t.Fatalf("Pop after PopTail = %v, want 0", tk.Addr)
	}
}

func TestQueueLenEpoch(t *testing.T) {
	q := NewQueue()
	q.Push(New(0, 3, 0, 1))
	q.Push(New(0, 3, 1, 1))
	if q.LenEpoch(3) != 2 || q.LenEpoch(4) != 0 {
		t.Error("LenEpoch wrong")
	}
	if q.Len() != 2 {
		t.Error("Len wrong")
	}
}

func TestQueueCompaction(t *testing.T) {
	// Push and pop enough to trigger internal compaction; FIFO order must
	// survive.
	q := NewQueue()
	const n = 1000
	next := uint64(0)
	pushed := uint64(0)
	for pushed < n {
		q.Push(New(0, 1, pushed, 1))
		pushed++
		if pushed%3 == 0 {
			tk, ok := q.Pop(1)
			if !ok || tk.Addr != next {
				t.Fatalf("order broken at %d: got %d", next, tk.Addr)
			}
			next++
		}
	}
	for {
		tk, ok := q.Pop(1)
		if !ok {
			break
		}
		if tk.Addr != next {
			t.Fatalf("order broken at %d: got %d", next, tk.Addr)
		}
		next++
	}
	if next != n {
		t.Fatalf("drained %d, want %d", next, n)
	}
}

// Property: workload sum always equals the sum of effective workloads of the
// tasks currently in the queue, under any interleaving of pushes and pops.
func TestQueueWorkloadInvariantProperty(t *testing.T) {
	f := func(ops []uint8, loads []uint8) bool {
		q := NewQueue()
		var model []Task
		li := 0
		for _, op := range ops {
			switch op % 3 {
			case 0: // push
				var w uint32
				if li < len(loads) {
					w = uint32(loads[li])
					li++
				}
				tk := New(0, 1, uint64(li), w)
				q.Push(tk)
				model = append(model, tk)
			case 1: // pop head
				tk, ok := q.Pop(1)
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if tk != model[0] {
						return false
					}
					model = model[1:]
				}
			case 2: // pop tail
				tk, ok := q.PopTail(1)
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if tk != model[len(model)-1] {
						return false
					}
					model = model[:len(model)-1]
				}
			}
			var want uint64
			for _, m := range model {
				want += m.EffectiveWorkload()
			}
			if q.Workload(1) != want || q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQueueDrainAll(t *testing.T) {
	q := NewQueue()
	if got := q.DrainAll(); got != nil {
		t.Fatalf("empty drain = %v", got)
	}
	q.Push(New(0, 1, 0x10, 1))
	q.Push(New(0, 0, 0x20, 1))
	q.Push(New(0, 0, 0x30, 1))
	q.Push(New(0, 1, 0x40, 1))
	ts := q.DrainAll()
	if len(ts) != 4 {
		t.Fatalf("drained %d, want 4", len(ts))
	}
	want := []uint64{0x20, 0x30, 0x10, 0x40} // epoch 0 FIFO, then epoch 1 FIFO
	for i, tk := range ts {
		if tk.Addr != want[i] {
			t.Fatalf("order: got %#x at %d, want %#x", tk.Addr, i, want[i])
		}
	}
	if q.Len() != 0 || q.TotalWorkload() != 0 {
		t.Fatal("queue not empty after DrainAll")
	}
}

// TestQueueOutOfOrderEpochs pushes epochs 5, 3, 4 interleaved and checks
// that every multi-epoch view — DrainAll, the snapshot stream and PopTail —
// sees epochs in ascending order with FIFO order inside each, including
// after an epoch empties and refills.
func TestQueueOutOfOrderEpochs(t *testing.T) {
	fill := func() *Queue {
		q := NewQueue()
		for i, ts := range []uint32{5, 3, 4, 5, 3, 4} {
			q.Push(New(0, ts, uint64(ts)<<8|uint64(i), 1))
		}
		return q
	}
	want := []uint64{3<<8 | 1, 3<<8 | 4, 4<<8 | 2, 4<<8 | 5, 5<<8 | 0, 5<<8 | 3}
	check := func(name string, got []Task) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d tasks, want %d", name, len(got), len(want))
		}
		for i, tk := range got {
			if tk.Addr != want[i] {
				t.Fatalf("%s: task %d is %#x, want %#x", name, i, tk.Addr, want[i])
			}
		}
	}

	check("DrainAll", fill().DrainAll())

	// The snapshot lists epochs in ascending order, and a restored queue
	// drains identically.
	q := fill()
	var e checkpoint.Enc
	q.SnapshotTo(&e)
	d := checkpoint.NewDec(e.Data())
	if n := d.U32(); n != 3 {
		t.Fatalf("snapshot holds %d epochs, want 3", n)
	}
	for _, ts := range []uint32{3, 4, 5} {
		if got := d.U32(); got != ts {
			t.Fatalf("snapshot epoch %d, want %d", got, ts)
		}
		cnt := d.U32()
		for j := uint32(0); j < cnt; j++ {
			DecodeTask(d)
		}
	}
	r := NewQueue()
	if err := r.RestoreFrom(checkpoint.NewDec(e.Data())); err != nil {
		t.Fatal(err)
	}
	check("restored DrainAll", r.DrainAll())

	// PopTail takes the newest task of the named epoch only.
	q = fill()
	if tk, ok := q.PopTail(4); !ok || tk.Addr != 4<<8|5 {
		t.Fatalf("PopTail(4) = %#x, %v", tk.Addr, ok)
	}
	if tk, ok := q.PopTail(4); !ok || tk.Addr != 4<<8|2 {
		t.Fatalf("second PopTail(4) = %#x, %v", tk.Addr, ok)
	}
	if _, ok := q.PopTail(4); ok || q.LenEpoch(4) != 0 {
		t.Fatal("epoch 4 not empty after two PopTails")
	}
	// An emptied epoch is not encoded, and a later push refills it in
	// place, between epochs 3 and 5.
	e = checkpoint.Enc{}
	q.SnapshotTo(&e)
	if n := checkpoint.NewDec(e.Data()).U32(); n != 2 {
		t.Fatalf("snapshot holds %d epochs after epoch 4 emptied, want 2", n)
	}
	q.Push(New(0, 4, 4<<8|9, 1))
	want = []uint64{3<<8 | 1, 3<<8 | 4, 4<<8 | 9, 5<<8 | 0, 5<<8 | 3}
	check("DrainAll after reuse", q.DrainAll())
}

// TestQueuePrunesEmptyEpochs: epochs that empty stay live until a new epoch
// arrives, which prunes them, so the live list stays as short as the set of
// epochs holding tasks.
func TestQueuePrunesEmptyEpochs(t *testing.T) {
	q := NewQueue()
	for ts := uint32(0); ts < 100; ts++ {
		q.Push(New(0, ts, uint64(ts), 1))
		if _, ok := q.Pop(ts); !ok {
			t.Fatalf("epoch %d: pop failed", ts)
		}
		if len(q.live) > 1 {
			t.Fatalf("epoch %d: %d FIFOs live, want at most 1", ts, len(q.live))
		}
	}
	if q.Len() != 0 || q.DrainAll() != nil {
		t.Fatal("queue not empty")
	}
}
