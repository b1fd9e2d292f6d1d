package msg

import (
	"math/rand"
	"testing"

	"ndpbridge/internal/task"
)

// fifoMsg builds a task message of wire size HeaderSize+19+8*nargs, so
// queues in these tests hold a mix of sizes.
func fifoMsg(id int, nargs uint8) *Message {
	return &Message{Type: TypeTask, Src: id, Task: task.Task{NArgs: nargs}}
}

// TestFIFOModel drives a FIFO and a plain slice through the same random mix
// of Push, PushFront, Pop and DrainUpTo, long enough to compact many times,
// and checks order, Len and Bytes after every step.
func TestFIFOModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var f FIFO
	var model []*Message
	bytes := func() uint64 {
		var n uint64
		for _, m := range model {
			n += m.Size()
		}
		return n
	}
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			m := fifoMsg(step, uint8(rng.Intn(task.MaxArgs+1)))
			f.Push(m)
			model = append(model, m)
		case op == 5:
			m := fifoMsg(step, uint8(rng.Intn(task.MaxArgs+1)))
			f.PushFront(m)
			model = append([]*Message{m}, model...)
		case op < 9:
			if len(model) == 0 {
				if f.Len() != 0 {
					t.Fatalf("step %d: model empty, FIFO holds %d", step, f.Len())
				}
				continue
			}
			if m, s, _ := f.Head(); m != model[0] || s != model[0].Size() {
				t.Fatalf("step %d: Head size %d, want %d", step, s, model[0].Size())
			}
			if got := f.Pop(); got != model[0] {
				t.Fatalf("step %d: Pop returned message %d, want %d", step, got.Src, model[0].Src)
			}
			model = model[1:]
		default:
			budget := uint64(rng.Intn(256))
			got, n := f.DrainUpTo(nil, budget)
			var want []*Message
			var used uint64
			for len(model) > 0 {
				s := model[0].Size()
				if used > 0 && used+s > budget {
					break
				}
				want, model, used = append(want, model[0]), model[1:], used+s
				if used >= budget {
					break
				}
			}
			if n != used || len(got) != len(want) {
				t.Fatalf("step %d: DrainUpTo(%d) took %d msgs/%d B, want %d/%d", step, budget, len(got), n, len(want), used)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d: drained message %d differs", step, i)
				}
			}
		}
		if f.Len() != len(model) || f.Bytes() != bytes() {
			t.Fatalf("step %d: Len %d Bytes %d, want %d %d", step, f.Len(), f.Bytes(), len(model), bytes())
		}
	}
	msgs := f.Msgs()
	for i := range model {
		if msgs[i] != model[i] {
			t.Fatalf("Msgs()[%d] differs from the model", i)
		}
	}
}

// TestFIFOCompaction pops more than 64 messages from a queue that never
// empties, so the head is compacted down, and checks order and byte
// accounting survive it.
func TestFIFOCompaction(t *testing.T) {
	var f FIFO
	next, want := 0, 0
	for i := 0; i < 100; i++ {
		f.Push(fifoMsg(next, uint8(next%3)))
		next++
	}
	for round := 0; round < 5; round++ {
		for i := 0; i < 70; i++ {
			if m := f.Pop(); m.Src != want {
				t.Fatalf("round %d: popped %d, want %d", round, m.Src, want)
			}
			want++
		}
		for i := 0; i < 70; i++ {
			f.Push(fifoMsg(next, uint8(next%3)))
			next++
		}
		if f.head > 64 {
			t.Fatalf("round %d: head %d not compacted", round, f.head)
		}
		if rec, re := f.CheckBytes(); rec != re {
			t.Fatalf("round %d: recorded %d B, recomputed %d B", round, rec, re)
		}
	}
}

func TestFIFORemoveIfAndReset(t *testing.T) {
	var f FIFO
	for i := 0; i < 10; i++ {
		f.Push(fifoMsg(i, uint8(i%4)))
	}
	f.Pop()
	lost := f.RemoveIf(nil, func(m *Message) bool { return m.Src%2 == 0 })
	if len(lost) != 4 || lost[0].Src != 2 || lost[3].Src != 8 {
		t.Fatalf("RemoveIf took %d messages starting %d", len(lost), lost[0].Src)
	}
	for i, m := range f.Msgs() {
		if m.Src != 2*i+1 {
			t.Fatalf("kept message %d is %d, want %d", i, m.Src, 2*i+1)
		}
	}
	if rec, re := f.CheckBytes(); rec != re || rec != f.Bytes() {
		t.Fatalf("after RemoveIf: recorded %d B, recomputed %d B", rec, re)
	}
	f.Reset()
	if f.Len() != 0 || f.Bytes() != 0 {
		t.Fatalf("after Reset: Len %d Bytes %d", f.Len(), f.Bytes())
	}
}

// TestFIFOCheckBytesDetectsResize: a message whose size changes while it is
// queued shows up as a recorded/recomputed mismatch.
func TestFIFOCheckBytesDetectsResize(t *testing.T) {
	var f FIFO
	m := fifoMsg(0, 0)
	f.Push(m)
	m.Task.NArgs = 2
	if rec, re := f.CheckBytes(); rec == re {
		t.Fatalf("resize not detected: %d B both ways", rec)
	}
}

// TestMessageSizeFitsFIFO: FIFO records sizes as uint8, so no message type
// may exceed MaxSize on the wire.
func TestMessageSizeFitsFIFO(t *testing.T) {
	ms := []*Message{
		{Type: TypeTask, Task: task.Task{NArgs: task.MaxArgs}},
		{Type: TypeState, State: &State{SchedList: make([]SchedOut, 16)}},
		{Type: 0},
	}
	ms = append(ms, SplitData(0, 1, 0, 4096)...)
	for _, m := range ms {
		if s := m.Size(); s > MaxSize {
			t.Errorf("%v message: %d B exceeds MaxSize %d", m.Type, s, MaxSize)
		}
	}
}

// TestFIFOReleasePolicy: a queue refilled to the same depth reuses its
// array, while one whose fills shrink well below a past burst gives the
// burst's array back once it drains.
func TestFIFOReleasePolicy(t *testing.T) {
	ms := make([]*Message, 4*retainCap)
	for i := range ms {
		ms[i] = fifoMsg(i, 0)
	}
	fill := func(f *FIFO, n int) {
		for _, m := range ms[:n] {
			f.Push(m)
		}
		for f.Len() > 0 {
			f.Pop()
		}
	}
	var f FIFO
	fill(&f, len(ms))
	if allocs := testing.AllocsPerRun(10, func() { fill(&f, len(ms)) }); allocs != 0 {
		t.Errorf("refilling to the same depth allocates %.1f times", allocs)
	}
	fill(&f, 1) // the latest fill used a quarter of the array or less
	if c := cap(f.msgs); c > retainCap {
		t.Errorf("capacity %d kept after a shallow fill, want at most %d", c, retainCap)
	}
}
