package sketch

import (
	"bytes"
	"fmt"
	"testing"

	"ndpbridge/internal/checkpoint"
	"ndpbridge/internal/sim"
	"ndpbridge/internal/task"
)

// refQueue is the reserved queue as a Go map of block lists, with the same
// order slice and compaction rule. It is the reference the slab-and-index
// ReservedQueue must match step for step.
type refQueue struct {
	chunkTasks, freeChunks, totalChunks, total int

	blocks map[uint64]*refList
	order  []uint64
}

type refList struct {
	tasks  []task.Task
	chunks int
}

func newRefQueue(totalChunks, chunkTasks int) *refQueue {
	return &refQueue{chunkTasks: chunkTasks, freeChunks: totalChunks, totalChunks: totalChunks,
		blocks: map[uint64]*refList{}}
}

func (r *refQueue) Add(block uint64, t task.Task) bool {
	bl := r.blocks[block]
	if bl == nil {
		if r.freeChunks == 0 {
			return false
		}
		bl = &refList{chunks: 1}
		r.freeChunks--
		r.blocks[block] = bl
		if len(r.order) > 2*len(r.blocks)+64 {
			kept := r.order[:0]
			for _, b := range r.order {
				if _, ok := r.blocks[b]; ok {
					kept = append(kept, b)
				}
			}
			r.order = kept
		}
		r.order = append(r.order, block)
	}
	if len(bl.tasks) == bl.chunks*r.chunkTasks {
		if r.freeChunks == 0 {
			return false
		}
		bl.chunks++
		r.freeChunks--
	}
	bl.tasks = append(bl.tasks, t)
	r.total++
	return true
}

func (r *refQueue) TakeAppend(dst []task.Task, block uint64) []task.Task {
	bl := r.blocks[block]
	if bl == nil {
		return dst
	}
	delete(r.blocks, block)
	r.freeChunks += bl.chunks
	r.total -= len(bl.tasks)
	return append(dst, bl.tasks...)
}

func (r *refQueue) DrainAppend(dst []task.Task) []task.Task {
	for _, b := range r.order {
		dst = r.TakeAppend(dst, b)
	}
	r.order = r.order[:0]
	return dst
}

func (r *refQueue) Len(block uint64) int {
	if bl := r.blocks[block]; bl != nil {
		return len(bl.tasks)
	}
	return 0
}

// SnapshotTo writes ReservedQueue's format: each live block once, at its
// first order position.
func (r *refQueue) SnapshotTo(e *checkpoint.Enc) {
	e.I64(int64(r.chunkTasks))
	e.I64(int64(r.totalChunks))
	e.I64(int64(r.freeChunks))
	e.U32(uint32(len(r.blocks)))
	written := map[uint64]bool{}
	for _, b := range r.order {
		bl, ok := r.blocks[b]
		if !ok || written[b] {
			continue
		}
		written[b] = true
		e.U64(b)
		e.I64(int64(bl.chunks))
		e.U32(uint32(len(bl.tasks)))
		for _, t := range bl.tasks {
			task.EncodeTask(e, t)
		}
	}
}

// blocksHomedAt returns n G_xfer-aligned block addresses whose home slot in
// an index of size 16 is at.
func blocksHomedAt(at, n int) []uint64 {
	probe := &ReservedQueue{index: make([]int32, minIndex)}
	var out []uint64
	for b := uint64(256); len(out) < n; b += 256 {
		if probe.home(b) == at {
			out = append(out, b)
		}
	}
	return out
}

func sameTasks(a, b []task.Task) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func snapBytes(s interface{ SnapshotTo(*checkpoint.Enc) }) []byte {
	var e checkpoint.Enc
	s.SnapshotTo(&e)
	return e.Data()
}

// TestReservedQueueMatchesMapReference drives the slab-and-index queue and
// the map reference with the same random Add/TakeAppend/DrainAppend
// sequences and compares every observable after every step.
func TestReservedQueueMatchesMapReference(t *testing.T) {
	// Block pools: a few blocks (small chunk counts, frequent exhaustion
	// and re-adds, order compaction), many blocks (index growth), and
	// blocks homed at the last and first index slots, so probe runs wrap
	// around the table end and backward-shift deletion crosses it.
	var few, many []uint64
	for i := uint64(1); i <= 5; i++ {
		few = append(few, i<<8)
	}
	for i := uint64(1); i <= 40; i++ {
		many = append(many, i<<8)
	}
	wrap := append(append(blocksHomedAt(15, 4), blocksHomedAt(14, 2)...), blocksHomedAt(0, 2)...)
	// drain is the per-mille rate of DrainAppend steps; the rare-drain
	// pool lets order grow past the compaction threshold between drains.
	pools := []struct {
		name                    string
		blocks                  []uint64
		totalChunks, chunkTasks int
		drain                   int
	}{
		{"few", few, 4, 2, 30},
		{"few-tight", few, 2, 1, 30},
		{"few-rare-drain", few, 8, 2, 2},
		{"many", many, 64, 3, 30},
		{"wrap", wrap, 16, 2, 30},
	}
	for _, p := range pools {
		for seed := uint64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", p.name, seed), func(t *testing.T) {
				rng := sim.NewRNG(seed)
				q := NewReservedQueue(p.totalChunks, p.chunkTasks)
				ref := newRefQueue(p.totalChunks, p.chunkTasks)
				var got, want []task.Task
				for step := 0; step < 3000; step++ {
					b := p.blocks[rng.Intn(len(p.blocks))]
					switch op := rng.Intn(1000); {
					case op < 600:
						tk := task.Task{TS: 1, Addr: b + uint64(step%256), Workload: uint32(step)}
						if g, w := q.Add(b, tk), ref.Add(b, tk); g != w {
							t.Fatalf("step %d: Add(%#x) = %v, reference %v", step, b, g, w)
						}
					case op < 1000-p.drain:
						got = q.TakeAppend(got[:0], b)
						want = ref.TakeAppend(want[:0], b)
						if !sameTasks(got, want) {
							t.Fatalf("step %d: TakeAppend(%#x) = %v, reference %v", step, b, got, want)
						}
					default:
						got = q.DrainAppend(got[:0])
						want = ref.DrainAppend(want[:0])
						if !sameTasks(got, want) {
							t.Fatalf("step %d: DrainAppend = %v, reference %v", step, got, want)
						}
					}
					if q.Total() != ref.total || q.FreeChunks() != ref.freeChunks {
						t.Fatalf("step %d: total=%d free=%d, reference %d, %d",
							step, q.Total(), q.FreeChunks(), ref.total, ref.freeChunks)
					}
					if q.Len(b) != ref.Len(b) {
						t.Fatalf("step %d: Len(%#x) = %d, reference %d", step, b, q.Len(b), ref.Len(b))
					}
					if !bytes.Equal(snapBytes(q), snapBytes(ref)) {
						t.Fatalf("step %d: snapshot bytes differ from the reference", step)
					}
				}
				if p.name == "many" && len(q.index) <= minIndex {
					t.Errorf("index never grew: %d slots", len(q.index))
				}
			})
		}
	}
}

// TestReservedIndexWrapsAndShifts fills one probe run across the end of the
// index and empties it in an order that moves entries back over the wrap.
func TestReservedIndexWrapsAndShifts(t *testing.T) {
	blocks := append(blocksHomedAt(15, 3), blocksHomedAt(0, 2)...)
	q := NewReservedQueue(16, 1)
	for i, b := range blocks {
		if !q.Add(b, task.Task{Addr: uint64(i)}) {
			t.Fatalf("Add %d failed", i)
		}
	}
	if len(q.index) != minIndex {
		t.Fatalf("index has %d slots, want %d", len(q.index), minIndex)
	}
	taken := map[uint64]bool{}
	for _, b := range []uint64{blocks[0], blocks[3], blocks[1]} {
		if got := q.TakeAppend(nil, b); len(got) != 1 {
			t.Fatalf("TakeAppend(%#x) returned %d tasks", b, len(got))
		}
		taken[b] = true
		for _, other := range blocks {
			_, li := q.find(other)
			if (li >= 0) == taken[other] {
				t.Fatalf("after taking %#x: find(%#x) = %d, taken %v", b, other, li, taken[other])
			}
			if li >= 0 && q.lists[li].block != other {
				t.Fatalf("find(%#x) points at the list of %#x", other, q.lists[li].block)
			}
		}
	}
	for i, b := range blocks {
		want := 0
		if i == 2 || i == 4 {
			want = 1
		}
		if q.Len(b) != want {
			t.Errorf("Len(block %d) = %d, want %d", i, q.Len(b), want)
		}
	}
}

// TestReservedDrainKeepsStaleOrder pins the drain-order rule: a block taken
// and re-added drains at its first order position, ahead of blocks added in
// between.
func TestReservedDrainKeepsStaleOrder(t *testing.T) {
	q := NewReservedQueue(8, 4)
	q.Add(0xa00, task.Task{Addr: 1})
	q.Add(0xb00, task.Task{Addr: 2})
	q.TakeAppend(nil, 0xa00)
	q.Add(0xa00, task.Task{Addr: 3})
	got := q.Drain()
	if len(got) != 2 || got[0].Addr != 3 || got[1].Addr != 2 {
		t.Errorf("Drain = %v, want block 0xa00's task 3 before block 0xb00's task 2", got)
	}
}

// bruteHottest is Hottest as a scan of every entry: the first strict
// maximum in bucket-then-slot order.
func bruteHottest(s *Sketch) (Entry, bool) {
	var best Entry
	found := false
	for _, b := range s.table {
		for _, e := range b {
			if !found || e.Workload > best.Workload {
				best, found = e, true
			}
		}
	}
	return best, found
}

// TestSketchHottestMatchesScan checks the per-bucket maxima against a full
// scan over random Observe/Remove/Reset/RestoreFrom sequences on sketches
// small enough that buckets fill and entries decay and get replaced.
func TestSketchHottestMatchesScan(t *testing.T) {
	for buckets := 2; buckets <= 4; buckets++ {
		for seed := uint64(1); seed <= 6; seed++ {
			rng := sim.NewRNG(seed * 97)
			s := New(buckets, 3, 1.08, sim.NewRNG(seed))
			var saved []byte
			decays := uint64(0)
			for step := 0; step < 4000; step++ {
				addr := uint64(rng.Intn(24)) << 8
				switch op := rng.Intn(1000); {
				case op < 850:
					tracked := s.Observe(addr, uint64(rng.Intn(6)))
					if _, ok := s.Lookup(addr); ok != tracked {
						t.Fatalf("buckets=%d seed=%d step %d: Observe = %v, Lookup after = %v", buckets, seed, step, tracked, ok)
					}
				case op < 980:
					s.Remove(addr)
				case op < 985:
					decays += s.decays
					s.Reset()
				case op < 993:
					saved = snapBytes(s)
				default:
					if saved != nil {
						if err := s.RestoreFrom(checkpoint.NewDec(saved)); err != nil {
							t.Fatal(err)
						}
					}
				}
				g, gok := s.Hottest()
				w, wok := bruteHottest(s)
				if g != w || gok != wok {
					t.Fatalf("buckets=%d seed=%d step %d: Hottest = %+v,%v, scan %+v,%v", buckets, seed, step, g, gok, w, wok)
				}
			}
			if decays+s.decays == 0 {
				t.Errorf("buckets=%d seed=%d: no decay exercised", buckets, seed)
			}
		}
	}
}
