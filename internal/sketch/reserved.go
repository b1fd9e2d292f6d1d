package sketch

import (
	"math/bits"

	"ndpbridge/internal/task"
)

// ReservedQueue is the in-DRAM reserved task queue of Section VI-C. Tasks on
// sketch-tracked blocks are held here, organized in G_xfer-sized chunks: each
// tracked block gets an initial chunk, and overflow chunks are allocated from
// a bitmap-managed pool to form a per-block linked list. When the pool is
// exhausted, new tasks fall back to the normal task queue (the caller handles
// the false return).
//
// Block lists live in a slab indexed by a power-of-two open-addressed table
// (linear probing, backward-shift deletion), so the per-task Add/TakeAppend
// path does no map work and emptied lists keep their task arrays for the
// next block. order records each block when it gains a list; taking a block
// leaves its order entry behind (stale) until compaction, which runs when a
// new block arrives and order is longer than 2·live+64. Drain order depends
// on those stale entries: a block taken and re-added keeps its earlier order
// position and is drained there, not at its re-add position.
//ndplint:domain(perowner)
type ReservedQueue struct {
	chunkTasks  int // tasks per chunk (G_xfer / task record size)
	freeChunks  int
	totalChunks int
	total       int //ndplint:nosnap derived; summed task count, rebuilt on restore

	lists []blockList // slab; an entry is live while its index is in index
	// free stacks emptied slab entries, which keep their task arrays for
	// reuse when blocks churn through the queue.
	free  []int32  //ndplint:nosnap free-list of empty slab entries, no logical state
	index []int32  // open-addressed block → slab index+1 (0: empty slot), allocated on first Add
	order []uint64 // insertion order, for deterministic Drain
}

type blockList struct {
	block  uint64
	tasks  []task.Task
	chunks int
}

// minIndex is the size of the block index when the first block arrives.
const minIndex = 16

// NewReservedQueue manages totalChunks chunks of chunkTasks tasks each.
func NewReservedQueue(totalChunks, chunkTasks int) *ReservedQueue {
	if totalChunks <= 0 || chunkTasks <= 0 {
		panic("sketch: reserved queue shape must be positive")
	}
	return &ReservedQueue{
		chunkTasks:  chunkTasks,
		freeChunks:  totalChunks,
		totalChunks: totalChunks,
	}
}

// live returns the number of blocks holding a list.
func (r *ReservedQueue) live() int { return len(r.lists) - len(r.free) }

// home returns block's preferred index slot (Fibonacci hashing on the top
// bits, so G_xfer-aligned addresses spread over the table).
func (r *ReservedQueue) home(block uint64) int {
	return int((block * 0x9e3779b97f4a7c15) >> (64 - bits.TrailingZeros(uint(len(r.index)))))
}

// find returns the index slot holding block and its slab index, or -1, -1.
//
//ndplint:hotpath
func (r *ReservedQueue) find(block uint64) (at, li int) {
	if len(r.index) == 0 {
		return -1, -1
	}
	mask := len(r.index) - 1
	for i := r.home(block); ; i = (i + 1) & mask {
		v := r.index[i]
		if v == 0 {
			return -1, -1
		}
		if r.lists[v-1].block == block {
			return i, int(v - 1)
		}
	}
}

// insert gives block (not yet present) a slab entry with one chunk and
// indexes it, returning the slab index. The index doubles before its load
// would exceed one half.
func (r *ReservedQueue) insert(block uint64) int {
	if 2*(r.live()+1) > len(r.index) {
		r.grow()
	}
	var li int
	if n := len(r.free); n > 0 {
		li = int(r.free[n-1])
		r.free = r.free[:n-1]
	} else {
		r.lists = append(r.lists, blockList{})
		li = len(r.lists) - 1
	}
	bl := &r.lists[li]
	bl.block = block
	bl.chunks = 1
	r.place(block, li)
	return li
}

// place stores slab index li at block's first empty probe slot.
func (r *ReservedQueue) place(block uint64, li int) {
	mask := len(r.index) - 1
	i := r.home(block)
	for r.index[i] != 0 {
		i = (i + 1) & mask
	}
	r.index[i] = int32(li + 1)
}

// grow doubles the index (or allocates the first one) and re-places every
// indexed block.
func (r *ReservedQueue) grow() {
	old := r.index
	n := 2 * len(old)
	if n < minIndex {
		n = minIndex
	}
	r.index = make([]int32, n)
	for _, v := range old {
		if v != 0 {
			r.place(r.lists[v-1].block, int(v-1))
		}
	}
}

// unindex empties index slot i by backward-shift deletion: later entries of
// the probe run move up into the hole unless their home slot lies
// cyclically after it, so lookups never meet a tombstone.
//
//ndplint:hotpath
func (r *ReservedQueue) unindex(i int) {
	mask := len(r.index) - 1
	for j := (i + 1) & mask; r.index[j] != 0; j = (j + 1) & mask {
		h := r.home(r.lists[r.index[j]-1].block)
		// The entry at j may fill the hole at i only if its home is not
		// in the cyclic interval (i, j].
		if i <= j {
			if i < h && h <= j {
				continue
			}
		} else if i < h || h <= j {
			continue
		}
		r.index[i] = r.index[j]
		i = j
	}
	r.index[i] = 0
}

// Add appends a task under its block. It returns false when no chunk space
// is available, in which case the task belongs in the normal queue.
//
//ndplint:hotpath
func (r *ReservedQueue) Add(block uint64, t task.Task) bool {
	_, li := r.find(block)
	if li < 0 {
		if r.freeChunks == 0 {
			return false
		}
		li = r.insert(block)
		r.freeChunks--
		if len(r.order) > 2*r.live()+64 {
			// Compact out blocks already taken.
			kept := r.order[:0]
			for _, b := range r.order {
				if _, l := r.find(b); l >= 0 {
					kept = append(kept, b)
				}
			}
			r.order = kept
		}
		r.order = append(r.order, block)
	}
	bl := &r.lists[li]
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

// TakeAppend appends block's reserved tasks to dst, frees its chunks, and
// parks the emptied storage for reuse. It returns dst (possibly regrown);
// dst is returned unchanged when the block has no reservation.
//
//ndplint:hotpath
func (r *ReservedQueue) TakeAppend(dst []task.Task, block uint64) []task.Task {
	at, li := r.find(block)
	if li < 0 {
		return dst
	}
	r.unindex(at)
	bl := &r.lists[li]
	r.freeChunks += bl.chunks
	r.total -= len(bl.tasks)
	dst = append(dst, bl.tasks...)
	bl.tasks = bl.tasks[:0]
	bl.chunks = 0
	r.free = append(r.free, int32(li))
	return dst
}

// Drain removes and returns all reserved tasks of every block in insertion
// order, freeing all chunks. Used when falling back or finishing an epoch.
func (r *ReservedQueue) Drain() []task.Task {
	return r.DrainAppend(nil)
}

// DrainAppend is Drain appending into a caller-supplied buffer, recycling
// all internal storage. Each block drains at its first order position.
func (r *ReservedQueue) DrainAppend(dst []task.Task) []task.Task {
	for _, b := range r.order {
		dst = r.TakeAppend(dst, b)
	}
	r.order = r.order[:0]
	return dst
}

// Len returns the number of reserved tasks of block.
func (r *ReservedQueue) Len(block uint64) int {
	if _, li := r.find(block); li >= 0 {
		return len(r.lists[li].tasks)
	}
	return 0
}

// Total returns the number of reserved tasks across all blocks.
//
//ndplint:hotpath
func (r *ReservedQueue) Total() int { return r.total }

// FreeChunks returns the unallocated chunk count.
func (r *ReservedQueue) FreeChunks() int { return r.freeChunks }

// Workload sums effective workloads of the tasks reserved under block.
func (r *ReservedQueue) Workload(block uint64) uint64 {
	_, li := r.find(block)
	if li < 0 {
		return 0
	}
	var w uint64
	for _, t := range r.lists[li].tasks {
		w += t.EffectiveWorkload()
	}
	return w
}
