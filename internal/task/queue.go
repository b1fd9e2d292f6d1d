package task

// Queue is a FIFO task queue that tracks the summed workload estimate of its
// contents — the W_queue state reported to bridges (Section V-B). Tasks of
// different bulk-sync epochs are kept in per-epoch FIFOs so a unit never
// executes an epoch-(e+1) task while epoch-e tasks remain.
//
// The queue also supports popping from the tail, which traditional work
// stealing uses to select victim tasks (Section VI-C).
//
// Bulk-synchronous execution keeps only a few epochs live at once, so the
// per-epoch FIFOs sit in a short slice in ascending epoch order and are found
// by a linear scan. A FIFO that empties stays in place, so a unit whose queue
// drains and refills within one epoch reuses it; empty FIFOs are pruned only
// when a new epoch arrives.
//ndplint:domain(perowner)
type Queue struct {
	// live holds the epochs in ascending epoch order; some may be empty.
	// Slots between len and cap hold pruned FIFOs whose backing arrays the
	// next new epoch reuses instead of reallocating and regrowing them.
	live []epochFIFO
	size int //ndplint:nosnap derived; recomputed by RestoreFrom via Push
}

type epochFIFO struct {
	ts uint32
	fifo
}

type fifo struct {
	items    []Task
	head     int
	workload uint64
}

func (f *fifo) len() int { return len(f.items) - f.head }

func (f *fifo) push(t Task) {
	f.items = append(f.items, t)
	f.workload += t.EffectiveWorkload()
}

func (f *fifo) pop() Task {
	t := f.items[f.head]
	f.items[f.head] = Task{}
	f.head++
	f.workload -= t.EffectiveWorkload()
	if f.head == len(f.items) {
		f.items, f.head = f.items[:0], 0
	} else if f.head > 64 && f.head*2 >= len(f.items) {
		n := copy(f.items, f.items[f.head:])
		f.items = f.items[:n]
		f.head = 0
	}
	return t
}

func (f *fifo) popTail() Task {
	t := f.items[len(f.items)-1]
	f.items[len(f.items)-1] = Task{}
	f.items = f.items[:len(f.items)-1]
	f.workload -= t.EffectiveWorkload()
	return t
}

// NewQueue returns an empty queue.
func NewQueue() *Queue { return &Queue{} }

// find returns the position of epoch ts in live, or -1.
func (q *Queue) find(ts uint32) int {
	for i := range q.live {
		if q.live[i].ts >= ts {
			if q.live[i].ts == ts {
				return i
			}
			break
		}
	}
	return -1
}

// open prunes the empty FIFOs and inserts one for epoch ts, which must not
// be live, at its ordered position. Pruned FIFOs are parked past len(live)
// with their storage, and the new one reuses a parked FIFO's storage.
func (q *Queue) open(ts uint32) *fifo {
	n := 0
	for i := range q.live {
		if q.live[i].len() > 0 {
			q.live[n], q.live[i] = q.live[i], q.live[n]
			n++
		}
	}
	q.live = q.live[:n]
	if n < cap(q.live) {
		q.live = q.live[:n+1]
	} else {
		q.live = append(q.live, epochFIFO{})
	}
	spare := q.live[n]
	spare.ts, spare.items, spare.head, spare.workload = ts, spare.items[:0], 0, 0
	i := 0
	for i < n && q.live[i].ts < ts {
		i++
	}
	copy(q.live[i+1:], q.live[i:n])
	q.live[i] = spare
	return &q.live[i].fifo
}

// Push appends a task to its epoch's FIFO.
func (q *Queue) Push(t Task) {
	var f *fifo
	if i := q.find(t.TS); i >= 0 {
		f = &q.live[i].fifo
	} else {
		f = q.open(t.TS)
	}
	f.push(t)
	q.size++
}

// Pop removes the oldest task of epoch ts. It returns false if none exists.
func (q *Queue) Pop(ts uint32) (Task, bool) {
	f := q.nonEmpty(ts)
	if f == nil {
		return Task{}, false
	}
	q.size--
	return f.pop(), true
}

// PopTail removes the newest task of epoch ts (work-stealing victim side).
func (q *Queue) PopTail(ts uint32) (Task, bool) {
	f := q.nonEmpty(ts)
	if f == nil {
		return Task{}, false
	}
	q.size--
	return f.popTail(), true
}

// nonEmpty returns epoch ts's FIFO, or nil when it holds no task.
func (q *Queue) nonEmpty(ts uint32) *fifo {
	if q.size == 0 {
		return nil
	}
	if i := q.find(ts); i >= 0 && q.live[i].len() > 0 {
		return &q.live[i].fifo
	}
	return nil
}

// Len returns the total queued tasks across epochs.
func (q *Queue) Len() int { return q.size }

// LenEpoch returns the number of queued tasks of epoch ts.
func (q *Queue) LenEpoch(ts uint32) int {
	if f := q.nonEmpty(ts); f != nil {
		return f.len()
	}
	return 0
}

// Workload returns the summed workload estimate of epoch ts — the W_queue
// value reported in state messages.
func (q *Queue) Workload(ts uint32) uint64 {
	if f := q.nonEmpty(ts); f != nil {
		return f.workload
	}
	return 0
}

// DrainAll removes and returns every queued task across all epochs, oldest
// first within each epoch and epochs in ascending order. Used by fault
// recovery to evacuate a dead unit's queue for re-spawning elsewhere.
func (q *Queue) DrainAll() []Task {
	if q.size == 0 {
		return nil
	}
	out := make([]Task, 0, q.size)
	for i := range q.live {
		f := &q.live[i]
		out = append(out, f.items[f.head:]...)
	}
	q.reset()
	return out
}

// reset empties the queue, parking every FIFO with its storage.
func (q *Queue) reset() {
	for i := range q.live {
		f := &q.live[i]
		clear(f.items)
		f.items, f.head, f.workload = f.items[:0], 0, 0
	}
	q.live = q.live[:0]
	q.size = 0
}

// TotalWorkload sums workload across all epochs.
func (q *Queue) TotalWorkload() uint64 {
	var w uint64
	for i := range q.live {
		w += q.live[i].workload
	}
	return w
}
