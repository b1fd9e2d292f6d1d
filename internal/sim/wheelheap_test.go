package sim

import (
	"cmp"
	"slices"
	"testing"
)

// firing is one event of a recorded schedule: its schedule-order id and its
// time (the target time when scheduled, the clock when fired).
type firing struct {
	id int
	at Cycles
}

// scheduleOrder sorts a schedule into the engine's contract order: by time,
// then by the order the events were scheduled in.
func scheduleOrder(sched []firing) []firing {
	want := slices.Clone(sched)
	slices.SortFunc(want, func(a, b firing) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	return want
}

// runRandomSchedule drives an engine with a self-expanding random workload:
// every fired event may schedule children at deltas drawn by delta. Ids are
// handed out in schedule order. It returns the schedule (id, target time)
// and the firing record (id, clock at firing).
func runRandomSchedule(t *testing.T, e *Engine, seed uint64, n int, delta func(*RNG) Cycles) (sched, got []firing) {
	t.Helper()
	rng := NewRNG(seed)
	next := 0
	var spawn func(id int) func()
	at := func(when Cycles) {
		id := next
		next++
		sched = append(sched, firing{id, when})
		e.At(when, spawn(id))
	}
	spawn = func(id int) func() {
		return func() {
			got = append(got, firing{id, e.Now()})
			kids := 1 + rng.Intn(2)
			for k := 0; k < kids && next < n; k++ {
				at(e.Now() + delta(rng))
			}
		}
	}
	for i := 0; i < 8; i++ {
		at(delta(rng))
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	return sched, got
}

// checkScheduleOrder requires the engine to have fired every scheduled event
// at its target time, in (time, schedule order).
func checkScheduleOrder(t *testing.T, seed uint64, sched, got []firing) {
	t.Helper()
	want := scheduleOrder(sched)
	if len(got) != len(want) {
		t.Fatalf("seed %d: fired %d events, scheduled %d", seed, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seed %d: firing %d is %+v, want %+v", seed, i, got[i], want[i])
		}
	}
}

// TestWheelHeapEquivalence proves the calendar queue is a pure container
// optimization: for randomized schedules crossing the wheel/heap boundary
// (same-cycle, last-wheel-slot, first-heap and far-future deltas), the
// engine fires every event at its target time in (time, schedule order).
func TestWheelHeapEquivalence(t *testing.T) {
	delta := func(rng *RNG) Cycles {
		switch rng.Intn(6) {
		case 0:
			return 0 // same cycle, must fire in schedule order
		case 1:
			return WheelSize - 1 // last wheel slot
		case 2:
			return WheelSize // first heap delta
		case 3:
			return WheelSize + rng.Uint64n(WheelSize) // far future
		default:
			return rng.Uint64n(WheelSize) // typical near-future
		}
	}
	for _, seed := range []uint64{1, 7, 42, 1234, 99999} {
		sched, got := runRandomSchedule(t, NewEngine(), seed, 5000, delta)
		checkScheduleOrder(t, seed, sched, got)
	}
}

// TestOverflowHeapOrder drives the overflow heap alone: every delta is at
// least WheelSize, so no event ever enters the wheel. Deltas come from a
// small set, so many events share a cycle and the heap's seq tie-break is
// exercised.
func TestOverflowHeapOrder(t *testing.T) {
	for _, seed := range []uint64{3, 11, 2024} {
		e := NewEngine()
		maxPending := 0
		sched, got := runRandomSchedule(t, e, seed, 3000, func(rng *RNG) Cycles {
			if e.wheelCount != 0 {
				t.Fatalf("seed %d: %d events in the wheel", seed, e.wheelCount)
			}
			maxPending = max(maxPending, len(e.pq))
			return WheelSize + Cycles(rng.Intn(8))*(WheelSize/4)
		})
		checkScheduleOrder(t, seed, sched, got)
		if maxPending < 2 {
			t.Fatalf("seed %d: heap never held two events", seed)
		}
	}
}

// TestCrossContainerTie pins popNext's seq tie-break between the two
// containers. The first event is scheduled WheelSize or more ahead, into the
// heap; the second is scheduled later for the same cycle, into the wheel.
// They must fire in schedule order.
func TestCrossContainerTie(t *testing.T) {
	e := NewEngine()
	const target = WheelSize + 5
	var got []string
	e.At(target, func() { got = append(got, "heap") })
	if len(e.pq) != 1 || e.wheelCount != 0 {
		t.Fatalf("first event not in the heap: heap %d, wheel %d", len(e.pq), e.wheelCount)
	}
	e.At(10, func() {
		e.At(target, func() { got = append(got, "wheel") })
		if e.wheelCount != 1 {
			t.Fatalf("second event not in the wheel: wheel %d", e.wheelCount)
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []string{"heap", "wheel"}) {
		t.Fatalf("fired %v, want [heap wheel]", got)
	}
	if e.Now() != target {
		t.Fatalf("clock %d, want %d", e.Now(), target)
	}
}

// TestWheelSameCycleSeqOrder pins the insertion-order guarantee inside one
// wheel bucket: events scheduled for the same cycle fire in schedule order
// even when interleaved with other cycles.
func TestWheelSameCycleSeqOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		// Alternate target cycles so bucket insertion interleaves.
		e.At(Cycles(10+(i%3)*7), func() { got = append(got, i) })
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("fired %d events, want 100", len(got))
	}
	// Within each cycle, ids must ascend; across cycles, times ascend.
	seen := map[Cycles]int{}
	for idx, id := range got {
		at := Cycles(10 + (id%3)*7)
		if prev, ok := seen[at]; ok && prev > id {
			t.Fatalf("cycle %d fired id %d after id %d (index %d)", at, id, prev, idx)
		}
		seen[at] = id
	}
}
