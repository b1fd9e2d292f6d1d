package sim

import (
	"testing"
	"testing/quick"
)

func TestLinkDuration(t *testing.T) {
	l := NewLink("dq", 6, 0)
	cases := []struct {
		bytes uint64
		want  Cycles
	}{
		{0, 0}, {1, 1}, {6, 1}, {7, 2}, {12, 2}, {256, 43},
	}
	for _, c := range cases {
		if got := l.Duration(c.bytes); got != c.want {
			t.Errorf("Duration(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestLinkReserveSerializes(t *testing.T) {
	l := NewLink("ch", 48, 2)
	end1 := l.Reserve(0, 480) // 2 + 10 = 12
	if end1 != 12 {
		t.Fatalf("end1 = %d, want 12", end1)
	}
	// Issued at time 5 but the link is busy until 12.
	end2 := l.Reserve(5, 48) // starts 12, + 2 + 1 = 15
	if end2 != 15 {
		t.Fatalf("end2 = %d, want 15", end2)
	}
	// Issued after the link is free again.
	end3 := l.Reserve(100, 48)
	if end3 != 103 {
		t.Fatalf("end3 = %d, want 103", end3)
	}
	bytes, n, busy := l.Stats()
	if bytes != 480+48+48 || n != 3 {
		t.Errorf("stats = (%d, %d), want (576, 3)", bytes, n)
	}
	if busy != 12+3+3 {
		t.Errorf("busy = %d, want 18", busy)
	}
}

func TestLinkNextFree(t *testing.T) {
	l := NewLink("x", 10, 0)
	if l.NextFree(7) != 7 {
		t.Errorf("NextFree on idle link should be now")
	}
	l.Reserve(7, 100) // busy until 17
	if got := l.NextFree(8); got != 17 {
		t.Errorf("NextFree = %d, want 17", got)
	}
}

func TestLinkReset(t *testing.T) {
	l := NewLink("x", 10, 1)
	l.Reserve(0, 100)
	l.Reset()
	if b, n, busy := l.Stats(); b != 0 || n != 0 || busy != 0 {
		t.Errorf("after Reset stats = (%d,%d,%d), want zeros", b, n, busy)
	}
	if l.NextFree(0) != 0 {
		t.Errorf("after Reset link should be free at 0")
	}
}

func TestLinkZeroBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero bandwidth")
		}
	}()
	NewLink("bad", 0, 0)
}

// Property: reservations never overlap — each transfer starts at or after the
// previous transfer's completion when issued in non-decreasing time order,
// and total busy time equals the sum of individual durations.
func TestLinkNoOverlapProperty(t *testing.T) {
	f := func(sizes []uint16, gaps []uint8) bool {
		l := NewLink("p", 7, 1)
		now := Cycles(0)
		prevEnd := Cycles(0)
		var wantBusy Cycles
		for i, s := range sizes {
			if i < len(gaps) {
				now += Cycles(gaps[i])
			}
			n := uint64(s)
			end := l.Reserve(now, n)
			d := Cycles(1) + l.Duration(n)
			wantBusy += d
			start := end - d
			if start < prevEnd || start < now {
				return false
			}
			prevEnd = end
		}
		_, _, busy := l.Stats()
		return busy == wantBusy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestLinkCompletionsStrictlyIncrease pins the invariant the host
// forwarder's per-channel commit queue rests on: every non-empty transfer
// completes strictly after the previous one, whatever the request times, even
// on a link with no fixed latency.
func TestLinkCompletionsStrictlyIncrease(t *testing.T) {
	f := func(reqs []uint16, sizes []uint8, latency uint8) bool {
		l := NewLink("p", 48, Cycles(latency%3))
		var prev Cycles
		for i, at := range reqs {
			n := uint64(1)
			if i < len(sizes) {
				n += uint64(sizes[i])
			}
			end := l.Reserve(Cycles(at), n)
			if end <= prev {
				return false
			}
			prev = end
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
