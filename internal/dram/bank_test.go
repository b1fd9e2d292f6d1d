package dram

import (
	"testing"
	"testing/quick"

	"ndpbridge/internal/config"
)

func newBank() *Bank { return NewBank(config.Default().Timing) }

func TestBankRowMissThenHit(t *testing.T) {
	b := newBank()
	// First access: closed row → tRCD + tCAS + transfer.
	end1 := b.Access(0, 0, 64, false, AccessLocal, 150)
	want1 := uint64(7 + 7 + 8) // RCD + CAS + 64B/8Bpc
	if end1 != want1 {
		t.Fatalf("first access end = %d, want %d", end1, want1)
	}
	// Same row, bank now free: just tCAS + transfer, starting at end1... but
	// issued at end1.
	end2 := b.Access(end1, 64, 64, false, AccessLocal, 150)
	if end2 != end1+7+8 {
		t.Fatalf("row hit end = %d, want %d", end2, end1+7+8)
	}
	// Different row: tRP + tRCD + tCAS.
	end3 := b.Access(end2, 8192, 64, true, AccessLocal, 150)
	if end3 != end2+7+7+7+8 {
		t.Fatalf("row miss end = %d, want %d", end3, end2+29)
	}
	s := b.Stats()
	if s.RowHits != 1 || s.RowMisses != 2 {
		t.Errorf("hits/misses = %d/%d, want 1/2", s.RowHits, s.RowMisses)
	}
	if s.Reads != 2 || s.Writes != 1 {
		t.Errorf("reads/writes = %d/%d, want 2/1", s.Reads, s.Writes)
	}
}

func TestBankArbiterSerializes(t *testing.T) {
	b := newBank()
	end1 := b.Access(0, 0, 256, false, AccessLocal, 150)
	// Second access issued at time 1 while bank busy: starts at end1.
	end2 := b.Access(1, 0, 64, false, AccessComm, 150)
	if end2 <= end1 {
		t.Fatalf("second access must wait for first: %d <= %d", end2, end1)
	}
	if end2 != end1+7+8 {
		t.Fatalf("end2 = %d, want %d (row hit after queueing)", end2, end1+15)
	}
}

func TestBankEnergyAccounting(t *testing.T) {
	b := newBank()
	b.Access(0, 0, 64, false, AccessLocal, 150)
	b.Access(100, 0, 64, true, AccessComm, 150)
	s := b.Stats()
	wantPerAccess := 8.0 * 150 // 8 words of 64 bits
	if s.EnergyPJ != 2*wantPerAccess {
		t.Errorf("EnergyPJ = %v, want %v", s.EnergyPJ, 2*wantPerAccess)
	}
	if s.CommEnergyPJ != wantPerAccess {
		t.Errorf("CommEnergyPJ = %v, want %v", s.CommEnergyPJ, wantPerAccess)
	}
	if s.LocalBytes != 64 || s.CommBytes != 64 {
		t.Errorf("byte split = %d/%d, want 64/64", s.LocalBytes, s.CommBytes)
	}
}

func TestBankZeroLengthAccess(t *testing.T) {
	b := newBank()
	if end := b.Access(42, 0, 0, false, AccessLocal, 150); end != 42 {
		t.Errorf("zero-length access should be free, got end %d", end)
	}
	if s := b.Stats(); s.Reads != 0 {
		t.Errorf("zero-length access must not count")
	}
}

func TestBankHostKind(t *testing.T) {
	b := newBank()
	b.Access(0, 0, 128, false, AccessHost, 150)
	if s := b.Stats(); s.HostBytes != 128 || s.CommBytes != 0 || s.LocalBytes != 0 {
		t.Errorf("host bytes misattributed: %+v", s)
	}
}

func TestBankReset(t *testing.T) {
	b := newBank()
	b.Access(0, 0, 64, false, AccessLocal, 150)
	b.Reset()
	if s := b.Stats(); s.Reads != 0 || s.BusyCycles != 0 {
		t.Error("Reset did not clear stats")
	}
	// After reset the row is closed again: full RCD+CAS.
	end := b.Access(0, 0, 8, false, AccessLocal, 150)
	if end != 7+7+1 {
		t.Errorf("post-reset access end = %d, want 15", end)
	}
}

func TestBankBusyCyclesMatchesTimeline(t *testing.T) {
	b := newBank()
	var prevEnd uint64
	var want uint64
	offs := []uint64{0, 64, 8192, 128, 16384}
	for _, off := range offs {
		end := b.Access(prevEnd, off, 64, false, AccessLocal, 150)
		want += end - prevEnd
		prevEnd = end
	}
	if s := b.Stats(); s.BusyCycles != want {
		t.Errorf("BusyCycles = %d, want %d", s.BusyCycles, want)
	}
}

func TestBankRefresh(t *testing.T) {
	cfg := config.Default().Timing
	b := NewBank(cfg)
	// Access long after several refresh intervals, comfortably past the
	// last refresh's tRFC window: refreshes completed during idle time
	// must not delay the access.
	at := 10*cfg.TREFI + cfg.TRFC + 5
	end := b.Access(at, 0, 8, false, AccessLocal, 150)
	if end != at+7+7+1 {
		t.Errorf("idle refreshes delayed access: end=%d, want %d", end, at+15)
	}
	if got := b.Stats().Refreshes; got != 10 {
		t.Errorf("Refreshes = %d, want 10", got)
	}
	// An access colliding with a due refresh waits out tRFC and reopens
	// the row.
	b2 := NewBank(cfg)
	b2.Access(cfg.TREFI-1, 0, 8, false, AccessLocal, 150) // opens row just before refresh
	end2 := b2.Access(cfg.TREFI, 0, 8, false, AccessLocal, 150)
	// The refresh closes the row, so the second access pays RCD+CAS after
	// waiting for the refresh to finish.
	min := cfg.TREFI + cfg.TRFC
	if end2 < min {
		t.Errorf("refresh collision not charged: end=%d < %d", end2, min)
	}
	if b2.Stats().RowHits != 0 {
		t.Errorf("refresh must close the open row")
	}
}

func TestBankRefreshDisabled(t *testing.T) {
	cfg := config.Default().Timing
	cfg.TREFI = 0
	b := NewBank(cfg)
	b.Access(1_000_000, 0, 8, false, AccessLocal, 150)
	if b.Stats().Refreshes != 0 {
		t.Error("refresh should be disabled when TREFI is zero")
	}
}

// TestBankCompletionsStrictlyIncrease pins the invariant the unit inbox
// rests on: every non-empty access completes strictly after the previous
// one, whatever the request times, offsets and sizes, and across refreshes.
// The inbox schedules one commit event per message and pops its head when
// one fires, which is only right while completions strictly increase.
func TestBankCompletionsStrictlyIncrease(t *testing.T) {
	cfg := config.Default().Timing
	f := func(reqs []uint16, offs []uint32, sizes []uint8) bool {
		b := NewBank(cfg)
		var prev uint64
		for i, at := range reqs {
			// Request times span several refresh intervals and need not
			// ascend.
			now := uint64(at) % (8 * cfg.TREFI)
			var off, n uint64 = 0, 1
			if i < len(offs) {
				off = uint64(offs[i]) * 64
			}
			if i < len(sizes) {
				n += uint64(sizes[i])
			}
			end := b.Access(now, off, n, i%2 == 0, AccessComm, 150)
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
	// An access that collides with a due refresh still completes after
	// the access before it.
	b := NewBank(cfg)
	end1 := b.Access(cfg.TREFI-1, 0, 8, true, AccessComm, 150)
	end2 := b.Access(cfg.TREFI, 0, 8, true, AccessComm, 150)
	if end2 <= end1 || b.Stats().Refreshes != 1 {
		t.Fatalf("across a refresh: end %d then %d, %d refreshes", end1, end2, b.Stats().Refreshes)
	}
}
