package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: other guests compete for its
// caches, memory bandwidth and hyperthread siblings, and the simulator's
// wall time drifts with them by tens of percent over minutes. The
// calibration loop is fixed work written against the standard library only,
// so no change to the program can speed it up. Timed next to the
// simulation, it slows down when the machine does, and a run reports
// simulation time as a multiple of its time. That ratio keeps the program's
// speed and drops most of the machine's.
//
// One sample runs three kernels. Most of its time goes to a toy
// discrete-event loop: a binary heap of events over 512 units, each event
// updating a small Go map of its unit and allocating its successor. Of the
// kernels tried on a shared 2-vCPU Xeon VM, its time followed the
// simulator's most closely. A dependent pointer chase through a 64 MB table
// and a dependent integer loop add memory latency and core speed, which
// followed it in periods of heavier contention. The chase table lives
// outside the Go heap, so the simulation's garbage collector neither scans
// it nor paces itself by it.

const (
	calUnits      = 512
	calEvents     = 400_000
	calChaseSlots = 16 << 20 // 64 MB of uint32
	calChases     = 350_000
	calALUIters   = 10_000_000
	// calEveryS is how much measured work, in seconds, may run between two
	// calibration samples. Each round is charged the mean of the samples
	// that bracket it.
	calEveryS = 1.5
)

// calibrator holds the calibration loop's chase table.
type calibrator struct {
	chase []uint32 // a single random cycle through all slots
	sink  uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{chase: mmapUint32(calChaseSlots)}
	// Sattolo's algorithm: a random permutation with one cycle, so the
	// chase visits every slot before it repeats.
	for i := range c.chase {
		c.chase[i] = uint32(i)
	}
	x := uint64(1)
	for i := len(c.chase) - 1; i > 0; i-- {
		x = lcg(x)
		j := int((x >> 33) % uint64(i))
		c.chase[i], c.chase[j] = c.chase[j], c.chase[i]
	}
	return c
}

// mmapUint32 maps n zeroed uint32 slots outside the Go heap. The mapping
// lives as long as the process.
func mmapUint32(n int) []uint32 {
	b, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		panic("perfbench: map calibration table: " + err.Error())
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
}

func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

// sample runs the calibration loop once, on a freshly collected heap, and
// returns its wall time in seconds.
func (c *calibrator) sample() float64 {
	runtime.GC()
	t := time.Now()
	c.sink += events() + c.pointerChase() + alu()
	return time.Since(t).Seconds()
}

type calEvent struct {
	at   uint64
	unit int
}

func events() uint64 {
	units := make([]map[uint64]uint64, calUnits)
	for i := range units {
		units[i] = make(map[uint64]uint64, 256)
	}
	var h []*calEvent
	push := func(e *calEvent) {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p].at <= h[i].at {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() *calEvent {
		e := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		for i := 0; ; {
			l := 2*i + 1
			if l >= len(h) {
				break
			}
			if r := l + 1; r < len(h) && h[r].at < h[l].at {
				l = r
			}
			if h[i].at <= h[l].at {
				break
			}
			h[i], h[l] = h[l], h[i]
			i = l
		}
		return e
	}
	for i := 0; i < 4*calUnits; i++ {
		push(&calEvent{at: uint64(i), unit: i % calUnits})
	}
	x, s := uint64(7), uint64(0)
	for i := 0; i < calEvents; i++ {
		e := pop()
		x = lcg(x)
		m := units[e.unit]
		k := (x >> 40) & 1023
		s += m[k]
		m[k] = x
		push(&calEvent{at: e.at + 1 + (x>>58)&15, unit: int(x>>20) % calUnits})
	}
	return s
}

func (c *calibrator) pointerChase() uint64 {
	j := uint32(0)
	for i := 0; i < calChases; i++ {
		j = c.chase[j]
	}
	return uint64(j)
}

func alu() uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < calALUIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}
