package main

import (
	"sort"
	"time"

	"ndpbridge/internal/config"
	"ndpbridge/internal/dram"
	"ndpbridge/internal/mailbox"
	"ndpbridge/internal/metadata"
	"ndpbridge/internal/msg"
	"ndpbridge/internal/ndpunit"
	"ndpbridge/internal/sim"
	"ndpbridge/internal/sketch"
	"ndpbridge/internal/task"
	"ndpbridge/internal/workloads"
)

// probe times one layer's public hot entry point from outside the program.
type probe struct {
	module string
	ops    int         // operations per repetition
	run    func(n int) // performs n operations
}

const (
	probeReps  = 5
	probeDraws = 1 << 16 // precomputed Zipf draws, reused cyclically
	probeLine  = 64      // bytes per DRAM or cache access: one line
	probeBatch = 256     // queue and mailbox depth between drains
)

// probes builds the probes for a workload, sized from cfg: the bank and
// cache geometry, the metadata table and sketch shapes, the mailbox
// capacity and transfer granularity, and the workload's RMAT size. Addresses
// follow a Zipf law with the workload's skew.
func probes(w *workload, cfg config.Config, seed uint64) []probe {
	lines := int(min(cfg.Geometry.BankBytes/probeLine, 1<<20))
	blocks := int(min(cfg.Geometry.BankBytes/cfg.GXfer, 1<<20))
	lineAddrs := zipfAddrs(seed, lines, w.theta, probeLine)
	blockAddrs := zipfAddrs(seed+1, blocks, w.theta, cfg.GXfer)

	bank := dram.NewBank(cfg.Timing)
	var now sim.Cycles
	// ndpunit.New builds every unit's cache with this geometry.
	cache := ndpunit.NewCache(64<<10, 4, 64)

	borrowed := metadata.NewBorrowed(cfg.Metadata.UnitBorrowedEntries, cfg.Metadata.UnitBorrowedWays)
	for i := 0; borrowed.Len() < borrowed.Capacity()/2 && i < len(blockAddrs); i++ {
		borrowed.Insert(blockAddrs[(i*7919)%len(blockAddrs)], uint64(i))
	}

	queue := task.NewQueue()
	var epoch uint32

	pool := msg.NewPool()
	mb := mailbox.New(cfg.Buffers.MailboxBytes)
	msgs := make([]*msg.Message, probeBatch)
	for i := range msgs {
		msgs[i] = pool.NewTaskIn(0, 1, task.Task{Addr: blockAddrs[i]})
	}
	held := make([]*msg.Message, probeBatch)

	sk := sketch.New(cfg.Sketch.Buckets, cfg.Sketch.EntriesPerBkt, cfg.Sketch.DecayBase, sim.NewRNG(seed))

	eng := sim.NewEngine()
	noop := func() {}
	delays := zipfAddrs(seed+2, 1<<12, w.theta, 1)

	var sink uint64
	return []probe{
		{"dram", 1 << 19, func(n int) {
			for i := 0; i < n; i++ {
				now = bank.Access(now, lineAddrs[i%probeDraws], probeLine, false, dram.AccessLocal, cfg.Energy.DRAMAccessPJPer64b)
			}
		}},
		{"ndpunit", 1 << 21, func(n int) {
			for i := 0; i < n; i++ {
				if cache.Touch(lineAddrs[i%probeDraws]) {
					sink++
				}
			}
		}},
		{"metadata", 1 << 21, func(n int) {
			for i := 0; i < n; i++ {
				if v, ok := borrowed.Lookup(blockAddrs[i%probeDraws]); ok {
					sink += v
				}
			}
		}},
		// One operation is a Push and a Pop; each batch fills and drains
		// one epoch, as bulk-synchronous execution does.
		{"task", 1 << 20, func(n int) {
			for i := 0; i < n; i += probeBatch {
				for j := 0; j < probeBatch; j++ {
					queue.Push(task.Task{TS: epoch, Addr: blockAddrs[(i+j)%probeDraws], Workload: 40})
				}
				for j := 0; j < probeBatch; j++ {
					t, _ := queue.Pop(epoch)
					sink += t.Addr
				}
				epoch++
			}
		}},
		// One operation is an Enqueue and its share of the G_xfer-sized
		// DrainUpTo gathers that empty the mailbox again.
		{"mailbox", 1 << 20, func(n int) {
			for i := 0; i < n; i += probeBatch {
				for _, m := range msgs {
					mb.Enqueue(m)
				}
				for !mb.Empty() {
					sink += uint64(len(mb.DrainUpTo(cfg.GXfer)))
				}
			}
		}},
		// One operation is a Get and a Put.
		{"msg", 1 << 21, func(n int) {
			for i := 0; i < n; i += probeBatch {
				for j := range held {
					held[j] = pool.Get()
				}
				for _, m := range held {
					pool.Put(m)
				}
			}
		}},
		{"sketch", 1 << 20, func(n int) {
			for i := 0; i < n; i++ {
				sk.Observe(blockAddrs[i%probeDraws], 40)
			}
		}},
		{"workloads", 4, func(n int) {
			for i := 0; i < n; i++ {
				g := workloads.RMAT(sim.NewRNG(seed+uint64(i)), w.rmat.Scale, w.rmat.EdgeFactor)
				sink += uint64(g.E())
			}
		}},
		// One operation is one event scheduled with At and run by Run.
		{"sim", 1 << 20, func(n int) {
			for i := 0; i < n; i += probeBatch {
				base := eng.Now()
				for j := 0; j < probeBatch; j++ {
					eng.At(base+1+delays[(i+j)%probeDraws], noop)
				}
				if err := eng.Run(1 << 62); err != nil {
					panic(err) // only an event budget overrun fails Run
				}
			}
		}},
	}
}

// zipfAddrs draws probeDraws Zipf-distributed item numbers over n items
// and scatters them over the address space with stride granularity, so the
// hot items do not sit in one row.
func zipfAddrs(seed uint64, n int, theta float64, stride uint64) []uint64 {
	z := workloads.NewZipf(sim.NewRNG(seed), n, theta)
	out := make([]uint64, probeDraws)
	for i := range out {
		item := uint64(z.Next())
		out[i] = (item * 2654435761 % uint64(n)) * stride
	}
	return out
}

// measure runs a probe probeReps times and returns the median ns per
// operation and the heap allocations per operation over all repetitions.
func (p probe) measure() (nsPerOp, allocsPerOp float64) {
	p.run(p.ops) // warm caches and lazy state
	ns := make([]float64, probeReps)
	objs0 := readUint(allocObjectsMetric)
	for r := range ns {
		t := time.Now()
		p.run(p.ops)
		ns[r] = float64(time.Since(t).Nanoseconds()) / float64(p.ops)
	}
	objs := readUint(allocObjectsMetric) - objs0
	sort.Float64s(ns)
	return ns[probeReps/2], float64(objs) / float64(probeReps*p.ops)
}

const allocObjectsMetric = "/gc/heap/allocs:objects"

// addProbes measures every probe and reports <module>.probe_ns_per_op and
// <module>.probe_allocs_per_op.
func addProbes(m *metricSet, w *workload, seed uint64) {
	cfg := w.cells(seed)[0].cfg
	for _, p := range probes(w, cfg, seed) {
		ns, allocs := p.measure()
		m.add(p.module+".probe_ns_per_op", "ns/op", ns)
		m.add(p.module+".probe_allocs_per_op", "allocs/op", allocs)
	}
}
