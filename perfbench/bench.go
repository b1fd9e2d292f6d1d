package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"

	"ndpbridge/internal/config"
	"ndpbridge/internal/core"
	ndpmetrics "ndpbridge/internal/metrics"
	"ndpbridge/internal/stats"
	"ndpbridge/internal/workloads"
)

// roundRun is one round: the workload's cells at one seed, run in order.
// It keeps sums over its cells rather than the cells, so the benchmark's
// own heap stays the same size however many rounds a run has.
type roundRun struct {
	seed    uint64
	cells   int
	results []*stats.Result // until verify; kept after it in modeTraced only

	wallS, newS, prepareS, seedS float64
	makespan, events, energy     float64
	// Heap bytes allocated, GC cycles completed and GC pause time while
	// the round ran; the GC counts include live-heap measurements.
	allocBytes, gcCycles, gcPauseS float64
	// liveHeap is the largest cell's live heap above the live heap at the
	// start of the round, in bytes; 0 when the round did not measure it.
	liveHeap float64
	// calS is the mean wall time of the calibration samples taken before
	// and after the round (see calib.go); 0 when the round was not
	// calibrated.
	calS float64
}

func (r *roundRun) add(c *cellRun) {
	r.wallS += c.wallS
	r.newS += c.newS
	r.prepareS += c.prepareS
	r.seedS += c.seedS
	r.makespan += float64(c.res.Makespan)
	r.events += float64(c.res.Events)
	r.energy += c.res.Energy.Total()
}

// bench runs one workload invocation and checks every cell. attempted and
// failed count cells.
type bench struct {
	w         *workload
	seed      uint64
	expected  map[uint64]string    // recorded round digests of this workload
	seen      map[uint64]string    // round digests observed in this run
	seenSim   map[uint64]string    // the same without engine event counts
	traceReg  *ndpmetrics.Registry // the traced rounds' registries, merged
	attempted int
	failed    int
	unchecked int // rounds whose seed has no recorded digest
}

func newBench(w *workload, seed uint64, expected map[uint64]string) *bench {
	return &bench{w: w, seed: seed, expected: expected,
		seen: map[uint64]string{}, seenSim: map[uint64]string{}, traceReg: ndpmetrics.NewRegistry()}
}

func (b *bench) fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: FAILED %s seed %d: %v\n", b.w.name, b.seed, err)
}

// round runs the workload's cells at seed in mode m; with live it also
// measures each cell's live heap. It returns nil when any cell of the round
// failed a check; the failure is counted and reported on stderr.
func (b *bench) round(seed uint64, m mode, live bool) *roundRun {
	r := &roundRun{seed: seed}
	// Timed rounds start from a collected heap. Profiled rounds run back to
	// back, as cells do in an ndpbench sweep, which keeps the benchmark's
	// own work out of the profile.
	if m != modeProfiled {
		runtime.GC()
	}
	base := readUint(liveHeapMetric)
	var gc0, gc1 debug.GCStats
	debug.ReadGCStats(&gc0)
	alloc0, cyc0 := readUint(allocBytesMetric), readUint(gcCyclesMetric)
	for _, c := range b.w.cells(seed) {
		b.attempted++
		cr, err := runCell(c, m, live)
		if err != nil {
			b.failed++
			b.fail(err)
			return nil
		}
		r.add(cr)
		r.cells++
		r.results = append(r.results, cr.res)
		if live {
			r.liveHeap = max(r.liveHeap, float64(cr.liveHeap)-float64(base))
		}
		if m == modeTraced {
			// A distinct prefix per cell keeps Merge from searching for a
			// free name for each copied gauge series.
			b.traceReg.Merge(cr.reg, strconv.Itoa(b.attempted)+"/")
		}
	}
	r.allocBytes = float64(readUint(allocBytesMetric) - alloc0)
	r.gcCycles = float64(readUint(gcCyclesMetric) - cyc0)
	debug.ReadGCStats(&gc1)
	r.gcPauseS = (gc1.PauseTotal - gc0.PauseTotal).Seconds()
	// Profiled rounds are verified after the profile stops, so hashing
	// results stays out of it.
	if m != modeProfiled && !b.verify(r, m) {
		return nil
	}
	return r
}

// verify checks a round's results against the digest recorded at the seed
// commit and against every earlier round of the same seed in this run, then
// drops them unless the round is traced. A traced round is compared without
// engine event counts, which its metrics sampler changes. A round that
// fails counts all its cells as failed.
func (b *bench) verify(r *roundRun, m mode) bool {
	err := b.check(r, m)
	if m != modeTraced {
		r.results = nil
	}
	if err != nil {
		b.failed += r.cells
		b.fail(err)
		return false
	}
	return true
}

func (b *bench) check(r *roundRun, m mode) error {
	simHash := roundDigest(r.results, false)
	if prev, ok := b.seenSim[r.seed]; ok && simHash != prev {
		return fmt.Errorf("round seed %d: simulated results differ from an earlier round of this run", r.seed)
	}
	b.seenSim[r.seed] = simHash
	if m == modeTraced {
		return nil
	}
	digest := roundDigest(r.results, true)
	if want, ok := b.expected[r.seed]; ok && digest != want {
		return fmt.Errorf("round seed %d: result digest %s, recorded %s", r.seed, digest, want)
	} else if _, again := b.seen[r.seed]; !ok && !again {
		b.unchecked++
	}
	if prev, ok := b.seen[r.seed]; ok && digest != prev {
		return fmt.Errorf("round seed %d: result digest %s differs from %s earlier in this run", r.seed, digest, prev)
	}
	b.seen[r.seed] = digest
	return nil
}

// liveRounds is how many rounds of an end-to-end run measure the live heap.
// Each measurement forces a GC after every cell, which costs more than a
// grid-8 cell itself.
const liveRounds = 5

// rounds runs n rounds in mode m. End-to-end runs measure the live heap in
// their first liveRounds rounds and are calibrated: a calibration sample
// runs before the first round and again whenever calEveryS of rounds have
// run since the last, and after the last round. Each round is charged the
// mean of the two samples around it.
func (b *bench) rounds(n int, m mode) []*roundRun {
	calibrated := m == modePlain
	var cal *calibrator
	var prevCal, since float64
	if calibrated {
		cal = newCalibrator()
		prevCal = cal.sample()
	}
	var out, pending []*roundRun
	for i := 0; i < n; i++ {
		r := b.round(roundSeed(b.seed, i), m, m == modePlain && i < liveRounds)
		if r != nil {
			out = append(out, r)
			pending = append(pending, r)
			since += r.wallS + r.newS + r.prepareS + r.seedS
		}
		if calibrated && (since >= calEveryS || i == n-1) {
			next := cal.sample()
			for _, p := range pending {
				p.calS = (prevCal + next) / 2
			}
			prevCal, since, pending = next, 0, pending[:0]
		}
	}
	return out
}

// audit reruns round 0 with the invariant auditor armed.
func (b *bench) audit() { b.round(roundSeed(b.seed, 0), modeAudited, false) }

// witness runs the repro of the known BlocksReturned double count: pr,
// design O, 64 units, paper-sized graph, default seeds. ndpunit counts a
// return at the borrower and again at the home unit; the registry counter
// counts it once. None of the three workloads returns a borrowed block, so
// without this cell the defect would not show. It returns both counts.
func (b *bench) witness() (returned, atBorrower float64) {
	cfg, err := config.Default().WithDesign(config.DesignO).WithUnits(64)
	if err == nil {
		c := cell{app: "pr", cfg: cfg, newApp: func() core.App { return workloads.NewPR(workloads.DefaultGraphParams()) }}
		b.attempted++
		var r *cellRun
		if r, err = runCell(c, modeMetrics, false); err == nil {
			return float64(r.res.BlocksReturned), float64(r.reg.FindCounter("blocks_returned").Value())
		}
	}
	b.failed++
	b.fail(fmt.Errorf("witness: %w", err))
	return 0, 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet struct {
	names  []string
	values map[string]metric
}

func (s *metricSet) add(name, unit string, v float64) {
	if s.values == nil {
		s.values = map[string]metric{}
	}
	s.names = append(s.names, name)
	s.values[name] = metric{Value: v, Unit: unit}
}

// median of the per-round values f gives.
func median(rs []*roundRun, f func(*roundRun) float64) float64 {
	if len(rs) == 0 {
		return 0
	}
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// endToEnd measures n untraced rounds. Each metric is the median over
// rounds of the round's value; a round's value sums its cells. Simulation
// time is reported as a multiple of the calibration loop's time, which
// cancels much of the shared host's drift; the raw seconds are printed
// beside the result as information. The second value is that information.
func (b *bench) endToEnd(n int) (*metricSet, *metricSet) {
	rs := b.rounds(n, modePlain)
	var m, raw metricSet
	m.add("run_vs_cal", "ratio", median(rs, func(r *roundRun) float64 { return r.wallS / r.calS }))
	m.add("setup_s", "s", median(rs, func(r *roundRun) float64 { return r.newS + r.prepareS }))
	m.add("sim_cycles_per_cal", "cycles/cal", median(rs, func(r *roundRun) float64 { return r.makespan * r.calS / r.wallS }))
	m.add("alloc_mb", "MB", median(rs, func(r *roundRun) float64 { return r.allocBytes / 1e6 }))
	m.add("live_heap_mb", "MB", median(rs[:min(len(rs), liveRounds)], func(r *roundRun) float64 { return r.liveHeap / 1e6 }))
	m.add("makespan_cycles", "cycles", median(rs, func(r *roundRun) float64 { return r.makespan }))
	m.add("energy_mj", "mJ", median(rs, func(r *roundRun) float64 { return r.energy }))
	raw.add("wall_s", "s", median(rs, func(r *roundRun) float64 { return r.wallS }))
	raw.add("cal_s", "s", median(rs, func(r *roundRun) float64 { return r.calS }))
	raw.add("sim_cycles_per_s", "cycles/s", median(rs, func(r *roundRun) float64 { return r.makespan / r.wallS }))
	return &m, &raw
}

// layers is the traced invocation. It runs n profiled rounds with nothing
// attached to the simulation, folds their CPU profile by module, then runs
// the same rounds again with the metrics registry and causal flow spans
// attached for the simulated counts, latencies and critical-path shares.
// Every per-layer value is per round: cpu_s is the profile's total over the
// profiled rounds divided by their number, counts are means over the
// instrumented rounds.
func (b *bench) layers(n int) (*metricSet, error) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	profiled := b.rounds(n, modeProfiled)
	pprof.StopCPUProfile()
	verified := profiled[:0]
	for _, r := range profiled {
		if b.verify(r, modeProfiled) {
			verified = append(verified, r)
		}
	}
	profiled = verified
	fold, err := foldProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: CPU outside the layer table: %s\n", fold.unnamed())
	// Spans make the traced heap several times the plain one; collecting
	// at the default target keeps the process small. trace_overhead
	// includes this.
	prevGC := debug.SetGCPercent(100)
	traced := b.rounds(n, modeTraced)
	debug.SetGCPercent(prevGC)

	var m metricSet
	perRound := func(f func(*stats.Result) float64) float64 {
		if len(traced) == 0 {
			return 0
		}
		var s float64
		for _, r := range traced {
			for _, res := range r.results {
				s += f(res)
			}
		}
		return s / float64(len(traced))
	}
	hq := func(name string, q float64) float64 { return float64(b.traceReg.FindHistogram(name).Quantile(q)) }
	counter := func(name string) float64 {
		if len(traced) == 0 {
			return 0
		}
		return float64(b.traceReg.FindCounter(name).Value()) / float64(len(traced))
	}
	sumUnits := func(f func(stats.Unit) uint64) func(*stats.Result) float64 {
		return func(r *stats.Result) float64 {
			var s uint64
			for _, u := range r.Units {
				s += f(u)
			}
			return float64(s)
		}
	}
	cpu := func(module string) float64 { return fold.seconds[module] / float64(max(len(profiled), 1)) }
	profiledMedian := func(f func(*roundRun) float64) float64 { return median(profiled, f) }

	// Event counts come from the profiled rounds: the metrics sampler of the
	// traced rounds adds engine events of its own.
	m.add("sim.cpu_s", "s", cpu("sim"))
	m.add("sim.events", "count", profiledMedian(func(r *roundRun) float64 { return r.events }))
	m.add("sim.ns_per_event", "ns", profiledMedian(func(r *roundRun) float64 { return 1e9 * r.wallS / r.events }))

	m.add("ndpunit.cpu_s", "s", cpu("ndpunit"))
	m.add("ndpunit.tasks", "count", perRound(func(r *stats.Result) float64 { return float64(r.TasksExecuted) }))
	m.add("ndpunit.bounces", "count", perRound(func(r *stats.Result) float64 { return float64(r.Bounces) }))
	m.add("ndpunit.mailbox_stalls", "count", perRound(sumUnits(func(u stats.Unit) uint64 { return u.Stalls })))
	m.add("ndpunit.returns", "count", perRound(sumUnits(func(u stats.Unit) uint64 { return u.Returns })))

	gathers := perRound(func(r *stats.Result) float64 { return float64(r.GatherRounds) })
	wasted := counter("wasted_gathers")
	useful := 0.0
	if gathers > 0 {
		useful = (gathers - wasted) / gathers
	}
	m.add("bridge.cpu_s", "s", cpu("bridge"))
	m.add("bridge.gather_rounds", "count", gathers)
	m.add("bridge.wasted_gathers", "count", wasted)
	m.add("bridge.useful_gather_ratio", "ratio", useful)
	m.add("bridge.lb_rounds", "count", perRound(func(r *stats.Result) float64 { return float64(r.LBRounds) }))
	m.add("bridge.intra_rank_bytes", "bytes", perRound(func(r *stats.Result) float64 { return float64(r.IntraRankBytes) }))
	m.add("bridge.cross_rank_bytes", "bytes", perRound(func(r *stats.Result) float64 { return float64(r.CrossRankBytes) }))

	m.add("msg.cpu_s", "s", cpu("msg"))
	m.add("msg.delivered", "count", perRound(func(r *stats.Result) float64 { return float64(r.MsgsDelivered) }))
	m.add("msg.latency_p50_cycles", "cycles", hq("msg_latency_cycles", 0.50))
	m.add("msg.latency_p99_cycles", "cycles", hq("msg_latency_cycles", 0.99))

	m.add("mailbox.cpu_s", "s", cpu("mailbox"))

	// blocks_returned is stats.Result.BlocksReturned as the program reports
	// it; blocks_returned_at_borrower is the registry counter, incremented
	// once per return. The gap between them is a known double count in
	// ndpunit; the witness cell keeps it visible until the program is fixed.
	m.add("metadata.cpu_s", "s", cpu("metadata"))
	m.add("metadata.blocks_migrated", "count", perRound(func(r *stats.Result) float64 { return float64(r.BlocksMigrated) }))
	m.add("metadata.blocks_returned", "count", perRound(func(r *stats.Result) float64 { return float64(r.BlocksReturned) }))
	m.add("metadata.blocks_returned_at_borrower", "count", counter("blocks_returned"))
	returned, atBorrower := b.witness()
	m.add("metadata.witness_blocks_returned", "count", returned)
	m.add("metadata.witness_blocks_returned_at_borrower", "count", atBorrower)

	m.add("sketch.cpu_s", "s", cpu("sketch"))

	m.add("task.cpu_s", "s", cpu("task"))
	m.add("task.latency_p50_cycles", "cycles", hq("task_latency_cycles", 0.50))
	m.add("task.latency_p99_cycles", "cycles", hq("task_latency_cycles", 0.99))
	m.add("task.queue_wait_p99_cycles", "cycles", hq("wait_task_queue_cycles", 0.99))

	// The program keeps no bank-queue histogram; the bank-busy span covers
	// a task's execution on its bank, DRAM accesses included.
	m.add("dram.cpu_s", "s", cpu("dram"))
	m.add("dram.bank_wait_p99_cycles", "cycles", hq("wait_bank_busy_cycles", 0.99))

	m.add("workloads.cpu_s", "s", cpu("workloads"))
	m.add("workloads.prepare_s", "s", profiledMedian(func(r *roundRun) float64 { return r.prepareS }))
	m.add("workloads.seed_s", "s", profiledMedian(func(r *roundRun) float64 { return r.seedS }))

	m.add("host.cpu_s", "s", cpu("host"))
	m.add("host.bytes", "bytes", perRound(func(r *stats.Result) float64 { return float64(r.HostBytes) }))

	m.add("core.cpu_s", "s", cpu("core"))
	m.add("core.new_s", "s", profiledMedian(func(r *roundRun) float64 { return r.newS }))

	m.add("runtime.cpu_s", "s", cpu("runtime"))
	m.add("runtime.gc_cycles", "count", profiledMedian(func(r *roundRun) float64 { return r.gcCycles }))
	m.add("runtime.gc_pause_s", "s", profiledMedian(func(r *roundRun) float64 { return r.gcPauseS }))
	m.add("runtime.alloc_bytes_per_event", "B/event", profiledMedian(func(r *roundRun) float64 { return r.allocBytes / r.events }))

	makespan := perRound(func(r *stats.Result) float64 { return float64(r.Makespan) })
	crit := func(f func(*stats.Crit) uint64) float64 {
		if makespan == 0 {
			return 0
		}
		return perRound(func(r *stats.Result) float64 {
			if r.Crit == nil {
				return 0
			}
			return float64(f(r.Crit))
		}) / makespan
	}
	m.add("crit.bank_busy", "share", crit(func(c *stats.Crit) uint64 { return c.BankBusy }))
	m.add("crit.task_queue", "share", crit(func(c *stats.Crit) uint64 { return c.TaskQueue }))
	m.add("crit.gather_batch", "share", crit(func(c *stats.Crit) uint64 { return c.GatherBatch }))
	m.add("crit.bridge_queue", "share", crit(func(c *stats.Crit) uint64 { return c.BridgeQueue }))
	m.add("crit.lb_migration", "share", crit(func(c *stats.Crit) uint64 { return c.LBMigration }))
	m.add("crit.host_rt", "share", crit(func(c *stats.Crit) uint64 { return c.HostRT }))
	m.add("crit.slack", "share", crit(func(c *stats.Crit) uint64 { return c.Slack }))

	overhead := 0.0
	wall := func(r *roundRun) float64 { return r.wallS }
	if w := median(profiled, wall); w > 0 {
		overhead = median(traced, wall) / w
	}
	m.add("bench.wall_s", "s", median(profiled, wall))
	m.add("bench.sim_cycles_per_s", "cycles/s", median(profiled, func(r *roundRun) float64 { return r.makespan / r.wallS }))
	m.add("bench.cpu_coverage", "share", fold.coverage())
	m.add("bench.trace_overhead", "ratio", overhead)
	return &m, nil
}

// roundsFor turns a run length into a fixed round count.
func (w *workload) roundsFor(seconds int) int {
	return max(3, int(float64(seconds)/w.roundS+0.5))
}
