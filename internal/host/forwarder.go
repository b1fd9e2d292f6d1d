// Package host models the host CPU's two roles in the baseline designs:
// forwarding cross-unit messages over the DDR channels (design C, and the
// cross-chip path of design R), and executing the task-based applications
// itself in the non-NDP baseline (design H).
package host

import (
	"fmt"

	"ndpbridge/internal/config"
	"ndpbridge/internal/dram"
	"ndpbridge/internal/metrics"
	"ndpbridge/internal/msg"
	"ndpbridge/internal/ndpunit"
	"ndpbridge/internal/sim"
	"ndpbridge/internal/trace"
)

// Env provides global services (a subset of the system orchestrator).
type Env interface {
	Engine() *sim.Engine
	Cfg() *config.Config
	Map() *dram.AddrMap
	// Trace returns the span recorder, or nil when tracing is off.
	Trace() *trace.Recorder
}

// ForwarderStats counts host-forwarding activity.
type ForwarderStats struct {
	GatherBatches uint64
	Messages      uint64
	Bytes         uint64
}

// Forwarder is the design-C communication path: the host CPU periodically
// reads each unit's mailbox over the unit's memory channel, examines the
// messages in software, and writes them to their destination units. Every
// hop crosses the bandwidth-limited channels and pays a fixed software
// overhead per batch (Section II-C).
type Forwarder struct {
	env Env
	// eng/cfg cache env.Engine()/env.Cfg() — both stable for the system's
	// lifetime — so hot paths skip the interface dispatch.
	eng   *sim.Engine    //ndplint:nosnap cached wiring, set at construction
	cfg   *config.Config //ndplint:nosnap cached wiring, set at construction
	units []*ndpunit.Unit
	links []*sim.Link // per channel

	running  []bool
	cursor   []int // round-robin position per channel
	inflight int   // messages the host has read but not yet written back
	chanOf   []int // channel of each unit, precomputed from the address map

	// Per-channel pre-bound callbacks and reused buffers. batch holds the
	// one in-flight gather batch per channel; pend is the FIFO of messages
	// written over the channel, in link-completion order. forward schedules
	// one pendFns[ch] event per message at its completion; link completions
	// strictly increase, so the event that fires always belongs to the head.
	// lastEnd is the latest scheduled completion, which guards that order.
	sweepFn  func()
	stepFns  []func()
	batchFns []func()
	pendFns  []func()
	batch    [][]*msg.Message
	pend     []msg.FIFO
	lastEnd  []sim.Cycles

	st ForwarderStats

	// Instruments, bound by BindMetrics; nil no-ops when metrics are off.
	mBatchBytes *metrics.Histogram // bytes per forwarding batch
	mBatchMsgs  *metrics.Histogram // messages per forwarding batch
}

// BindMetrics attaches the forwarder's instruments to reg.
func (f *Forwarder) BindMetrics(reg *metrics.Registry) {
	f.mBatchBytes = reg.Histogram("host_batch_bytes")
	f.mBatchMsgs = reg.Histogram("host_batch_msgs")
}

// NewForwarder builds the host forwarding runtime over all units.
func NewForwarder(env Env, units []*ndpunit.Unit) *Forwarder {
	cfg := env.Cfg()
	links := make([]*sim.Link, cfg.Geometry.Channels)
	for i := range links {
		links[i] = sim.NewLink("host-channel", cfg.Timing.ChannelBytesPerCycle, 4)
	}
	f := &Forwarder{
		env:     env,
		eng:     env.Engine(),
		cfg:     cfg,
		units:   units,
		links:   links,
		running: make([]bool, cfg.Geometry.Channels),
		cursor:  make([]int, cfg.Geometry.Channels),
	}
	f.chanOf = make([]int, len(units))
	for i := range units {
		f.chanOf[i] = env.Map().ChannelOfRank(env.Map().GlobalRank(i))
	}
	n := cfg.Geometry.Channels
	f.sweepFn = f.sweep
	f.stepFns = make([]func(), n)
	f.batchFns = make([]func(), n)
	f.pendFns = make([]func(), n)
	f.batch = make([][]*msg.Message, n)
	f.pend = make([]msg.FIFO, n)
	f.lastEnd = make([]sim.Cycles, n)
	for ch := 0; ch < n; ch++ {
		ch := ch
		f.stepFns[ch] = func() { f.step(ch) }
		f.batchFns[ch] = func() { f.finishBatch(ch) }
		f.pendFns[ch] = func() { f.deliverNext(ch) }
	}
	return f
}

// Stats returns forwarding counters.
func (f *Forwarder) Stats() ForwarderStats { return f.st }

// Links exposes the channel links for traffic accounting.
func (f *Forwarder) Links() []*sim.Link { return f.links }

// Start begins the periodic mailbox polling.
func (f *Forwarder) Start() {
	f.eng.After(f.cfg.IState, f.sweepFn)
}

func (f *Forwarder) sweep() {
	for ch := range f.running {
		f.ensureLoop(ch)
	}
	f.eng.After(f.cfg.IState, f.sweepFn)
}

func (f *Forwarder) ensureLoop(ch int) {
	if f.running[ch] {
		return
	}
	if f.nextUnit(ch) < 0 && !f.anyBacklog(ch) {
		return
	}
	f.running[ch] = true
	f.eng.After(0, f.stepFns[ch])
}

// channelOf returns the channel unit u sits on.
func (f *Forwarder) channelOf(u int) int { return f.chanOf[u] }

// nextUnit finds the next unit on ch with pending mailbox bytes.
func (f *Forwarder) nextUnit(ch int) int {
	n := len(f.units)
	for i := 0; i < n; i++ {
		idx := (f.cursor[ch] + i) % n
		if f.channelOf(idx) != ch {
			continue
		}
		if f.units[idx].MailboxUsed() > 0 {
			f.cursor[ch] = (idx + 1) % n
			return idx
		}
	}
	return -1
}

// stateProbeBytes is the per-unit status read the host issues to learn
// whether a unit's mailbox holds messages (8 B: one chip-parallel burst
// covers a rank's same-index banks). Polling every unit over the channel is
// the tax that makes host forwarding scale poorly with the unit count
// (Section II-C).
const stateProbeBytes = 8

// step performs one channel sweep: the host polls every unit's status over
// the channel, drains the non-empty mailboxes, and forwards the messages as
// one software batch.
func (f *Forwarder) step(ch int) {
	cfg := f.cfg
	eng := f.eng
	now := eng.Now()

	ms := f.batch[ch][:0]
	var bytes uint64
	polled := 0
	for i, u := range f.units {
		if f.channelOf(i) != ch {
			continue
		}
		polled++
		if u.MailboxUsed() == 0 {
			continue
		}
		got, n := u.DrainMailbox(cfg.Timing.HostBatchBytes)
		bytes += n
		ms = append(ms, got...)
	}
	if len(ms) == 0 {
		if f.inflight > 0 || f.anyBacklog(ch) {
			// Idle polls still burn channel bandwidth.
			f.links[ch].Reserve(now, uint64(polled)*stateProbeBytes)
			f.st.Bytes += uint64(polled) * stateProbeBytes
			eng.After(cfg.IMin(), f.stepFns[ch])
			return
		}
		f.running[ch] = false
		return
	}
	// The sweep reads one status word per unit plus the drained bytes.
	total := bytes + uint64(polled)*stateProbeBytes
	end := f.links[ch].Reserve(now, total) + cfg.Timing.HostForwardOverhead
	f.st.GatherBatches++
	f.st.Messages += uint64(len(ms))
	f.st.Bytes += total
	f.mBatchBytes.Observe(bytes)
	f.mBatchMsgs.Observe(uint64(len(ms)))
	// Actor -1: host batches are system-level, not tied to one unit.
	f.env.Trace().Mark(trace.MarkHostBatch, -1, uint32(len(ms)), now, end)
	f.inflight += len(ms)
	f.batch[ch] = ms
	eng.At(end, f.batchFns[ch])
}

// finishBatch forwards one completed gather batch and continues the sweep.
//
//ndplint:hotpath
func (f *Forwarder) finishBatch(ch int) {
	ms := f.batch[ch]
	for _, m := range ms {
		f.forward(m)
	}
	for i := range ms {
		ms[i] = nil
	}
	f.batch[ch] = ms[:0]
	f.step(ch)
}

// anyBacklog reports whether any unit on ch still has work.
func (f *Forwarder) anyBacklog(ch int) bool {
	for i, u := range f.units {
		if f.channelOf(i) == ch && u.HasBacklog() {
			return true
		}
	}
	return false
}

// forward writes one message to its destination unit over that unit's
// channel.
func (f *Forwarder) forward(m *msg.Message) {
	eng := f.eng
	dst := m.Dst
	if dst < 0 || dst >= len(f.units) || f.units[dst].Dead() {
		// No load balancing in designs C/R: scheduled-out messages
		// cannot exist. Route by home as a safety net — which also
		// re-homes messages bound for a killed unit.
		if a, ok := m.RouteAddr(); ok {
			dst = f.env.Map().Home(a)
			m.Dst = dst
		} else {
			return
		}
	}
	ch := f.chanOf[dst]
	end := f.links[ch].Reserve(eng.Now(), m.Size())
	if end <= f.lastEnd[ch] {
		panic(fmt.Sprintf("host: channel %d commit at cycle %d, not after the previous at %d", ch, end, f.lastEnd[ch]))
	}
	f.lastEnd[ch] = end
	f.st.Bytes += m.Size()
	f.pend[ch].Push(m)
	eng.At(end, f.pendFns[ch])
}

// deliverNext writes the head message of one channel into its destination
// unit.
//
//ndplint:hotpath
func (f *Forwarder) deliverNext(ch int) {
	m := f.pend[ch].Pop()
	f.inflight--
	f.units[m.Dst].Deliver(m)
}
