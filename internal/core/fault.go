package core

import (
	"fmt"

	"ndpbridge/internal/config"
	"ndpbridge/internal/dram"
	"ndpbridge/internal/fault"
	"ndpbridge/internal/msg"
	"ndpbridge/internal/sched"
	"ndpbridge/internal/sim"
	"ndpbridge/internal/stats"
	"ndpbridge/internal/task"
	"ndpbridge/internal/trace"
)

// This file is the system-level fault-recovery runtime: it schedules the
// injector's unit/overflow events, quarantines killed units (re-homing their
// address range to a buddy and re-spawning their in-flight tasks exactly
// once), heals the migration metadata after a death, and arms the watchdog
// that turns unrecoverable deadlock/livelock into a diagnostic instead of a
// hung run.

// AttachFaults binds a fault plan to the system. Call after New and before
// Run. A nil or empty plan is a no-op: no fault state is allocated anywhere
// and the run stays byte-identical to one without fault support. Message and
// overflow faults need the bridge fabric; design H has no units to fault.
func (s *System) AttachFaults(plan *fault.Plan, seed uint64) error {
	inj := fault.New(plan, seed)
	if inj == nil {
		return nil
	}
	if s.ran {
		return fmt.Errorf("core: AttachFaults after Run")
	}
	if s.cfg.Design == config.DesignH {
		return fmt.Errorf("core: fault injection needs NDP units; design %s has none", s.cfg.Design)
	}
	if err := plan.Validate(s.cfg.Geometry.Units(), s.cfg.Geometry.Ranks()); err != nil {
		return err
	}
	if plan.NeedsBridges() && !s.cfg.Design.UsesBridges() {
		return fmt.Errorf("core: message/overflow faults need the bridge fabric; design %s has none", s.cfg.Design)
	}
	s.inj = inj
	s.injPlan = plan
	s.injSeed = seed
	s.respawned = make(map[uint64]bool)
	for _, u := range s.units {
		u.EnableFaults()
		u.SetLostHook(s.lostMessage)
	}
	if s.cfg.Design.UsesBridges() {
		perRank := s.cfg.Geometry.UnitsPerRank()
		for r, b := range s.bridges {
			b.EnableFaults(inj, true, s.lostMessage)
			for _, u := range s.units[r*perRank : (r+1)*perRank] {
				u.EnableRetry(b)
			}
		}
		s.l2.EnableFaults(inj, true)
	}
	return nil
}

// scheduleFaults arms the injector's event schedule and the watchdog. Called
// once from Run, after the application is seeded.
func (s *System) scheduleFaults() {
	if s.inj == nil {
		return
	}
	for _, ev := range s.inj.UnitEvents() {
		ev := ev
		if ev.Kill {
			s.eng.At(ev.At, func() { s.killUnit(ev.Unit) })
		} else {
			s.eng.At(ev.At, func() { s.stallUnit(ev.Unit, ev.Cycles) })
		}
	}
	for _, ev := range s.inj.OverflowEvents() {
		ev := ev
		s.eng.At(ev.At, func() {
			s.inj.CountOverflow()
			now := uint64(s.eng.Now())
			s.rec.Mark(trace.MarkOverflow, -1, uint32(ev.Rank), now, now+uint64(ev.Cycles))
			b := s.bridges[ev.Rank]
			b.InjectOverflow(ev.Bytes)
			s.eng.After(ev.Cycles, func() { b.ClearOverflow(ev.Bytes) })
		})
	}
	// The watchdog period must exceed every recoverable latency the plan can
	// cause — the longest stall/delay/overflow window and a full retry
	// backoff — so it only fires on genuine lack of progress.
	wdPeriod := s.cfg.Retry.BackoffCap + sim.Cycles(s.injPlan.MaxCycles()) + 8*s.cfg.IState
	s.wd = sim.NewWatchdog(s.eng, wdPeriod, 4,
		// Admission activity (offers, sheds, injections) counts as progress
		// through s.progress, so an open-loop overload interval that
		// correctly sheds every arrival is not mistaken for a stall; a
		// backed-up admission queue counts as pending work, so a fabric
		// that stops draining it is.
		func() uint64 { return s.progress },
		func() bool {
			if s.outstanding[s.epoch] != 0 || s.inflight != 0 {
				return true
			}
			return s.serve != nil && s.serve.src.QueueLen() > 0
		},
		func() { s.eng.Stop() })
	s.wd.Start()
}

// stallUnit freezes one unit's compute pipeline for d cycles.
func (s *System) stallUnit(id int, d sim.Cycles) {
	u := s.units[id]
	if u.Dead() {
		return
	}
	s.inj.CountStall()
	now := uint64(s.eng.Now())
	s.rec.Mark(trace.MarkStall, id, 0, now, now+uint64(d))
	u.Stall(s.eng.Now() + d)
	u.Kick() // arm the wake-up even if the unit is idle right now
}

// killUnit permanently removes one unit and runs the full recovery protocol:
// quarantine, address-range re-homing, exactly-once task re-spawn, terminal
// message resolution, and metadata healing.
func (s *System) killUnit(id int) {
	u := s.units[id]
	if u.Dead() {
		return
	}
	s.inj.CountKill()
	now := uint64(s.eng.Now())
	s.rec.Mark(trace.MarkKill, id, 0, now, now)

	rem := u.Extinguish()

	// Re-home the dead unit's address range to a surviving buddy so future
	// routing (and re-spawned tasks) resolve somewhere that can execute.
	alive := func(x int) bool { return !s.units[x].Dead() }
	if buddy := sched.PickBuddy(id, s.cfg.Geometry.UnitsPerRank(), len(s.units), alive); buddy >= 0 {
		s.amap.Rehome(id, buddy)
	}

	// Blocks whose only copy died with the unit: everything it had borrowed.
	held := u.BorrowedBlocks()

	if len(s.bridges) > 0 {
		b := s.bridges[s.amap.GlobalRank(id)]
		for _, m := range b.KillChild(id) {
			s.lostMessage(m)
		}
		// Unacked gather messages: mark their sequence numbers consumed at
		// the bridge so a delayed copy still in flight is discarded, then
		// resolve them terminally.
		for _, m := range rem.Unacked {
			b.MarkGathered(id, m.Seq)
			s.lostMessage(m)
		}
		held = append(held, b.PurgeBorrowedTo(id)...)
	} else {
		for _, m := range rem.Unacked {
			s.lostMessage(m)
		}
	}
	for _, m := range rem.Msgs {
		s.lostMessage(m)
	}
	for _, t := range rem.Tasks {
		s.respawnTask(t)
	}
	for _, blk := range held {
		s.recoverBlock(blk)
	}
	if len(s.bridges) > 0 {
		s.bridges[s.amap.GlobalRank(id)].Kick()
	}
	s.kickAll()
}

// lostMessage terminally resolves a message that can never be delivered:
// tasks re-spawn at their (possibly re-homed) home, data blocks heal their
// lender's isLent bit. The in-flight count is released exactly once per
// logical message — the callers guarantee single resolution via the
// sequence-number claims.
func (s *System) lostMessage(m *msg.Message) {
	s.fMsgsLost++
	switch m.Type {
	case msg.TypeTask:
		s.respawnTask(m.Task)
	case msg.TypeData:
		s.recoverBlock(m.BlockAddr)
	}
	s.MsgDelivered()
}

// respawnTask re-homes a task recovered from a dead unit. The map dedups by
// task ID so each logical task is adopted at most once — the original spawn
// still holds the epoch's outstanding count, and the adopted copy releases
// it on completion.
func (s *System) respawnTask(t task.Task) {
	if t.ID != 0 {
		if s.respawned[t.ID] {
			return
		}
		s.respawned[t.ID] = true
	}
	home := s.amap.Home(t.Addr)
	u := s.units[home]
	if u.Dead() {
		// No surviving buddy serves this range: the task cannot re-home,
		// the epoch cannot drain, and the watchdog will report it.
		return
	}
	s.fTasksRespawned++
	u.AdoptTask(t)
}

// recoverBlock heals the migration metadata for a block whose borrowed copy
// (or in-flight lend) died: the home copy becomes authoritative again and
// every routing-table entry for the block is dropped.
func (s *System) recoverBlock(addr uint64) {
	raw := s.amap.HomeRaw(addr)
	if s.units[raw].RecoverLent(addr) {
		s.fBlocksRecovered++
	}
	blk := dram.BlockAlign(addr, s.cfg.GXfer)
	if len(s.bridges) > 0 {
		s.bridges[s.amap.GlobalRank(raw)].DropBorrowed(blk)
	}
	if s.l2 != nil {
		s.l2.DropBorrowed(blk)
	}
}

// faultResult builds the run's fault/recovery summary and exports it to the
// metrics registry. Returns nil when no fault plan was attached.
func (s *System) faultResult() *stats.FaultStats {
	if s.inj == nil {
		return nil
	}
	c := s.inj.Counters()
	fs := &stats.FaultStats{
		Drops:      c.Drops,
		Corrupts:   c.Corrupts,
		Duplicates: c.Duplicates,
		Delays:     c.Delays,
		Stalls:     c.Stalls,
		Kills:      c.Kills,
		Overflows:  c.Overflows,

		MsgsLost:        s.fMsgsLost,
		TasksRespawned:  s.fTasksRespawned,
		BlocksRecovered: s.fBlocksRecovered,
		WatchdogTripped: s.wd != nil && s.wd.Tripped(),
	}
	var rs msg.RetransStats
	var dups uint64
	add := func(r msg.RetransStats, d uint64) {
		rs.Tracked += r.Tracked
		rs.Acked += r.Acked
		rs.Nacked += r.Nacked
		rs.Retries += r.Retries
		dups += d
	}
	for _, u := range s.units {
		add(u.RetryStats())
	}
	for _, b := range s.bridges {
		add(b.RetryStats())
	}
	if s.l2 != nil {
		add(s.l2.RetryStats())
	}
	fs.Retries = rs.Retries
	fs.Nacks = rs.Nacked
	fs.DupsFiltered = dups
	if s.met != nil {
		s.met.Counter("fault_retries").Add(fs.Retries)
		s.met.Counter("fault_nacks").Add(fs.Nacks)
		s.met.Counter("fault_dups_filtered").Add(fs.DupsFiltered)
		s.met.Counter("fault_msgs_lost").Add(fs.MsgsLost)
		s.met.Counter("fault_tasks_respawned").Add(fs.TasksRespawned)
		s.met.Counter("fault_blocks_recovered").Add(fs.BlocksRecovered)
	}
	return fs
}

// faultDiagnose renders the fault-side evidence appended to watchdog and
// convergence errors: what fired, what recovered, and which units are dead.
func (s *System) faultDiagnose() string {
	if s.inj == nil {
		return ""
	}
	out := fmt.Sprintf("\n  faults fired: %s", s.inj.Counters())
	out += fmt.Sprintf("\n  recovery: msgsLost=%d tasksRespawned=%d blocksRecovered=%d",
		s.fMsgsLost, s.fTasksRespawned, s.fBlocksRecovered)
	var dead []int
	for i, u := range s.units {
		if u.Dead() {
			dead = append(dead, i)
		}
	}
	if len(dead) > 0 {
		out += fmt.Sprintf("\n  dead units: %v", dead)
	}
	return out
}
