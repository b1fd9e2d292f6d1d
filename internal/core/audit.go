package core

import (
	"fmt"

	"ndpbridge/internal/audit"
	"ndpbridge/internal/sim"
)

// The invariant auditor cross-checks the simulation's conservation laws
// while it runs. Two tiers:
//
//   - Weak checks fire from the engine's audit hook every N cycles, at an
//     arbitrary point between events: lifetime totals must balance the live
//     accounting (tasks spawned = executed + outstanding; messages staged =
//     delivered + in flight), every mailbox and bridge queue's byte total
//     must equal its messages' recomputed wire sizes, and the retry-protocol
//     sequence counters must never move backwards.
//
//   - Strong checks fire at every bulk-sync barrier, where the fabric is
//     provably drained: no component may hold a residual message (mailboxes,
//     staging buffers, scatter/backup queues, retransmit windows) or residual
//     queue bytes, the
//     isLent / dataBorrowed metadata must agree, and the state encoders
//     must be deterministic (two encodings, one digest) — the property the
//     checkpoint digests stand on.
//
// The first violation stops the engine; Run returns an *audit.Error listing
// everything observed. Metadata agreement is only checked on fault-free
// runs: kill/recovery deliberately desynchronizes the tables until the
// recovery protocol repairs them.
type auditor struct {
	s   *System
	log *audit.Log

	// Sequence watermarks from the previous weak check.
	unitSeq    []uint32
	bridgeUp   []uint32
	bridgeScat [][]uint32

	// digestPace spaces the expensive snapshot-determinism check with
	// exponential backoff (see audit.Backoff): encoding the full system
	// state at every barrier (or even every audit period) would dominate
	// long runs, and the property it guards — encoder determinism — is
	// structural, so a handful of probes per run spread across its
	// lifetime suffices.
	every      sim.Cycles
	digestPace *audit.Backoff
	// stateDigest is the snapshot encoder probed by the determinism check.
	// It is a field (defaulting to System.StateDigest) so tests can swap in
	// a misbehaving encoder and prove the check fires.
	stateDigest func() uint64

	checks uint64 // weak checks run, for overhead accounting
}

// AttachAudit enables the invariant auditor, running the weak checks every
// `every` cycles and the strong checks at every bulk-sync barrier. Attach
// before Run.
func (s *System) AttachAudit(every sim.Cycles) error {
	if s.ran {
		return fmt.Errorf("core: AttachAudit after Run")
	}
	if s.aud != nil {
		return fmt.Errorf("core: AttachAudit called twice")
	}
	if every == 0 {
		every = 1 << 14
	}
	a := &auditor{
		s:          s,
		log:        &audit.Log{},
		unitSeq:    make([]uint32, len(s.units)),
		bridgeUp:   make([]uint32, len(s.bridges)),
		bridgeScat: make([][]uint32, len(s.bridges)),
		every:      every,
		digestPace: audit.NewBackoff(uint64(every), 256),
	}
	a.stateDigest = s.StateDigest
	s.aud = a
	s.eng.SetAudit(every, a.weak)
	s.addEpochHook(a.strong)
	return nil
}

// violate records v and stops the engine so Run fails fast.
func (a *auditor) violate(v audit.Violation) {
	v.Cycle = a.s.eng.Now()
	a.log.Add(v)
	a.s.eng.Stop()
}

// weak runs the any-time conservation checks.
func (a *auditor) weak(now sim.Cycles) {
	s := a.s
	a.checks++

	var outstanding uint64
	for _, n := range s.outstanding {
		outstanding += n
	}
	if got := s.tasksSpawnedTotal - s.tasksDoneTotal; got != outstanding {
		a.violate(audit.Violation{
			Rule: "task-conservation", Where: "system",
			Expected: outstanding, Actual: got,
			Detail: fmt.Sprintf("spawned %d, done %d, outstanding-by-epoch %d", s.tasksSpawnedTotal, s.tasksDoneTotal, outstanding),
		})
	}
	if got := s.msgsStagedTotal - s.msgsDeliveredTotal; got != s.inflight {
		a.violate(audit.Violation{
			Rule: "msg-conservation", Where: "system",
			Expected: s.inflight, Actual: got,
			Detail: fmt.Sprintf("staged %d, delivered %d", s.msgsStagedTotal, s.msgsDeliveredTotal),
		})
	}

	a.queueBytes()

	// Retry sequence counters are append-only; a regression means a
	// retransmit window or sender was mis-restored or double-allocated.
	for i, u := range s.units {
		if seq := u.GatherSeq(); seq < a.unitSeq[i] {
			a.violate(audit.Violation{
				Rule: "seq-monotonic", Where: fmt.Sprintf("unit %d", i),
				Expected: uint64(a.unitSeq[i]), Actual: uint64(seq), Detail: "gather hop",
			})
		} else {
			a.unitSeq[i] = seq
		}
	}
	for i, b := range s.bridges {
		up, scat := b.SeqWatermarks()
		if up < a.bridgeUp[i] {
			a.violate(audit.Violation{
				Rule: "seq-monotonic", Where: fmt.Sprintf("bridge %d", i),
				Expected: uint64(a.bridgeUp[i]), Actual: uint64(up), Detail: "up hop",
			})
		} else {
			a.bridgeUp[i] = up
		}
		if a.bridgeScat[i] == nil {
			a.bridgeScat[i] = make([]uint32, len(scat))
		}
		for c, sq := range scat {
			if sq < a.bridgeScat[i][c] {
				a.violate(audit.Violation{
					Rule: "seq-monotonic", Where: fmt.Sprintf("bridge %d child %d", i, c),
					Expected: uint64(a.bridgeScat[i][c]), Actual: uint64(sq), Detail: "scatter hop",
				})
			} else {
				a.bridgeScat[i][c] = sq
			}
		}
	}
}

// queueBytes checks that every mailbox's and bridge queue's running byte
// total equals the wire sizes of its queued messages recomputed — budget
// loops read the sizes recorded at push, so a drifted total or a message
// whose size changed while queued would skew bus occupancy unnoticed.
func (a *auditor) queueBytes() {
	s := a.s
	for i, u := range s.units {
		if r, c := u.QueueBytes(); r != c {
			a.queueBytesViolation(fmt.Sprintf("unit %d", i), r, c)
		}
	}
	for i, b := range s.bridges {
		if r, c := b.QueueBytes(); r != c {
			a.queueBytesViolation(fmt.Sprintf("bridge %d", i), r, c)
		}
	}
	if s.l2 != nil {
		if r, c := s.l2.QueueBytes(); r != c {
			a.queueBytesViolation("l2", r, c)
		}
	}
}

func (a *auditor) queueBytesViolation(where string, recorded, recomputed uint64) {
	a.violate(audit.Violation{
		Rule: "queue-bytes", Where: where,
		Expected: recomputed, Actual: recorded,
		Detail: "recorded queue bytes vs recomputed message sizes",
	})
}

// strong runs the barrier checks, where the drained fabric makes exact
// assertions possible.
func (a *auditor) strong(completed uint32) {
	s := a.s

	a.queueBytes()

	if s.inflight != 0 {
		a.violate(audit.Violation{
			Rule: "barrier-residue", Where: "system",
			Expected: 0, Actual: s.inflight,
			Detail: fmt.Sprintf("in-flight messages at barrier of epoch %d", completed),
		})
	}
	for i, u := range s.units {
		if n := u.PendingMsgs(); n != 0 {
			a.violate(audit.Violation{
				Rule: "barrier-residue", Where: fmt.Sprintf("unit %d", i),
				Expected: 0, Actual: uint64(n), Detail: "staged/mailboxed messages",
			})
		}
		if n := u.RetransPending(); n != 0 {
			a.violate(audit.Violation{
				Rule: "barrier-residue", Where: fmt.Sprintf("unit %d", i),
				Expected: 0, Actual: uint64(n), Detail: "unacked gather-hop messages",
			})
		}
	}
	for i, b := range s.bridges {
		if n := b.PendingMsgs(); n != 0 {
			a.violate(audit.Violation{
				Rule: "barrier-residue", Where: fmt.Sprintf("bridge %d", i),
				Expected: 0, Actual: uint64(n), Detail: "scatter/backup/up-mail messages",
			})
		}
		if n := b.RetransPending(); n != 0 {
			a.violate(audit.Violation{
				Rule: "barrier-residue", Where: fmt.Sprintf("bridge %d", i),
				Expected: 0, Actual: uint64(n), Detail: "unacked messages",
			})
		}
	}
	if s.l2 != nil {
		if n := s.l2.PendingMsgs(); n != 0 {
			a.violate(audit.Violation{
				Rule: "barrier-residue", Where: "l2",
				Expected: 0, Actual: uint64(n), Detail: "queued channel messages",
			})
		}
		if n := s.l2.RetransPending(); n != 0 {
			a.violate(audit.Violation{
				Rule: "barrier-residue", Where: "l2",
				Expected: 0, Actual: uint64(n), Detail: "unacked messages",
			})
		}
	}

	// Metadata agreement: every borrowed block's home must have it marked
	// lent, and (fault-free only — recovery transients desynchronize the
	// tables) the global lent and borrowed counts must match.
	if s.inj == nil {
		var lent, borrowed uint64
		for _, u := range s.units {
			lent += uint64(u.LentCount())
			borrowed += uint64(u.BorrowedCount())
			for _, blk := range u.BorrowedBlocks() {
				home := s.amap.Home(blk)
				if !s.units[home].LentAt(blk) {
					a.violate(audit.Violation{
						Rule: "lent-borrowed", Where: fmt.Sprintf("unit %d", u.ID()),
						Expected: 1, Actual: 0,
						Detail: fmt.Sprintf("block %#x borrowed here but home unit %d has no isLent bit", blk, home),
					})
				}
			}
		}
		if lent != borrowed {
			a.violate(audit.Violation{
				Rule: "lent-borrowed", Where: "system",
				Expected: lent, Actual: borrowed,
				Detail: "global isLent count vs dataBorrowed entries",
			})
		}
	}

	// Snapshot determinism: two encodings of the same barrier state must
	// hash identically, or checkpoint digests are meaningless. Encoding
	// the whole system is the auditor's one expensive check, so it backs
	// off exponentially: early barriers are probed densely (small state,
	// cheap), later ones ever more sparsely.
	if a.digestPace.Due(uint64(s.eng.Now())) {
		d1 := a.stateDigest()
		d2 := a.stateDigest()
		if d1 != d2 {
			a.violate(audit.Violation{
				Rule: "snapshot-determinism", Where: "system",
				Expected: d1, Actual: d2,
				Detail: "state encoders iterate an unsorted map",
			})
		}
	}
}

// AuditChecks reports how many weak audit passes ran (0 when the auditor is
// off), for overhead accounting in tests.
func (s *System) AuditChecks() uint64 {
	if s.aud == nil {
		return 0
	}
	return s.aud.checks
}
