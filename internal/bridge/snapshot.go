package bridge

import (
	"sort"

	"ndpbridge/internal/checkpoint"
	"ndpbridge/internal/msg"
)

// This file is the bridge fabric's serialization boundary. Snapshots are
// taken at the bulk-sync epoch barrier, where the transient buffers
// (scatter, backup, upMail, retransmit windows) are provably empty — but the
// codec encodes them anyway: a non-empty buffer at snapshot time then shows
// up as a digest mismatch or audit violation instead of being silently
// dropped. Map-backed state (toArrive, assign, idle) is encoded in sorted
// key order so the byte stream is deterministic.

// encodeFIFO encodes one bridge message queue: its byte occupancy, then its
// messages front to back.
func encodeFIFO(e *checkpoint.Enc, q *msg.FIFO) {
	e.U64(q.Bytes())
	e.U32(uint32(q.Len()))
	for _, m := range q.Msgs() {
		msg.EncodeSnapshot(e, m)
	}
}

// SnapshotTo encodes the level-1 bridge's complete mutable state.
func (b *Level1) SnapshotTo(e *checkpoint.Enc) {
	e.I64(int64(b.rank))
	e.U64(b.rng.State())
	e.Bool(b.running)
	e.I64(int64(b.roundIdx))
	e.U64(b.lastGather)
	e.U32(b.nextRound)
	e.U64(b.prevFinished)
	e.U64(b.wth)

	// Counters.
	e.U64(b.st.GatherRounds)
	e.U64(b.st.ScatterRounds)
	e.U64(b.st.WastedGathers)
	e.U64(b.st.BusBytes)
	e.U64(b.st.LBRounds)
	e.U64(b.st.BlocksAssigned)
	e.U64(b.st.StateSweeps)

	// Transient buffers.
	e.U32(uint32(len(b.scatter)))
	for c := range b.scatter {
		encodeFIFO(e, &b.scatter[c])
	}
	encodeFIFO(e, &b.backup)
	b.upMail.SnapshotTo(e)

	// Migration metadata and LB round state.
	b.borrowed.SnapshotTo(e)
	children := make([]int, 0, len(b.toArrive))
	for c := range b.toArrive {
		children = append(children, c)
	}
	sort.Ints(children)
	e.U32(uint32(len(children)))
	for _, c := range children {
		e.I64(int64(c))
		e.U64(b.toArrive[c])
	}
	keys := make([]schedKey, 0, len(b.assign))
	for k := range b.assign {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].giver != keys[j].giver {
			return keys[i].giver < keys[j].giver
		}
		return keys[i].round < keys[j].round
	})
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		a := b.assign[k]
		e.I64(int64(k.giver))
		e.U32(k.round)
		e.Bool(a.up)
		e.I64(int64(a.next))
		e.U32(uint32(len(a.receivers)))
		for _, r := range a.receivers {
			e.I64(int64(r))
		}
		blocks := make([]uint64, 0, len(a.blockTo))
		for blk := range a.blockTo {
			blocks = append(blocks, blk)
		}
		sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
		e.U32(uint32(len(blocks)))
		for _, blk := range blocks {
			e.U64(blk)
			e.I64(int64(a.blockTo[blk]))
		}
	}

	// Per-child last-reported states.
	e.U32(uint32(len(b.lastStates)))
	for i := range b.lastStates {
		st := &b.lastStates[i]
		e.U64(st.LMailbox)
		e.U64(st.WQueue)
		e.U64(st.WFinished)
	}

	// Retry-protocol endpoints (fault runs only).
	e.Bool(b.fi != nil)
	if b.fi == nil {
		return
	}
	e.U32(b.fi.upSeq)
	e.U64(b.fi.extraBackup)
	e.U32(uint32(len(b.fi.scatterSeq)))
	for i := range b.fi.scatterSeq {
		e.U32(b.fi.scatterSeq[i])
		b.fi.gatherDedup[i].SnapshotTo(e)
		e.Bool(b.fi.scatterRet[i] != nil)
		if b.fi.scatterRet[i] != nil {
			b.fi.scatterRet[i].SnapshotTo(e)
		}
		e.Bool(b.fi.dead[i])
	}
	e.Bool(b.fi.upRet != nil)
	if b.fi.upRet != nil {
		b.fi.upRet.SnapshotTo(e)
	}
	b.fi.downDedup.SnapshotTo(e)
}

// PendingMsgs returns the number of messages physically held by the bridge
// (scatter buffers, backup buffer, up-mailbox), for the auditor's structural
// in-flight accounting.
func (b *Level1) PendingMsgs() int {
	n := 0
	for c := range b.scatter {
		n += b.scatter[c].Len()
	}
	n += b.backup.Len()
	n += b.upMail.Len()
	return n
}

// QueueBytes returns the recorded byte occupancy of the bridge's scatter,
// backup and up-mail queues and their messages' wire size recomputed now,
// for the auditor's byte-accounting check.
func (b *Level1) QueueBytes() (recorded, recomputed uint64) {
	recorded, recomputed = b.upMail.CheckBytes()
	add := func(q *msg.FIFO) {
		r, c := q.CheckBytes()
		recorded, recomputed = recorded+r, recomputed+c
	}
	for c := range b.scatter {
		add(&b.scatter[c])
	}
	add(&b.backup)
	return recorded, recomputed
}

// RetransPending returns the number of unacked messages across all of the
// bridge's retransmit buffers (zero when faults are off).
func (b *Level1) RetransPending() int {
	if b.fi == nil {
		return 0
	}
	n := 0
	for _, r := range b.fi.scatterRet {
		if r != nil {
			n += r.Len()
		}
	}
	if b.fi.upRet != nil {
		n += b.fi.upRet.Len()
	}
	return n
}

// SeqWatermarks returns the bridge's hop sequence counters — the up-hop
// sender sequence and the per-child scatter sequences — for the auditor's
// monotonicity check. Nil when faults are off.
func (b *Level1) SeqWatermarks() (up uint32, scatter []uint32) {
	if b.fi == nil {
		return 0, nil
	}
	return b.fi.upSeq, b.fi.scatterSeq
}

// SnapshotTo encodes the level-2 bridge's complete mutable state.
func (l *Level2) SnapshotTo(e *checkpoint.Enc) {
	e.U64(l.rng.State())
	e.U32(l.nextRound)

	e.U64(l.st.GatherBatches)
	e.U64(l.st.ScatterBatches)
	e.U64(l.st.CrossRankBytes)
	e.U64(l.st.LBRounds)
	e.U64(l.st.BlocksAssigned)

	e.U32(uint32(len(l.scatterQ)))
	for r := range l.scatterQ {
		encodeFIFO(e, &l.scatterQ[r])
	}
	e.U32(uint32(len(l.running)))
	for _, r := range l.running {
		e.Bool(r)
	}
	ranks := make([]int, 0, len(l.idle))
	for r, v := range l.idle {
		if v {
			ranks = append(ranks, r)
		}
	}
	sort.Ints(ranks)
	e.U32(uint32(len(ranks)))
	for _, r := range ranks {
		e.I64(int64(r))
	}

	l.borrowed.SnapshotTo(e)
	keys := make([]schedKey, 0, len(l.assign))
	for k := range l.assign {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].giver != keys[j].giver {
			return keys[i].giver < keys[j].giver
		}
		return keys[i].round < keys[j].round
	})
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		a := l.assign[k]
		e.I64(int64(k.giver))
		e.U32(k.round)
		e.I64(int64(a.next))
		e.U32(uint32(len(a.receivers)))
		for _, r := range a.receivers {
			e.I64(int64(r))
		}
		blocks := make([]uint64, 0, len(a.blockTo))
		for blk := range a.blockTo {
			blocks = append(blocks, blk)
		}
		sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
		e.U32(uint32(len(blocks)))
		for _, blk := range blocks {
			e.U64(blk)
			e.I64(int64(a.blockTo[blk]))
		}
	}

	e.Bool(l.fi != nil)
	if l.fi == nil {
		return
	}
	e.U32(uint32(len(l.fi.downSeq)))
	for i := range l.fi.downSeq {
		e.U32(l.fi.downSeq[i])
		l.fi.upDedup[i].SnapshotTo(e)
		e.Bool(l.fi.downRet[i] != nil)
		if l.fi.downRet[i] != nil {
			l.fi.downRet[i].SnapshotTo(e)
		}
	}
}

// PendingMsgs returns the number of messages queued for channel transfer,
// for the auditor's structural in-flight accounting.
func (l *Level2) PendingMsgs() int {
	n := 0
	for r := range l.scatterQ {
		n += l.scatterQ[r].Len()
	}
	return n
}

// QueueBytes returns the recorded byte occupancy of the per-rank channel
// queues and their messages' wire size recomputed now, for the auditor's
// byte-accounting check.
func (l *Level2) QueueBytes() (recorded, recomputed uint64) {
	for r := range l.scatterQ {
		rb, c := l.scatterQ[r].CheckBytes()
		recorded, recomputed = recorded+rb, recomputed+c
	}
	return recorded, recomputed
}

// RetransPending returns the number of unacked messages across the level-2
// down-hop retransmit buffers (zero when faults are off).
func (l *Level2) RetransPending() int {
	if l.fi == nil {
		return 0
	}
	n := 0
	for _, r := range l.fi.downRet {
		if r != nil {
			n += r.Len()
		}
	}
	return n
}
