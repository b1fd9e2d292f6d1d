package mailbox

import (
	"testing"

	"ndpbridge/internal/checkpoint"
	"ndpbridge/internal/msg"
)

func TestMailboxSnapshotRoundTrip(t *testing.T) {
	mb := New(1 << 10)
	for i := uint32(1); i <= 5; i++ {
		if !mb.Enqueue(&msg.Message{Type: msg.TypeState, Src: int(i), Dst: 0, Seq: i, State: &msg.State{WQueue: uint64(i)}}) {
			t.Fatal("enqueue failed")
		}
	}
	mb.Dequeue() // non-zero head
	mb.Dequeue()

	var e checkpoint.Enc
	mb.SnapshotTo(&e)

	r := New(1 << 10)
	if err := r.RestoreFrom(checkpoint.NewDec(e.Data())); err != nil {
		t.Fatal(err)
	}
	if r.Len() != mb.Len() || r.Used() != mb.Used() {
		t.Fatalf("restored len=%d used=%d, want %d, %d", r.Len(), r.Used(), mb.Len(), mb.Used())
	}
	re, rd, rs, rp := r.Stats()
	oe, od, osn, op := mb.Stats()
	if re != oe || rd != od || rs != osn || rp != op {
		t.Errorf("restored stats (%d %d %d %d), want (%d %d %d %d)", re, rd, rs, rp, oe, od, osn, op)
	}
	for {
		want, ok1 := mb.Dequeue()
		got, ok2 := r.Dequeue()
		if ok1 != ok2 {
			t.Fatal("dequeue availability diverged")
		}
		if !ok1 {
			break
		}
		if got.Seq != want.Seq || got.Src != want.Src {
			t.Fatalf("got seq %d from %d, want seq %d from %d", got.Seq, got.Src, want.Seq, want.Src)
		}
	}
}

func TestMailboxSnapshotCapacityMismatch(t *testing.T) {
	mb := New(512)
	var e checkpoint.Enc
	mb.SnapshotTo(&e)
	r := New(1024)
	if err := r.RestoreFrom(checkpoint.NewDec(e.Data())); err == nil {
		t.Fatal("capacity mismatch not rejected")
	}
}

// TestMailboxSnapshotOccupancyMismatch: a snapshot whose encoded occupancy
// disagrees with the summed wire size of its messages is rejected.
func TestMailboxSnapshotOccupancyMismatch(t *testing.T) {
	m := &msg.Message{Type: msg.TypeState, State: &msg.State{}}
	var e checkpoint.Enc
	e.U64(1 << 10)
	e.U32(1)
	msg.EncodeSnapshot(&e, m)
	e.U64(m.Size() + 1) // occupancy off by one byte
	for i := 0; i < 4; i++ {
		e.U64(0)
	}
	if err := New(1 << 10).RestoreFrom(checkpoint.NewDec(e.Data())); err == nil {
		t.Fatal("occupancy mismatch not rejected")
	}
}
