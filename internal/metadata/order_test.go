package metadata

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"ndpbridge/internal/checkpoint"
)

// scriptedBorrowed drives a 16-set, 4-way table through a fixed mix of
// inserts (with evictions), updates, lookups — repeated ones too, across
// inserts that grow or evict in the looked-up set — and removes.
func scriptedBorrowed() *Borrowed {
	b := NewBorrowed(64, 4)
	x := uint64(12345)
	var prev uint64
	for i := 0; i < 400; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		key := (x >> 40) % 150 << 8
		switch i % 5 {
		case 0, 1, 2:
			b.Insert(key, uint64(i))
			b.Lookup(prev)
		case 3:
			b.Lookup(key)
			b.Lookup(key)
		case 4:
			b.Remove(key)
			b.Lookup(key)
		}
		prev = key
	}
	return b
}

// TestBorrowedSnapshotDigestPinned pins the snapshot bytes of a scripted
// insert/evict/remove sequence. The digest was recorded from the map-backed
// table this layout replaced, so victim choice, slot numbering, LRU state
// and the sparse encoding are all unchanged.
func TestBorrowedSnapshotDigestPinned(t *testing.T) {
	const want = "de765a0e76b4539e8e1f57531a8218ffb02e8c1a83f6a05912b28ff0d8114110"
	b := scriptedBorrowed()
	var e checkpoint.Enc
	b.SnapshotTo(&e)
	sum := sha256.Sum256(e.Data())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("snapshot digest %s, want %s", got, want)
	}

	// A restored table re-encodes to the same bytes.
	r := NewBorrowed(64, 4)
	if err := r.RestoreFrom(checkpoint.NewDec(e.Data())); err != nil {
		t.Fatal(err)
	}
	var e2 checkpoint.Enc
	r.SnapshotTo(&e2)
	if string(e2.Data()) != string(e.Data()) {
		t.Error("restored table encodes differently")
	}
}

// TestBorrowedIterationOrder checks that ForEach and SnapshotTo both visit
// entries in ascending (set, way) order, whatever order sets were first
// touched in.
func TestBorrowedIterationOrder(t *testing.T) {
	b := scriptedBorrowed()
	if b.Len() == 0 {
		t.Fatal("script left the table empty")
	}
	var e checkpoint.Enc
	b.SnapshotTo(&e)
	d := checkpoint.NewDec(e.Data())
	d.I64()
	d.I64()
	d.U64()
	n := int(d.U32())
	if n != b.Len() {
		t.Fatalf("snapshot holds %d entries, table %d", n, b.Len())
	}
	var keys []uint64
	prev := -1
	for k := 0; k < n; k++ {
		slot := int(d.U32())
		key := d.U64()
		d.U64()
		d.U64()
		if slot <= prev {
			t.Fatalf("snapshot slot %d after %d: not ascending", slot, prev)
		}
		if si := int(b.setIndex(key)); si != slot/b.ways {
			t.Fatalf("key %#x in slot %d, but its set is %d", key, slot, si)
		}
		prev = slot
		keys = append(keys, key)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	i := 0
	b.ForEach(func(k, _ uint64) {
		if i >= len(keys) || keys[i] != k {
			t.Fatalf("ForEach visit %d is %#x, snapshot order differs", i, k)
		}
		i++
	})
	if i != len(keys) {
		t.Fatalf("ForEach visited %d entries, want %d", i, len(keys))
	}
}

// TestBorrowedLookupCacheInvalidation: a Lookup that repeats the previous
// hit must still see every Insert and Remove in between — a set that grew
// (and moved) or an entry that was cleared.
func TestBorrowedLookupCacheInvalidation(t *testing.T) {
	b := NewBorrowed(4, 4) // one set, so every key shares it
	b.Insert(1<<8, 1)
	b.Lookup(1 << 8)
	b.Insert(2<<8, 2) // grows the set: its storage moves
	b.Lookup(1 << 8)  // must refresh key 1 in the moved storage
	b.Insert(3<<8, 3)
	b.Insert(4<<8, 4)
	if ev, ok := b.Insert(5<<8, 5); !ok || ev.Key != 2<<8 {
		t.Fatalf("evicted %#x (%v), want the least recently used key %#x", ev.Key, ok, 2<<8)
	}

	b = NewBorrowed(4, 4)
	b.Insert(1<<8, 7)
	b.Lookup(1 << 8)
	b.Remove(1 << 8) // clears the cached entry to key 0
	if v, ok := b.Lookup(0); ok {
		t.Fatalf("Lookup(0) on a table without key 0 = %d, true", v)
	}

	// Restoring an empty snapshot clears the cached entry too.
	var e checkpoint.Enc
	NewBorrowed(4, 4).SnapshotTo(&e)
	b.Insert(1<<8, 7)
	b.Lookup(1 << 8)
	if err := b.RestoreFrom(checkpoint.NewDec(e.Data())); err != nil {
		t.Fatal(err)
	}
	if v, ok := b.Lookup(0); ok {
		t.Fatalf("Lookup(0) after restoring an empty table = %d, true", v)
	}
}
