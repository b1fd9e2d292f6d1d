package metadata

import "testing"

var sinkValue uint64

// benchBridgeTable is a bridge-sized table (64k entries, 16-way) holding
// one entry in each of the first 64 sets it is given keys for, the sparse
// occupancy a 512-unit run leaves in most bridges. It returns the stored
// keys and a key whose set was never touched.
func benchBridgeTable() (b *Borrowed, hits []uint64, miss uint64) {
	b = NewBorrowed(65536, 16)
	touched := map[uint32]bool{}
	for k := uint64(1); len(touched) < 64; k++ {
		key := k << 8
		touched[b.setIndex(key)] = true
		b.Insert(key, k)
		hits = append(hits, key)
	}
	for k := uint64(1 << 20); ; k++ {
		if !touched[b.setIndex(k<<8)] {
			return b, hits, k << 8
		}
	}
}

// BenchmarkBorrowedLookupHit: lookups that find their key, cycling over the
// stored keys so no lookup repeats the previous one.
func BenchmarkBorrowedLookupHit(b *testing.B) {
	t, hits, _ := benchBridgeTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := t.Lookup(hits[i%len(hits)])
		sinkValue += v
	}
}

// BenchmarkBorrowedLookupMissUntouched: a lookup on a set that never held
// an entry — over half of all bridge-table lookups in a 512-unit run.
func BenchmarkBorrowedLookupMissUntouched(b *testing.B) {
	t, _, miss := benchBridgeTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := t.Lookup(miss)
		sinkValue += v
	}
}
