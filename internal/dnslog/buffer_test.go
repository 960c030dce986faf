package dnslog

import (
	"testing"

	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/simtime"
)

// fillBuffer appends n records whose Time encodes their append index.
func fillBuffer(b *Buffer, n int) {
	for i := 0; i < n; i++ {
		b.Append(Record{
			Time:       simtime.Time(i),
			Originator: ipaddr.Addr(uint32(i)),
			Querier:    ipaddr.Addr(uint32(i * 7)),
		})
	}
}

// TestBufferAppendFlatten crosses several chunk boundaries and checks
// Flatten preserves append order with an exact-size result.
func TestBufferAppendFlatten(t *testing.T) {
	var b Buffer
	n := 2*bufChunk + 37
	fillBuffer(&b, n)
	if b.Len() != n {
		t.Fatalf("Len = %d, want %d", b.Len(), n)
	}
	out := b.Flatten()
	if len(out) != n || cap(out) != n {
		t.Fatalf("Flatten len=%d cap=%d, want both %d", len(out), cap(out), n)
	}
	for i, r := range out {
		if r.Time != simtime.Time(i) {
			t.Fatalf("record %d out of order: time %d", i, r.Time)
		}
	}
	if b.Len() != n {
		t.Fatal("Flatten must leave the buffer unchanged")
	}
}

// TestBufferRange pins the from-offset math at chunk boundaries.
func TestBufferRange(t *testing.T) {
	var b Buffer
	n := bufChunk + 10
	fillBuffer(&b, n)
	for _, from := range []int{-3, 0, 1, bufChunk - 1, bufChunk, bufChunk + 1, n, n + 5} {
		want := n - from
		if from < 0 {
			want = n
		}
		if want < 0 {
			want = 0
		}
		got := 0
		next := from
		if next < 0 {
			next = 0
		}
		b.Range(from, func(r Record) {
			if r.Time != simtime.Time(next) {
				t.Fatalf("Range(%d): saw time %d, want %d", from, r.Time, next)
			}
			next++
			got++
		})
		if got != want {
			t.Fatalf("Range(%d) visited %d records, want %d", from, got, want)
		}
	}
}
