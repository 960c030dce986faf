package dnslog

// bufChunk is the Buffer chunk size: 4096 records ≈ 96 KB per chunk,
// large enough to amortize chunk overhead, small enough that the final
// partial chunk wastes little.
const bufChunk = 4096

// Buffer is an append-only record collector that grows in fixed-size
// chunks instead of reallocating one contiguous slice. A contiguous
// append loop allocates a geometric series of dead backing arrays —
// roughly 5× the final size in total — where the chunked buffer
// allocates each record's storage exactly once. Sensors in dnssim and
// both log readers collect into a Buffer; consumers walk it in place
// with Range or pay one exact-size allocation with Flatten.
//
// The zero value is ready to use. A Buffer is not safe for concurrent
// use.
type Buffer struct {
	chunks [][]Record // every chunk but the last is full
	n      int
}

// Append adds one record.
func (b *Buffer) Append(r Record) {
	if b.n%bufChunk == 0 {
		b.chunks = append(b.chunks, make([]Record, 0, bufChunk))
	}
	last := &b.chunks[len(b.chunks)-1]
	*last = append(*last, r)
	b.n++
}

// Len returns the number of records appended.
func (b *Buffer) Len() int { return b.n }

// Range calls fn for each record with index >= from, in append order.
// Every full chunk holds exactly bufChunk records, so from maps straight
// to a chunk and offset.
func (b *Buffer) Range(from int, fn func(Record)) {
	from = min(max(from, 0), b.n)
	for ci := from / bufChunk; ci < len(b.chunks); ci++ {
		for _, r := range b.chunks[ci][from-ci*bufChunk:] {
			fn(r)
		}
		from = (ci + 1) * bufChunk
	}
}

// Flatten copies the records into one new contiguous slice — a single
// exact-size allocation. The buffer is unchanged.
func (b *Buffer) Flatten() []Record {
	out := make([]Record, 0, b.n)
	for _, c := range b.chunks {
		out = append(out, c...)
	}
	return out
}
