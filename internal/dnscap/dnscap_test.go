package dnscap

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/dnswire"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
)

func sample(n int) []dnslog.Record {
	st := rng.New(7)
	out := make([]dnslog.Record, n)
	auths := []string{"b-root", "m-root", "jp"}
	for i := range out {
		out[i] = dnslog.Record{
			Time:       simtime.Time(1000 + i),
			Originator: ipaddr.Addr(st.Uint64()),
			Querier:    ipaddr.Addr(st.Uint64()),
			Authority:  dnslog.MustAuthority(auths[i%len(auths)]),
			RCode:      uint8(i % 4),
		}
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	recs := sample(200)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d of %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestCustomAuthority(t *testing.T) {
	rec := dnslog.Record{Time: 5, Originator: 1, Querier: 2, Authority: dnslog.MustAuthority("final-cafe")}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(rec); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != rec {
		t.Fatalf("got %+v", got)
	}
}

func TestSkipsForwardQueries(t *testing.T) {
	// Hand-build a stream with one forward query frame between two
	// reverse frames.
	recs := sample(2)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(recs[0]); err != nil {
		t.Fatal(err)
	}
	// Forward frame: an A query, not backscatter.
	var frame []byte
	var hdr [headerLen]byte
	frame = append(frame, hdr[:]...)
	fwd := &dnswire.Message{Header: dnswire.Header{ID: 9}}
	fwd.Questions = []dnswire.Question{{Name: "www.example.jp", Type: dnswire.TypeA, Class: dnswire.ClassIN}}
	frame, err := fwd.Encode(frame)
	if err != nil {
		t.Fatal(err)
	}
	w.Flush()
	buf.Write(appendUvarint(nil, uint64(len(frame))))
	buf.Write(frame)
	w2 := NewWriter(&buf)
	if err := w2.Write(recs[1]); err != nil {
		t.Fatal(err)
	}
	w2.Flush()

	r := NewReader(&buf)
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records, want 2", len(got))
	}
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

func TestCorruptStream(t *testing.T) {
	recs := sample(3)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		w.Write(r)
	}
	w.Flush()
	good := buf.Bytes()

	mustError := map[string][]byte{
		"truncated":   good[:len(good)-3],
		"huge length": append(appendUvarint(nil, 1<<30), good...),
		"tiny frame":  append(appendUvarint(nil, 4), good[:4]...),
	}
	for name, data := range mustError {
		r := NewReader(bytes.NewReader(data))
		sawError := false
		for {
			_, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				sawError = true
				break
			}
		}
		if !sawError {
			t.Errorf("%s: stream ended cleanly", name)
		}
	}
	// Flipping a pseudo-header byte yields a different but well-formed
	// record — reading must not error or panic.
	flipped := append([]byte(nil), good...)
	flipped[10] ^= 0xff
	if _, err := NewReader(bytes.NewReader(flipped)).ReadAll(); err != nil {
		// An error is also acceptable if the flip hit framing; the real
		// requirement is no panic, which reaching here demonstrates.
		t.Logf("flipped byte produced error (acceptable): %v", err)
	}
}

func TestFuzzReaderNeverPanics(t *testing.T) {
	st := rng.New(3)
	for i := 0; i < 5000; i++ {
		n := st.Intn(128)
		data := make([]byte, n)
		for j := range data {
			data[j] = byte(st.Uint64())
		}
		r := NewReader(bytes.NewReader(data))
		for k := 0; k < 64; k++ {
			if _, err := r.Read(); err != nil {
				break
			}
		}
	}
}

// frameOf hand-builds one frame: header fields, then the payload.
func frameOf(id uint16, kind byte, payload []byte) []byte {
	var hdr [headerLen]byte
	hdr[12], hdr[13], hdr[15] = byte(id>>8), byte(id), kind
	frame := append(hdr[:], payload...)
	return append(appendUvarint(nil, uint64(len(frame))), frame...)
}

func ptrQuery(t *testing.T, orig ipaddr.Addr) []byte {
	t.Helper()
	var m dnswire.Message
	m.SetPTRQuery(1, orig.ReverseName())
	b, err := m.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A capture names its own non-standard authorities: id 7 means what the
// stream says, not what this process happens to hold under any id.
func TestAuthorityDefinedInStream(t *testing.T) {
	for _, n := range []string{"local-a", "local-b", "local-c", "local-d", "local-e"} {
		dnslog.MustAuthority(n) // whatever the local table holds
	}
	q := ptrQuery(t, ipaddr.MustParse("192.0.2.9"))
	var stream []byte
	stream = append(stream, frameOf(7, kindDefine, []byte("final-x"))...)
	stream = append(stream, frameOf(7, kindQuery, q)...)
	stream = append(stream, frameOf(2, kindQuery, q)...)
	stream = append(stream, frameOf(7, kindDefine, []byte("final-y"))...) // a second writer's stream, appended
	stream = append(stream, frameOf(7, kindQuery, q)...)
	got, err := NewReader(bytes.NewReader(stream)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range got {
		names = append(names, r.Authority.String())
	}
	if want := []string{"final-x", "jp", "final-y"}; !slices.Equal(names, want) {
		t.Errorf("authorities %q, want %q", names, want)
	}

	for name, bad := range map[string][]byte{
		"undefined id":          frameOf(7, kindQuery, q),
		"redefined standard id": frameOf(2, kindDefine, []byte("not-jp")),
		"unknown frame kind":    frameOf(7, 2, q),
		"name with a tab":       frameOf(7, kindDefine, []byte("a\tb")),
		"name too long":         frameOf(7, kindDefine, bytes.Repeat([]byte("n"), 256)),
	} {
		good := frameOf(2, kindQuery, q)
		if got, err := NewReader(bytes.NewReader(append(good, bad...))).ReadAll(); len(got) != 1 || !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: ReadAll = %d records, %v; want the record before it and ErrBadFrame", name, len(got), err)
		}
	}
}

// TestReadAllAllocatesOnce bounds what ReadAll allocates for a capture
// of 100 k records beyond what reading them one by one allocates (the
// buffers, and each frame's decoded question name): each record's
// storage in the Buffer and the one exact-size result, about 2× the
// records, where a growing slice leaves a geometric series of dead
// arrays behind (about 5×). Not parallel: TotalAlloc counts the
// allocations of every goroutine.
func TestReadAllAllocatesOnce(t *testing.T) {
	const n = 100_000
	want := sample(n)
	var capture bytes.Buffer
	w := NewWriter(&capture)
	for _, r := range want {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r := NewReader(bytes.NewReader(capture.Bytes()))
	for {
		if _, err := r.Read(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	got, err := NewReader(bytes.NewReader(capture.Bytes())).ReadAll()
	runtime.ReadMemStats(&m2)
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("ReadAll returned %d of %d records in order? %v, err %v", len(got), n, slices.Equal(got, want), err)
	}
	reading := m1.TotalAlloc - m0.TotalAlloc
	limit := reading + uint64(2.2*n*float64(unsafe.Sizeof(dnslog.Record{})))
	if alloc := m2.TotalAlloc - m1.TotalAlloc; alloc > limit {
		t.Errorf("ReadAll of %d records allocated %d B, want at most %d (%d B of reading plus 2.2× the records)", n, alloc, limit, reading)
	}
}

// Writers share nothing but the dnslog name table; run with -race.
func TestConcurrentWriters(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			w := NewWriter(&buf)
			var want []dnslog.Record
			for i := 0; i < 200; i++ {
				a, err := dnslog.AuthorityOf(fmt.Sprintf("final-%d", (g+i)%7))
				if err != nil {
					t.Error(err)
					return
				}
				want = append(want, dnslog.Record{Time: simtime.Time(i), Originator: ipaddr.Addr(i + 1), Querier: 2, Authority: a})
				if err := w.Write(want[i]); err != nil {
					t.Error(err)
					return
				}
			}
			w.Flush()
			if got, err := NewReader(&buf).ReadAll(); err != nil || !slices.Equal(got, want) {
				t.Errorf("writer %d: round trip of %d records returned %d, err %v", g, len(want), len(got), err)
			}
		}()
	}
	wg.Wait()
}

func BenchmarkWrite(b *testing.B) {
	recs := sample(1)
	w := NewWriter(io.Discard)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.Write(recs[0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRead(b *testing.B) {
	recs := sample(1000)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		w.Write(r)
	}
	w.Flush()
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(bytes.NewReader(data))
		if _, err := r.ReadAll(); err != nil {
			b.Fatal(err)
		}
	}
}
