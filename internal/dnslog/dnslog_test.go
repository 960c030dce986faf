package dnslog

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/simtime"
)

func rec(t int64, o, q string) Record {
	return Record{
		Time:       simtime.Time(t),
		Originator: ipaddr.MustParse(o),
		Querier:    ipaddr.MustParse(q),
		Authority:  MustAuthority("jp"),
	}
}

func TestRecordTextRoundTrip(t *testing.T) {
	r := Record{
		Time:       simtime.Date(2014, 4, 15, 11, 0),
		Originator: ipaddr.MustParse("1.2.3.4"),
		Querier:    ipaddr.MustParse("192.168.0.3"),
		Authority:  MustAuthority("b-root"),
		RCode:      3,
	}
	line := string(r.AppendText(nil))
	got, err := ParseRecord(line)
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Errorf("round trip: %+v != %+v", got, r)
	}
}

func TestRecordTextProperty(t *testing.T) {
	if err := quick.Check(func(ts int64, o, q uint32, rc uint8) bool {
		r := Record{
			Time:       simtime.Time(ts),
			Originator: ipaddr.Addr(o),
			Querier:    ipaddr.Addr(q),
			Authority:  MustAuthority("m-root"),
			RCode:      rc,
		}
		got, err := ParseRecord(string(r.AppendText(nil)))
		return err == nil && got == r
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestParseRecordErrors(t *testing.T) {
	bad := []string{
		"",
		"1\t2\t3",
		"x\t1.2.3.4\t5.6.7.8\tjp\t0",
		"1\tbadip\t5.6.7.8\tjp\t0",
		"1\t1.2.3.4\tbadip\tjp\t0",
		"1\t1.2.3.4\t5.6.7.8\tjp\t999",
		"1\t1.2.3.4\t5.6.7.8\tjp\t0\textra",
		// Only the form AppendText writes:
		"+1\t1.2.3.4\t5.6.7.8\tjp\t0",
		"01\t1.2.3.4\t5.6.7.8\tjp\t0",
		"-0\t1.2.3.4\t5.6.7.8\tjp\t0",
		"-\t1.2.3.4\t5.6.7.8\tjp\t0",
		"9223372036854775808\t1.2.3.4\t5.6.7.8\tjp\t0",
		"-9223372036854775809\t1.2.3.4\t5.6.7.8\tjp\t0",
		"1\t01.2.3.4\t5.6.7.8\tjp\t0",
		"1\t1.2.3.4\t5.6.7.08\tjp\t0",
		"1\t1.2.3.4\t5.6.7.8\tjp\t00",
		"1\t1.2.3.4\t5.6.7.8\tjp\t256",
		"1\t1.2.3.4\t5.6.7.8\t" + strings.Repeat("n", 256) + "\t0",
	}
	for _, line := range bad {
		if _, err := ParseRecord(line); !errors.Is(err, ErrBadRecord) {
			t.Errorf("ParseRecord(%q): err = %v, want ErrBadRecord", line, err)
		}
	}
	for _, line := range []string{
		"-9223372036854775808\t0.0.0.0\t255.255.255.255\t\t255",
		"9223372036854775807\t1.2.3.4\t5.6.7.8\tfinal cafe #1\t0",
	} {
		if r, err := ParseRecord(line); err != nil || string(r.AppendText(nil)) != line {
			t.Errorf("ParseRecord(%q) = %+v, %v", line, r, err)
		}
	}
}

func TestWriterReaderStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := []Record{
		rec(100, "1.2.3.4", "10.0.0.1"),
		rec(101, "1.2.3.4", "10.0.0.2"),
		rec(150, "5.6.7.8", "10.0.0.1"),
	}
	for _, r := range want {
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
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestReaderSkipsCommentsAndBlank(t *testing.T) {
	in := "# header comment\n\n100\t1.2.3.4\t10.0.0.1\tjp\t0\n\n# done\n"
	got, err := NewReader(strings.NewReader(in)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d records, want 1", len(got))
	}
}

func TestReaderReportsLineNumber(t *testing.T) {
	in := "100\t1.2.3.4\t10.0.0.1\tjp\t0\ngarbage line\n"
	r := NewReader(strings.NewReader(in))
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	_, err := r.Read()
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error = %v, want line 2 mention", err)
	}
	got, err := NewReader(strings.NewReader(in)).ReadAll()
	if len(got) != 1 || err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("ReadAll = %d records, %v; want the record before line 2 and its error", len(got), err)
	}
}

// TestReadAllAllocatesOnce bounds what ReadAll allocates for a log of
// 100 k records: each record's storage in the Buffer and the one
// exact-size result, about 2× the records, where a growing slice leaves
// a geometric series of dead arrays behind (about 5×). Not parallel:
// TotalAlloc counts the allocations of every goroutine.
func TestReadAllAllocatesOnce(t *testing.T) {
	const n = 100_000
	want := make([]Record, n)
	var log bytes.Buffer
	w := NewWriter(&log)
	for i := range want {
		want[i] = Record{
			Time:       simtime.Time(i),
			Originator: ipaddr.Addr(uint32(i) * 2654435761),
			Querier:    ipaddr.Addr(i % 5000),
			Authority:  Authority(1 + i%len(StandardAuthorities)),
			RCode:      uint8(i % 4),
		}
		if err := w.Write(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := NewReader(bytes.NewReader(log.Bytes())).ReadAll()
	runtime.ReadMemStats(&after)
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("ReadAll returned %d of %d records in order? %v, err %v", len(got), n, slices.Equal(got, want), err)
	}
	const scanner = 1 << 16 // NewReader's line buffer
	limit := uint64(2.2*n*float64(unsafe.Sizeof(Record{}))) + scanner
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
		t.Errorf("ReadAll of %d records allocated %d B, want at most %d (2.2× the records plus the scanner buffer)", n, alloc, limit)
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("err = %v, want EOF", err)
	}
}

func TestDeduperWindow(t *testing.T) {
	d := NewDeduper(30)
	a := rec(100, "1.2.3.4", "10.0.0.1")
	if !d.Keep(a) {
		t.Error("first record dropped")
	}
	if d.Keep(rec(120, "1.2.3.4", "10.0.0.1")) {
		t.Error("repeat within window kept")
	}
	if !d.Keep(rec(130, "1.2.3.4", "10.0.0.1")) {
		t.Error("record at window edge dropped (130-100 >= 30)")
	}
	// Different querier or originator is independent.
	if !d.Keep(rec(131, "1.2.3.4", "10.0.0.9")) {
		t.Error("different querier suppressed")
	}
	if !d.Keep(rec(132, "9.9.9.9", "10.0.0.1")) {
		t.Error("different originator suppressed")
	}
}

func TestDeduperSlidesWithKeptRecords(t *testing.T) {
	// The window anchors on the last *kept* record: 100 keeps, 129 drops,
	// and 131 must still drop because 131-100 >= 30 is false... it is 31,
	// so it keeps. Check the anchor did not slide to 129.
	d := NewDeduper(30)
	d.Keep(rec(100, "1.2.3.4", "10.0.0.1"))
	if d.Keep(rec(129, "1.2.3.4", "10.0.0.1")) {
		t.Fatal("129 kept")
	}
	if !d.Keep(rec(131, "1.2.3.4", "10.0.0.1")) {
		t.Error("131 dropped; suppression anchor slid to a dropped record")
	}
}

// TestDeduperKeepAllocs holds Keep on a key it has seen to no allocation:
// the lookup and the rewrite of an existing map entry, kept and dropped
// in turn.
func TestDeduperKeepAllocs(t *testing.T) {
	d := NewDeduper(30)
	r := rec(100, "1.2.3.4", "10.0.0.1")
	d.Keep(r)
	if n := testing.AllocsPerRun(1000, func() { r.Time += 20; d.Keep(r) }); n != 0 {
		t.Errorf("Deduper.Keep allocates %v times a record on a seen key, want 0", n)
	}
}

func TestDeduperZeroWindow(t *testing.T) {
	d := NewDeduper(0)
	r := rec(1, "1.2.3.4", "10.0.0.1")
	if !d.Keep(r) || !d.Keep(r) {
		t.Error("zero window must keep everything")
	}
}

func TestDeduperReset(t *testing.T) {
	d := NewDeduper(30)
	r := rec(100, "1.2.3.4", "10.0.0.1")
	d.Keep(r)
	d.Reset()
	if !d.Keep(rec(101, "1.2.3.4", "10.0.0.1")) {
		t.Error("record suppressed after Reset")
	}
}

func TestDedupSlice(t *testing.T) {
	in := []Record{
		rec(100, "1.2.3.4", "10.0.0.1"),
		rec(110, "1.2.3.4", "10.0.0.1"),
		rec(140, "1.2.3.4", "10.0.0.1"),
		rec(141, "5.6.7.8", "10.0.0.1"),
	}
	out := Dedup(in, 30)
	if len(out) != 3 {
		t.Fatalf("got %d records, want 3", len(out))
	}
	if out[1].Time != 140 || out[2].Originator != ipaddr.MustParse("5.6.7.8") {
		t.Errorf("unexpected survivors: %+v", out)
	}
}

func BenchmarkAppendText(b *testing.B) {
	r := rec(1397559600, "203.178.141.194", "10.0.0.1")
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = r.AppendText(buf[:0])
	}
}

func BenchmarkParseRecord(b *testing.B) {
	line := string(rec(1397559600, "203.178.141.194", "10.0.0.1").AppendText(nil))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseRecord(line); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeduper(b *testing.B) {
	d := NewDeduper(30)
	r := rec(0, "1.2.3.4", "10.0.0.1")
	for i := 0; i < b.N; i++ {
		r.Time = simtime.Time(i)
		r.Querier = ipaddr.Addr(i % 1000)
		d.Keep(r)
	}
}

func TestWriterWriteAllocs(t *testing.T) {
	w := NewWriter(io.Discard)
	r := rec(1_400_000_000, "192.0.2.1", "198.51.100.53")
	if n := testing.AllocsPerRun(1000, func() { _ = w.Write(r) }); n != 0 {
		t.Errorf("Writer.Write makes %.0f allocations a record, want 0", n)
	}
}
