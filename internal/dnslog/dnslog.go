// Package dnslog models the query logs a backscatter sensor collects at a
// DNS authority (§III-A).
//
// Each reverse query observed at the authority yields one Record — the
// (originator, querier, authority) tuple plus timestamp and response code.
// The package provides a line-oriented text codec (one record per line, in
// the spirit of dnstap/TSV logging), streaming reader/writer, and the
// paper's 30-second per-(originator, querier) deduplication window.
package dnslog

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"

	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/simtime"
)

// Record is one reverse DNS query observed at an authority: 24 bytes and
// no pointer, so the collector never scans a []Record.
type Record struct {
	Time       simtime.Time
	Originator ipaddr.Addr // address whose reverse name was queried
	Querier    ipaddr.Addr // source of the DNS query (recursive resolver)
	Authority  Authority   // sensor, e.g. "jp", "b-root", "m-root"
	RCode      uint8       // response code returned by the authority
}

// Key identifies the (originator, querier) pair of r.
func (r Record) Key() PairKey {
	return PairKey{Originator: r.Originator, Querier: r.Querier}
}

// PairKey is a hashable (originator, querier) pair.
type PairKey struct {
	Originator ipaddr.Addr
	Querier    ipaddr.Addr
}

// AppendText appends r's line form (without newline) to dst.
func (r Record) AppendText(dst []byte) []byte {
	dst = strconv.AppendInt(dst, int64(r.Time), 10)
	dst = append(dst, '\t')
	dst = r.Originator.AppendTo(dst)
	dst = append(dst, '\t')
	dst = r.Querier.AppendTo(dst)
	dst = append(dst, '\t')
	dst = append(dst, r.Authority.String()...)
	dst = append(dst, '\t')
	dst = strconv.AppendUint(dst, uint64(r.RCode), 10)
	return dst
}

// ErrBadRecord reports a malformed log line.
var ErrBadRecord = errors.New("dnslog: malformed record")

// ParseRecord parses one log line produced by AppendText, and only the
// form AppendText writes: a line that parses renders back to itself.
func ParseRecord(line string) (Record, error) { return parseRecord([]byte(line)) }

// parseRecord is ParseRecord on the reader's line buffer: no string per
// line, no field slice.
func parseRecord(line []byte) (Record, error) {
	var r Record
	var f [5][]byte
	for i := range f[:4] {
		tab := bytes.IndexByte(line, '\t')
		if tab < 0 {
			return r, fmt.Errorf("%w: %d fields", ErrBadRecord, i+1)
		}
		f[i], line = line[:tab], line[tab+1:]
	}
	if bytes.IndexByte(line, '\t') >= 0 {
		return r, fmt.Errorf("%w: more than 5 fields", ErrBadRecord)
	}
	f[4] = line

	ts, limit := f[0], uint64(1<<63-1)
	if len(ts) > 0 && ts[0] == '-' {
		ts, limit = ts[1:], 1<<63
	}
	t, ok := decimal(ts, limit)
	if !ok || t == 0 && len(ts) < len(f[0]) {
		return r, fmt.Errorf("%w: bad timestamp %q", ErrBadRecord, f[0])
	}
	r.Time = simtime.Time(t)
	if len(ts) < len(f[0]) {
		r.Time = -r.Time
	}
	var err error
	if r.Originator, err = ipaddr.Parse(f[1]); err != nil {
		return r, fmt.Errorf("%w: bad originator: %v", ErrBadRecord, err)
	}
	if r.Querier, err = ipaddr.Parse(f[2]); err != nil {
		return r, fmt.Errorf("%w: bad querier: %v", ErrBadRecord, err)
	}
	if r.Authority, err = authorities.id(f[3]); err != nil {
		return r, err
	}
	rc, ok := decimal(f[4], 255)
	if !ok {
		return r, fmt.Errorf("%w: bad rcode %q", ErrBadRecord, f[4])
	}
	r.RCode = uint8(rc)
	return r, nil
}

// decimal parses the canonical decimal form of a value up to limit: digits
// only, no leading zero.
func decimal(b []byte, limit uint64) (uint64, bool) {
	if len(b) == 0 || len(b) > 1 && b[0] == '0' {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		d := uint64(c - '0')
		if d > 9 || v > (limit-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// Writer streams records to an io.Writer, one line each.
type Writer struct {
	bw  *bufio.Writer
	buf []byte
}

// NewWriter returns a buffered log writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 64)}
}

// Write appends one record.
func (w *Writer) Write(r Record) error {
	w.buf = r.AppendText(w.buf[:0])
	w.buf = append(w.buf, '\n')
	_, err := w.bw.Write(w.buf)
	return err
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Reader streams records from an io.Reader.
type Reader struct {
	sc   *bufio.Scanner
	line int
}

// NewReader returns a log reader over r.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	return &Reader{sc: sc}
}

// Read returns the next record, or io.EOF when the stream is exhausted.
func (r *Reader) Read() (Record, error) {
	for r.sc.Scan() {
		r.line++
		line := bytes.TrimSpace(r.sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		rec, err := parseRecord(line)
		if err != nil {
			return Record{}, fmt.Errorf("line %d: %w", r.line, err)
		}
		return rec, nil
	}
	if err := r.sc.Err(); err != nil {
		return Record{}, err
	}
	return Record{}, io.EOF
}

// ReadAll drains the reader; see Drain.
func (r *Reader) ReadAll() ([]Record, error) { return Drain(r.Read) }

// Drain collects read's records in a Buffer until io.EOF or an error,
// which it returns with the records before it, in one exact-size slice.
func Drain(read func() (Record, error)) ([]Record, error) {
	var b Buffer
	for {
		rec, err := read()
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b.Flatten(), err
		}
		b.Append(rec)
	}
}

// Deduper suppresses repeat queries from the same querier for the same
// originator within a time window. The paper uses 30 s to avoid skew from
// queriers that ignore DNS timeout rules (§III-C).
type Deduper struct {
	Window simtime.Duration
	last   map[PairKey]simtime.Time
}

// NewDeduper returns a deduper with the given suppression window. A window
// of 0 passes everything through.
func NewDeduper(window simtime.Duration) *Deduper {
	return &Deduper{Window: window, last: make(map[PairKey]simtime.Time)}
}

// Keep reports whether r survives deduplication, updating state. Records
// must be fed in non-decreasing time order for exact window semantics.
func (d *Deduper) Keep(r Record) bool {
	if d.Window <= 0 {
		return true
	}
	k := r.Key()
	if t, ok := d.last[k]; ok && r.Time.Sub(t) < d.Window {
		return false
	}
	d.last[k] = r.Time
	return true
}

// Reset clears the deduper's memory (e.g. at an interval boundary).
func (d *Deduper) Reset() {
	clear(d.last)
}

// Dedup filters records (assumed time-ordered) through a fresh deduper.
func Dedup(recs []Record, window simtime.Duration) []Record {
	d := NewDeduper(window)
	out := recs[:0:0]
	for _, r := range recs {
		if d.Keep(r) {
			out = append(out, r)
		}
	}
	return out
}
