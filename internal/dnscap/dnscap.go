// Package dnscap implements the packet-capture side of backscatter
// collection (§III-A): DNS queries written and read as framed wire-format
// messages, in the spirit of dnstap streams and passive-DNS capture.
//
// A capture stream is a sequence of frames:
//
//	uvarint frameLen | frame
//
// where each frame is a fixed 16-byte pseudo-header (timestamp, querier
// address, authority id, rcode, frame kind) followed by the DNS message in
// RFC 1035 wire format. The reader recovers dnslog.Records by parsing each
// message with dnswire and extracting the originator from the PTR
// question's in-addr.arpa name — exactly what a sensor tapping an
// authority's packet feed does. Non-reverse queries in the stream are
// skipped, mirroring the paper's "retain only reverse DNS queries"
// filtering.
//
// Authority ids 0, 1 and 2 are dnslog.StandardAuthorities. Any other
// sensor is named in the stream before its first frame, by a kindDefine
// frame whose payload is the name, so a capture reads the same in every
// process.
package dnscap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/dnswire"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/simtime"
)

const headerLen = 16

// Frame kinds, the header's last byte.
const kindQuery, kindDefine = 0, 1

// standard wire ids need no definition: id < standard is
// dnslog.Authority(id + 1).
const standard = uint16(len(dnslog.StandardAuthorities))

// Writer emits capture frames.
type Writer struct {
	bw    *bufio.Writer
	buf   []byte
	frame []byte
	msg   dnswire.Message  // query scratch, rebuilt per frame
	enc   *dnswire.Encoder // reused compression table
	ids   map[dnslog.Authority]uint16
	n     int
}

// NewWriter returns a capture writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16), enc: dnswire.NewEncoder(), ids: make(map[dnslog.Authority]uint16)}
}

// header starts a new frame.
func (w *Writer) header(t simtime.Time, querier ipaddr.Addr, id uint16, rcode, kind uint8) {
	w.frame = binary.BigEndian.AppendUint64(w.frame[:0], uint64(t))
	w.frame = binary.BigEndian.AppendUint32(w.frame, uint32(querier))
	w.frame = binary.BigEndian.AppendUint16(w.frame, id)
	w.frame = append(w.frame, rcode, kind)
}

// flush writes the frame out behind its length.
func (w *Writer) flush() error {
	w.buf = binary.AppendUvarint(w.buf[:0], uint64(len(w.frame)))
	if _, err := w.bw.Write(w.buf); err != nil {
		return err
	}
	_, err := w.bw.Write(w.frame)
	return err
}

// Write encodes one observed query as a frame, after a definition frame
// if its authority is new to the stream and not a standard one.
func (w *Writer) Write(r dnslog.Record) error {
	id := uint16(r.Authority) - 1
	if id >= standard {
		var ok bool
		if id, ok = w.ids[r.Authority]; !ok {
			id = standard + uint16(len(w.ids))
			w.ids[r.Authority] = id
			w.header(0, 0, id, 0, kindDefine)
			w.frame = append(w.frame, r.Authority.String()...)
			if err := w.flush(); err != nil {
				return err
			}
		}
	}
	w.header(r.Time, r.Querier, id, r.RCode, kindQuery)
	w.msg.SetPTRQuery(uint16(w.n), r.Originator.ReverseName())
	var err error
	w.frame, err = w.enc.Encode(&w.msg, w.frame)
	if err != nil {
		return fmt.Errorf("dnscap: %w", err)
	}
	if err := w.flush(); err != nil {
		return err
	}
	w.n++
	return nil
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Reader parses capture frames back to records.
type Reader struct {
	br    *bufio.Reader
	msg   dnswire.Message
	frame []byte
	defs  map[uint16]dnslog.Authority // the stream's definitions so far
}

// NewReader returns a capture reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16), defs: make(map[uint16]dnslog.Authority)}
}

// ErrBadFrame reports a malformed capture frame.
var ErrBadFrame = errors.New("dnscap: malformed frame")

// maxFrame bounds frame sizes against corrupt length prefixes.
const maxFrame = 64 << 10

// Read returns the next reverse-query record, skipping frames that are not
// reverse PTR queries. io.EOF signals a clean end of stream.
func (r *Reader) Read() (dnslog.Record, error) {
	for {
		n, err := binary.ReadUvarint(r.br)
		if err == io.EOF {
			return dnslog.Record{}, io.EOF
		}
		if err != nil {
			return dnslog.Record{}, fmt.Errorf("%w: bad length: %v", ErrBadFrame, err)
		}
		if n < headerLen || n > maxFrame {
			return dnslog.Record{}, fmt.Errorf("%w: frame length %d", ErrBadFrame, n)
		}
		if cap(r.frame) < int(n) {
			r.frame = make([]byte, n)
		}
		r.frame = r.frame[:n]
		if _, err := io.ReadFull(r.br, r.frame); err != nil {
			return dnslog.Record{}, fmt.Errorf("%w: truncated frame: %v", ErrBadFrame, err)
		}

		id, kind := binary.BigEndian.Uint16(r.frame[12:14]), r.frame[15]
		if kind == kindDefine && id >= standard {
			a, err := dnslog.AuthorityOf(string(r.frame[headerLen:]))
			if err != nil {
				return dnslog.Record{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
			}
			r.defs[id] = a
			continue
		}
		if kind != kindQuery || n < headerLen+12 {
			return dnslog.Record{}, fmt.Errorf("%w: frame of kind %d and length %d for authority id %d", ErrBadFrame, kind, n, id)
		}
		var rec dnslog.Record
		rec.Time = simtime.Time(binary.BigEndian.Uint64(r.frame[0:8]))
		rec.Querier = ipaddr.Addr(binary.BigEndian.Uint32(r.frame[8:12]))
		rec.RCode = r.frame[14]
		rec.Authority = dnslog.Authority(id + 1)
		if id >= standard {
			var ok bool
			if rec.Authority, ok = r.defs[id]; !ok {
				return dnslog.Record{}, fmt.Errorf("%w: authority id %d used before its definition", ErrBadFrame, id)
			}
		}

		if err := dnswire.DecodeInto(r.frame[headerLen:], &r.msg); err != nil {
			return dnslog.Record{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		if !dnswire.IsReversePTRQuery(&r.msg) {
			continue // forward traffic is not backscatter
		}
		orig, err := ipaddr.FromReverseName(r.msg.Questions[0].Name)
		if err != nil {
			return dnslog.Record{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		rec.Originator = orig
		return rec, nil
	}
}

// ReadAll drains the stream; see dnslog.Drain.
func (r *Reader) ReadAll() ([]dnslog.Record, error) { return dnslog.Drain(r.Read) }
