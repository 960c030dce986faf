package dnscap

import (
	"bytes"
	"io"
	"testing"

	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/ipaddr"
)

// FuzzReader feeds arbitrary bytes to the capture reader: no panics, no
// unbounded allocation, and valid prefixes of real streams parse cleanly.
func FuzzReader(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 4; i++ {
		_ = w.Write(dnslog.Record{
			Time:       1000,
			Originator: ipaddr.Addr(0x01020304 * uint32(i+1)),
			Querier:    ipaddr.Addr(0x0a000001 + uint32(i)),
			Authority:  dnslog.MustAuthority("jp"),
		})
	}
	// A non-standard authority, so the corpus holds a definition frame.
	_ = w.Write(dnslog.Record{Time: 1001, Originator: 1, Querier: 2, Authority: dnslog.MustAuthority("final-cafe")})
	w.Flush()
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x80, 0x80})
	f.Add(bytes.Repeat([]byte{0x55}, 100))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 1024; i++ { // bound the walk
			_, err := r.Read()
			if err == io.EOF || err != nil {
				return
			}
		}
	})
}
