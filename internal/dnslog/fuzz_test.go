package dnslog

import (
	"testing"

	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/simtime"
)

// FuzzParseRecord: the parser never panics, a line it accepts renders back
// to itself, and every record whose authority the table admits survives
// AppendText → ParseRecord. The seed corpus is testdata/fuzz/FuzzParseRecord.
func FuzzParseRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string, ts int64, o, q uint32, rc uint8) {
		r, err := ParseRecord(line)
		if err == nil {
			if got := string(r.AppendText(nil)); got != line {
				t.Fatalf("accepted %q, which renders as %q", line, got)
			}
			// The accepted line's authority, under the fuzzer's other fields.
			r.Time, r.Originator, r.Querier, r.RCode = simtime.Time(ts), ipaddr.Addr(o), ipaddr.Addr(q), rc
		} else {
			r = Record{Time: simtime.Time(ts), Originator: ipaddr.Addr(o), Querier: ipaddr.Addr(q), RCode: rc}
		}
		if back, err := ParseRecord(string(r.AppendText(nil))); err != nil || back != r {
			t.Fatalf("%+v renders as %q, which parses as %+v, %v", r, r.AppendText(nil), back, err)
		}
	})
}
