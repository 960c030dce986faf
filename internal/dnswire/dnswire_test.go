package dnswire

import (
	"strings"
	"testing"
	"testing/quick"

	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/rng"
)

func TestPTRQueryRoundTrip(t *testing.T) {
	q := NewPTRQuery(0x1234, "4.3.2.1.in-addr.arpa")
	wire, err := q.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got := new(Message)
	err = DecodeInto(wire, got)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.ID != 0x1234 || got.Header.QR || !got.Header.RD {
		t.Errorf("header mismatch: %+v", got.Header)
	}
	if len(got.Questions) != 1 {
		t.Fatalf("questions = %d", len(got.Questions))
	}
	qq := got.Questions[0]
	if qq.Name != "4.3.2.1.in-addr.arpa" || qq.Type != TypePTR || qq.Class != ClassIN {
		t.Errorf("question = %+v", qq)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	q := NewPTRQuery(7, "4.3.2.1.in-addr.arpa")
	r := NewResponse(q, RCodeNoError)
	r.Header.AA = true
	r.AddAnswer(RR{
		Name:   "4.3.2.1.in-addr.arpa",
		Type:   TypePTR,
		Class:  ClassIN,
		TTL:    3600,
		Target: "spam.bad.jp",
	})
	wire, err := r.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got := new(Message)
	err = DecodeInto(wire, got)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Header.QR || !got.Header.AA || got.Header.RCode != RCodeNoError {
		t.Errorf("header = %+v", got.Header)
	}
	if len(got.Answers) != 1 {
		t.Fatalf("answers = %d", len(got.Answers))
	}
	a := got.Answers[0]
	if a.Target != "spam.bad.jp" || a.TTL != 3600 || a.Name != "4.3.2.1.in-addr.arpa" {
		t.Errorf("answer = %+v", a)
	}
}

func TestNXDomainResponse(t *testing.T) {
	q := NewPTRQuery(9, "1.0.0.127.in-addr.arpa")
	r := NewResponse(q, RCodeNXDomain)
	wire, err := r.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got := new(Message)
	err = DecodeInto(wire, got)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.RCode != RCodeNXDomain || len(got.Answers) != 0 {
		t.Errorf("got %+v", got)
	}
}

func TestCompressionSavesSpace(t *testing.T) {
	// The answer name repeats the question name, so compression should
	// replace the second occurrence with a 2-byte pointer.
	q := NewPTRQuery(1, "4.3.2.1.in-addr.arpa")
	r := NewResponse(q, RCodeNoError)
	r.AddAnswer(RR{Name: "4.3.2.1.in-addr.arpa", Type: TypePTR, Class: ClassIN, TTL: 60, Target: "x.example.jp"})
	wire, err := r.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Uncompressed: 12 header + (22 qname + 4) + (22 + 10 + 14 rdata).
	if len(wire) >= 12+26+22+10+14 {
		t.Errorf("no compression: %d bytes", len(wire))
	}
	got := new(Message)
	err = DecodeInto(wire, got)
	if err != nil {
		t.Fatal(err)
	}
	if got.Answers[0].Name != "4.3.2.1.in-addr.arpa" {
		t.Errorf("decompressed name = %q", got.Answers[0].Name)
	}
}

func TestCompressionSharedSuffix(t *testing.T) {
	// Two answers under the same zone share the suffix via pointers.
	m := &Message{Header: Header{ID: 3, QR: true}}
	m.Questions = []Question{{Name: "example.jp", Type: TypeNS, Class: ClassIN}}
	m.AddAnswer(RR{Name: "example.jp", Type: TypeNS, Class: ClassIN, TTL: 60, Target: "ns1.example.jp"})
	m.AddAnswer(RR{Name: "example.jp", Type: TypeNS, Class: ClassIN, TTL: 60, Target: "ns2.example.jp"})
	wire, err := m.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got := new(Message)
	err = DecodeInto(wire, got)
	if err != nil {
		t.Fatal(err)
	}
	if got.Answers[0].Target != "ns1.example.jp" || got.Answers[1].Target != "ns2.example.jp" {
		t.Errorf("targets = %q, %q", got.Answers[0].Target, got.Answers[1].Target)
	}
}

func TestDecodeIntoReuse(t *testing.T) {
	var m Message
	for i := 0; i < 10; i++ {
		name := ipaddr.Addr(uint32(i) * 1000003).ReverseName()
		wire, err := NewPTRQuery(uint16(i), name).Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(wire, &m); err != nil {
			t.Fatal(err)
		}
		if m.Questions[0].Name != name || m.Header.ID != uint16(i) {
			t.Fatalf("iteration %d: decoded %+v", i, m.Questions[0])
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	valid, err := NewPTRQuery(1, "4.3.2.1.in-addr.arpa").Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", valid[:8]},
		{"truncated question", valid[:14]},
		{"trailing bytes", append(append([]byte(nil), valid...), 0xff)},
	}
	for _, c := range cases {
		if err := DecodeInto(c.data, new(Message)); err == nil {
			t.Errorf("%s: decode succeeded", c.name)
		}
	}
}

func TestDecodeRejectsForwardPointer(t *testing.T) {
	// Header claiming one question whose name is a self/forward pointer.
	data := make([]byte, 12, 18)
	data[5] = 1 // QDCount = 1
	data = append(data, 0xc0, 12, 0, 12, 0, 1)
	if err := DecodeInto(data, new(Message)); err == nil {
		t.Error("forward/self pointer accepted")
	}
}

func TestDecodeRejectsReservedLabelType(t *testing.T) {
	data := make([]byte, 12, 18)
	data[5] = 1
	data = append(data, 0x80, 0, 0, 12, 0, 1)
	if err := DecodeInto(data, new(Message)); err == nil {
		t.Error("reserved label type 0x80 accepted")
	}
}

func TestDecodeRejectsAbsurdCounts(t *testing.T) {
	data := make([]byte, 12)
	data[4], data[5] = 0xff, 0xff // QDCount = 65535 in a 12-byte message
	if err := DecodeInto(data, new(Message)); err == nil {
		t.Error("absurd QDCount accepted")
	}
}

func TestEncodeRejectsOversizedLabel(t *testing.T) {
	long := strings.Repeat("a", 64) + ".example.jp"
	if _, err := NewPTRQuery(1, long).Encode(nil); err == nil {
		t.Error("64-octet label accepted")
	}
}

func TestEncodeRejectsOversizedName(t *testing.T) {
	parts := make([]string, 0, 10)
	for i := 0; i < 10; i++ {
		parts = append(parts, strings.Repeat("a", 40))
	}
	if _, err := NewPTRQuery(1, strings.Join(parts, ".")).Encode(nil); err == nil {
		t.Error("name > 255 octets accepted")
	}
}

func TestEncodeRejectsEmptyLabel(t *testing.T) {
	if _, err := NewPTRQuery(1, "a..b").Encode(nil); err == nil {
		t.Error("empty interior label accepted")
	}
}

func TestRootName(t *testing.T) {
	m := &Message{Header: Header{ID: 2}}
	m.Questions = []Question{{Name: ".", Type: TypeNS, Class: ClassIN}}
	wire, err := m.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got := new(Message)
	err = DecodeInto(wire, got)
	if err != nil {
		t.Fatal(err)
	}
	if got.Questions[0].Name != "" {
		t.Errorf("root decodes to %q, want empty", got.Questions[0].Name)
	}
}

func TestOpaqueRDataRoundTrip(t *testing.T) {
	m := &Message{Header: Header{ID: 5, QR: true}}
	m.AddAnswer(RR{Name: "x.example.jp", Type: TypeA, Class: ClassIN, TTL: 30, RData: []byte{1, 2, 3, 4}})
	wire, err := m.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got := new(Message)
	err = DecodeInto(wire, got)
	if err != nil {
		t.Fatal(err)
	}
	rd := got.Answers[0].RData
	if len(rd) != 4 || rd[0] != 1 || rd[3] != 4 {
		t.Errorf("rdata = %v", rd)
	}
}

func TestIsReversePTRQuery(t *testing.T) {
	yes := NewPTRQuery(1, "4.3.2.1.in-addr.arpa")
	if !IsReversePTRQuery(yes) {
		t.Error("reverse PTR query not recognized")
	}
	forward := NewPTRQuery(1, "www.example.jp")
	if IsReversePTRQuery(forward) {
		t.Error("forward-name PTR accepted as reverse")
	}
	aQuery := &Message{Header: Header{QDCount: 1},
		Questions: []Question{{Name: "4.3.2.1.in-addr.arpa", Type: TypeA, Class: ClassIN}}}
	if IsReversePTRQuery(aQuery) {
		t.Error("A query accepted as reverse PTR")
	}
	resp := NewResponse(yes, RCodeNoError)
	if IsReversePTRQuery(resp) {
		t.Error("response accepted as query")
	}
}

// TestRoundTripProperty fuzzes random reverse names through encode/decode.
func TestRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(v uint32, id uint16) bool {
		name := ipaddr.Addr(v).ReverseName()
		wire, err := NewPTRQuery(id, name).Encode(nil)
		if err != nil {
			return false
		}
		got := new(Message)
		err = DecodeInto(wire, got)
		return err == nil && got.Questions[0].Name == name && got.Header.ID == id
	}, nil); err != nil {
		t.Error(err)
	}
}

// TestDecodeNeverPanics feeds random bytes to the decoder; malformed input
// must produce errors, not panics or hangs.
func TestDecodeNeverPanics(t *testing.T) {
	st := rng.New(99)
	var m Message
	for i := 0; i < 20000; i++ {
		n := st.Intn(64)
		data := make([]byte, n)
		for j := range data {
			data[j] = byte(st.Uint64())
		}
		_ = DecodeInto(data, &m) // must not panic
	}
}

// TestMutatedMessagesNeverPanic flips bytes in valid messages.
func TestMutatedMessagesNeverPanic(t *testing.T) {
	st := rng.New(100)
	q := NewPTRQuery(1, "4.3.2.1.in-addr.arpa")
	r := NewResponse(q, RCodeNoError)
	r.AddAnswer(RR{Name: "4.3.2.1.in-addr.arpa", Type: TypePTR, Class: ClassIN, TTL: 60, Target: "mail.example.jp"})
	wire, err := r.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	var m Message
	for i := 0; i < 20000; i++ {
		mut := append([]byte(nil), wire...)
		for k := 0; k < 1+st.Intn(4); k++ {
			mut[st.Intn(len(mut))] = byte(st.Uint64())
		}
		_ = DecodeInto(mut, &m) // must not panic
	}
}

func BenchmarkEncodePTRQuery(b *testing.B) {
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		var err error
		buf, err = NewPTRQuery(uint16(i), "4.3.2.1.in-addr.arpa").Encode(buf)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeInto(b *testing.B) {
	wire, err := NewPTRQuery(1, "4.3.2.1.in-addr.arpa").Encode(nil)
	if err != nil {
		b.Fatal(err)
	}
	var m Message
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecodeInto(wire, &m); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEncodeRejectsTrailingEmptyLabel pins a fuzzer find: "a.." used to
// silently drop its empty label and encode like "a", but with different
// compression-table keys, so re-encoding a decoded message could change
// the wire bytes. Empty labels must be rejected wherever they appear.
func TestEncodeRejectsTrailingEmptyLabel(t *testing.T) {
	for _, name := range []string{"a..", "a..b", ".."} {
		if _, err := NewPTRQuery(1, name).Encode(nil); err == nil {
			t.Errorf("Encode(%q) succeeded, want empty-label error", name)
		}
	}
	// The absolute form with a single trailing dot stays valid.
	if _, err := NewPTRQuery(1, "a.b.").Encode(nil); err != nil {
		t.Errorf("Encode(%q): %v", "a.b.", err)
	}
}

// TestDecodeRejectsDotInLabel pins a fuzzer find: a wire label containing
// a literal '.' octet is unrepresentable in the dotted-string form (one
// label "a.b" reads identically to two labels), so the decoder must
// reject it rather than hand the encoder an ambiguous name.
func TestDecodeRejectsDotInLabel(t *testing.T) {
	wire := []byte("\x00\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00" + "\x03a.b\x00" + "\x00\x0c\x00\x01")
	var m Message
	if err := DecodeInto(wire, &m); err != ErrDotInLabel {
		t.Errorf("DecodeInto = %v, want ErrDotInLabel", err)
	}
}
