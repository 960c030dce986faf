package dnswire_test

import (
	"bytes"
	"fmt"
	"testing"

	"dnsbackscatter/internal/dnswire"
)

// compressible builds a response whose answer shares a suffix with the
// question, so the compression table actually gets hits.
func compressible(id uint16) *dnswire.Message {
	q := dnswire.NewPTRQuery(id, "4.3.2.1.in-addr.arpa")
	r := dnswire.NewResponse(q, dnswire.RCodeNoError)
	r.AddAnswer(dnswire.RR{
		Name:   "4.3.2.1.in-addr.arpa",
		Type:   dnswire.TypePTR,
		Class:  dnswire.ClassIN,
		TTL:    3600,
		Target: "mail.example.jp",
	})
	return r
}

// TestEncoderReuseByteIdentical drives one Encoder through a sequence of
// different messages and checks each output against a fresh-encoder
// encode of the same message: a dirty compression table must never leak
// into the next message's bytes.
func TestEncoderReuseByteIdentical(t *testing.T) {
	msgs := []*dnswire.Message{
		dnswire.NewPTRQuery(1, "4.3.2.1.in-addr.arpa"),
		compressible(2),
		dnswire.NewPTRQuery(3, "8.7.6.5.in-addr.arpa"),
		compressible(4),
		dnswire.NewResponse(dnswire.NewPTRQuery(5, "9.9.9.9.in-addr.arpa"), dnswire.RCodeNXDomain),
	}
	reused := dnswire.NewEncoder()
	for i, m := range msgs {
		fresh, err := dnswire.NewEncoder().Encode(m, nil)
		if err != nil {
			t.Fatalf("msg %d fresh encode: %v", i, err)
		}
		pooled, err := reused.Encode(m, nil)
		if err != nil {
			t.Fatalf("msg %d reused encode: %v", i, err)
		}
		if !bytes.Equal(fresh, pooled) {
			t.Fatalf("msg %d: reused encoder bytes differ from fresh encoder", i)
		}
		viaMethod, err := m.Encode(nil)
		if err != nil {
			t.Fatalf("msg %d Message.Encode: %v", i, err)
		}
		if !bytes.Equal(fresh, viaMethod) {
			t.Fatalf("msg %d: Message.Encode bytes differ from fresh encoder", i)
		}
	}
}

// TestAcquireReleaseEncoderRoundTrip checks that a recycled encoder is
// indistinguishable from a new one.
func TestAcquireReleaseEncoderRoundTrip(t *testing.T) {
	m := compressible(7)
	want, err := dnswire.NewEncoder().Encode(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		enc := dnswire.AcquireEncoder()
		got, err := enc.Encode(m, nil)
		dnswire.ReleaseEncoder(enc)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("round %d: pooled encoder bytes differ", i)
		}
	}
}

// TestSetPTRQueryMatchesNew checks the in-place builder against the
// allocating constructor, including after the message held other state.
func TestSetPTRQueryMatchesNew(t *testing.T) {
	want, err := dnswire.NewPTRQuery(9, "4.3.2.1.in-addr.arpa").Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	m := dnswire.AcquireMessage()
	defer dnswire.ReleaseMessage(m)
	// Dirty the message first; SetPTRQuery must fully overwrite it.
	*m = *compressible(3)
	m.SetPTRQuery(9, "4.3.2.1.in-addr.arpa")
	got, err := m.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("SetPTRQuery bytes differ from NewPTRQuery")
	}
}

// TestReleaseMessageResets checks that released messages come back empty.
func TestReleaseMessageResets(t *testing.T) {
	m := dnswire.AcquireMessage()
	m.SetPTRQuery(1, "4.3.2.1.in-addr.arpa")
	dnswire.ReleaseMessage(m)
	m2 := dnswire.AcquireMessage()
	defer dnswire.ReleaseMessage(m2)
	if len(m2.Questions) != 0 || m2.Header != (dnswire.Header{}) {
		t.Fatal("AcquireMessage returned a non-reset message")
	}
}

func BenchmarkEncoderReused(b *testing.B) {
	m := compressible(1)
	enc := dnswire.NewEncoder()
	buf, err := enc.Encode(m, nil) // warm the encoder and the buffer
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = enc.Encode(m, buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// ExampleAcquireEncoder shows the serve-loop idiom: one encoder held
// across many responses, with the output buffer reused as well.
func ExampleAcquireEncoder() {
	enc := dnswire.AcquireEncoder()
	defer dnswire.ReleaseEncoder(enc)
	var out []byte
	for id := uint16(1); id <= 3; id++ {
		q := dnswire.NewPTRQuery(id, "4.3.2.1.in-addr.arpa")
		var err error
		out, err = enc.Encode(q, out[:0])
		if err != nil {
			panic(err)
		}
		fmt.Println(len(out))
	}
	// Output:
	// 38
	// 38
	// 38
}

// ExampleAcquireMessage builds and encodes a query without allocating a
// fresh Message per lookup.
func ExampleAcquireMessage() {
	m := dnswire.AcquireMessage()
	defer dnswire.ReleaseMessage(m)
	m.SetPTRQuery(42, "4.3.2.1.in-addr.arpa")
	wire, err := m.Encode(nil)
	if err != nil {
		panic(err)
	}
	fmt.Println(m.Header.ID, len(wire))
	// Output: 42 38
}
