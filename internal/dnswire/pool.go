package dnswire

import "sync"

// Encoder encodes messages while reusing its name-compression table
// across calls. A fresh table per Encode is the dominant allocation on
// the authority answer path; one Encoder per serve loop removes it.
//
// Encoding is value-transparent: an Encoder produces byte-for-byte the
// same wire form as Message.Encode, regardless of what it encoded
// before (the table is cleared per message). An Encoder is not safe for
// concurrent use; give each goroutine its own via AcquireEncoder. The
// zero Encoder is ready to use.
type Encoder struct {
	names []written // suffixes written so far and their offsets, in order
}

// NewEncoder returns a ready-to-use Encoder. Most callers should prefer
// AcquireEncoder, which recycles encoders across call sites.
func NewEncoder() *Encoder {
	return &Encoder{names: make([]written, 0, 16)}
}

var encoderPool = sync.Pool{New: func() any { return NewEncoder() }}

// AcquireEncoder returns an Encoder from the package pool. Release it
// with ReleaseEncoder when the encode loop is done; holding it across
// many Encode calls is the intended use.
func AcquireEncoder() *Encoder {
	return encoderPool.Get().(*Encoder)
}

// ReleaseEncoder returns enc to the pool. The caller must not use enc
// after releasing it.
func ReleaseEncoder(enc *Encoder) {
	encoderPool.Put(enc)
}

var messagePool = sync.Pool{New: func() any { return new(Message) }}

// AcquireMessage returns an empty Message from the package pool, ready
// for SetPTRQuery or DecodeInto. Release it with ReleaseMessage once the
// wire bytes have been produced or the decoded fields copied out.
func AcquireMessage() *Message {
	return messagePool.Get().(*Message)
}

// ReleaseMessage resets m and returns it to the pool. The caller must
// not retain m or any of its section slices after releasing.
func ReleaseMessage(m *Message) {
	m.Reset()
	messagePool.Put(m)
}
