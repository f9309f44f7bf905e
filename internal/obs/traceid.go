package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
)

// Trace identity follows the W3C Trace Context shapes: a 128-bit trace ID
// naming one request end to end, and a 64-bit span ID naming one timed
// operation inside it. Both serialize as lowercase hex, and the all-zero
// value is "absent" in both the wire format and this package.

// TraceID is a 128-bit request identifier. The zero value is invalid.
type TraceID [16]byte

// SpanID is a 64-bit span identifier. The zero value is invalid.
type SpanID [8]byte

// IsValid reports whether the trace ID is non-zero.
func (t TraceID) IsValid() bool { return t != TraceID{} }

// String renders the trace ID as 32 lowercase hex characters.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsValid reports whether the span ID is non-zero.
func (s SpanID) IsValid() bool { return s != SpanID{} }

// String renders the span ID as 16 lowercase hex characters.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// idSeq backs NewTraceID/NewSpanID when the system entropy source fails;
// the counter keeps IDs unique within the process.
var idSeq atomic.Uint64

// NewTraceID mints a random 128-bit trace ID. It never returns the zero
// value: on entropy failure it falls back to a process-local sequence.
func NewTraceID() TraceID {
	var t TraceID
	if _, err := rand.Read(t[:]); err != nil || !t.IsValid() {
		binary.BigEndian.PutUint64(t[:8], 0x6361706d616e0000) // "capman" tag
		binary.BigEndian.PutUint64(t[8:], idSeq.Add(1))
	}
	return t
}

// NewSpanID mints a random 64-bit span ID, never zero.
func NewSpanID() SpanID {
	var s SpanID
	if _, err := rand.Read(s[:]); err != nil || !s.IsValid() {
		binary.BigEndian.PutUint64(s[:], idSeq.Add(1))
	}
	return s
}

// TraceContext is the parsed form of a W3C traceparent header: the trace
// ID, the caller's span ID (our parent), and the sampled flag. Valid is
// false for the zero value and for malformed headers, which lets callers
// treat "no header" and "bad header" identically.
type TraceContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
	Valid   bool
}

// ParseTraceparent parses a W3C traceparent header value:
//
//	00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01
//
// version(2) "-" traceid(32) "-" spanid(16) "-" flags(2), all lowercase
// hex. Malformed input, version ff, or all-zero IDs yield an invalid
// (zero) TraceContext rather than an error — absent and broken headers
// are handled the same way at admission.
func ParseTraceparent(h string) TraceContext {
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceContext{}
	}
	// Per spec, future versions may append fields after the flags; accept
	// a longer header only when a dash separates the extra data.
	if len(h) > 55 && h[55] != '-' {
		return TraceContext{}
	}
	var ver, flags [1]byte
	if _, err := hex.Decode(ver[:], []byte(h[0:2])); err != nil || ver[0] == 0xff {
		return TraceContext{}
	}
	tc := ParseTraceID(h[3:35])
	if !tc.Valid || !decodeLowerHex(tc.SpanID[:], h[36:52]) || !tc.SpanID.IsValid() {
		return TraceContext{}
	}
	if _, err := hex.Decode(flags[:], []byte(h[53:55])); err != nil {
		return TraceContext{}
	}
	tc.Sampled = flags[0]&0x01 != 0
	return tc
}

// ParseTraceID parses a bare trace ID — exactly 32 lowercase hex
// characters, not all zero, the check ParseTraceparent applies to its
// trace-ID field — into a valid TraceContext with no parent span. Any
// other input yields the invalid zero value.
func ParseTraceID(s string) TraceContext {
	var tc TraceContext
	if len(s) != 32 || !decodeLowerHex(tc.TraceID[:], s) || !tc.TraceID.IsValid() {
		return TraceContext{}
	}
	tc.Valid = true
	return tc
}

// decodeLowerHex decodes src into dst, rejecting uppercase digits — the
// traceparent spec requires lowercase hex, and hex.Decode alone would
// accept both cases.
func decodeLowerHex(dst []byte, src string) bool {
	for i := 0; i < len(src); i++ {
		c := src[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	_, err := hex.Decode(dst, []byte(src))
	return err == nil
}

// Traceparent renders the context as a version-00 traceparent header
// value, or "" when the context is invalid.
func (tc TraceContext) Traceparent() string {
	if !tc.Valid || !tc.TraceID.IsValid() || !tc.SpanID.IsValid() {
		return ""
	}
	buf := make([]byte, 0, 55)
	buf = append(buf, "00-"...)
	buf = hex.AppendEncode(buf, tc.TraceID[:])
	buf = append(buf, '-')
	buf = hex.AppendEncode(buf, tc.SpanID[:])
	if tc.Sampled {
		buf = append(buf, "-01"...)
	} else {
		buf = append(buf, "-00"...)
	}
	return string(buf)
}

// NewTraceContext mints a fresh sampled trace context — the admission
// path's "no inbound traceparent" branch.
func NewTraceContext() TraceContext {
	return TraceContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true, Valid: true}
}
