// Package wire is the daemon's hand-written JSON codec: an append-only
// Encoder whose output is byte for byte encoding/json's, and a Reader
// that decodes what encoding/json's Decoder accepts into the same values
// without reflection. The packages that own a body's member names
// (trace for Trace and Packet, serve for the request and response
// envelopes, session for events) drive them; this package knows no
// member names.
package wire

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
)

// Encoder appends JSON to Buf. Failed turns true at the first value JSON
// cannot represent (a NaN or an infinity), as encoding/json refuses it,
// or when writing to Out fails.
type Encoder struct {
	Buf    []byte
	Failed bool
	// Out, when set, streams a long value: Spill writes Buf to it once
	// Buf holds spillBytes, and Flush writes the rest.
	Out io.Writer
}

// spillBytes is how much an Encoder with an Out buffers before Spill
// writes: a few dozen writes for a 2 MB trace, instead of holding all of
// it for as long as the client takes to read it.
const spillBytes = 32 << 10

// NewStream returns an Encoder that writes to out through a buffer of
// about spillBytes.
func NewStream(out io.Writer) *Encoder {
	return &Encoder{Buf: make([]byte, 0, spillBytes+1024), Out: out}
}

// Spill writes Buf to Out once it holds spillBytes or more. Encoders of
// long arrays call it between elements.
func (e *Encoder) Spill() {
	if e.Out != nil && len(e.Buf) >= spillBytes {
		e.Flush()
	}
}

// Flush writes Buf to Out and empties it.
func (e *Encoder) Flush() {
	if e.Failed {
		return
	}
	if _, err := e.Out.Write(e.Buf); err != nil {
		e.Failed = true
	}
	e.Buf = e.Buf[:0]
}

// Raw appends s verbatim: punctuation and pre-quoted member names.
func (e *Encoder) Raw(s string) { e.Buf = append(e.Buf, s...) }

// Int appends v in decimal.
func (e *Encoder) Int(v int64) { e.Buf = strconv.AppendInt(e.Buf, v, 10) }

// Float formats like encoding/json: shortest round-trip digits, exponent
// form only below 1e-6 or from 1e21, with a two-digit negative exponent's
// leading zero removed (e-09 → e-9).
func (e *Encoder) Float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.Failed = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.Buf = strconv.AppendFloat(e.Buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(e.Buf); n >= 4 && e.Buf[n-4] == 'e' && e.Buf[n-3] == '-' && e.Buf[n-2] == '0' {
			e.Buf[n-2] = e.Buf[n-1]
			e.Buf = e.Buf[:n-1]
		}
	}
}

// Floats appends a []float64 as encoding/json does: null when nil.
func (e *Encoder) Floats(fs []float64) {
	if fs == nil {
		e.Raw("null")
		return
	}
	e.Buf = append(e.Buf, '[')
	for i, f := range fs {
		if i > 0 {
			e.Buf = append(e.Buf, ',')
		}
		e.Float(f)
	}
	e.Buf = append(e.Buf, ']')
}

// Sep writes the comma between object members: every member but the one
// that starts at open (just past the brace) is preceded by one.
func (e *Encoder) Sep(open int) {
	if len(e.Buf) > open {
		e.Buf = append(e.Buf, ',')
	}
}

// OptFloat writes an `omitempty` float member (±0 is empty).
func (e *Encoder) OptFloat(open int, key string, f float64) {
	if f == 0 {
		return
	}
	e.Sep(open)
	e.Raw(key)
	e.Float(f)
}

// Str writes a JSON string. Printable ASCII that encoding/json copies
// through verbatim is copied here; anything it would escape (quotes,
// backslashes, control bytes, HTML-sensitive characters, non-ASCII) is
// handed to it, which only free-text fields can ever need.
func (e *Encoder) Str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, err := json.Marshal(s)
			if err != nil {
				e.Failed = true
				return
			}
			e.Buf = append(e.Buf, b...)
			return
		}
	}
	e.Buf = append(e.Buf, '"')
	e.Buf = append(e.Buf, s...)
	e.Buf = append(e.Buf, '"')
}
