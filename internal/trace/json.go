package trace

import (
	"bytes"
	"fmt"
	"io"

	"ibox/internal/sim"
	"ibox/internal/wire"
)

// The JSON form of a trace. This file owns its member names: the json
// tags on Trace and Packet, and the encoder and decoder below that every
// reader and writer of a trace goes through (WriteJSON/ReadJSON and the
// daemon's request and response bodies). EncodeJSON's output is byte for
// byte what encoding/json makes of the tagged structs, and DecodeJSON
// accepts exactly what encoding/json decodes into them, to the same
// values, save for wire.ErrDuplicateMember (FuzzReadJSON).

var (
	traceMembers  = []string{"protocol", "path_id", "packets"}
	packetMembers = []string{"seq", "size", "send", "recv", "lost"}
)

// EncodeJSON appends t's JSON encoding to e; a nil t encodes as null.
func EncodeJSON(e *wire.Encoder, t *Trace) {
	if t == nil {
		e.Raw("null")
		return
	}
	e.Raw(`{"protocol":`)
	e.Str(t.Protocol)
	e.Raw(`,"path_id":`)
	e.Str(t.PathID)
	e.Raw(`,"packets":`)
	if t.Packets == nil {
		e.Raw("null}")
		return
	}
	e.Raw("[")
	for i := range t.Packets {
		p := &t.Packets[i]
		if i > 0 {
			e.Spill()
			e.Raw(",")
		}
		e.Raw(`{"seq":`)
		e.Int(p.Seq)
		e.Raw(`,"size":`)
		e.Int(int64(p.Size))
		e.Raw(`,"send":`)
		e.Int(int64(p.SendTime))
		e.Raw(`,"recv":`)
		e.Int(int64(p.RecvTime))
		if p.Lost {
			e.Raw(`,"lost":true}`)
		} else {
			e.Raw("}")
		}
	}
	e.Raw("]}")
}

// DecodeJSON reads one trace value from r; null reads as nil. Errors are
// r's to report.
func DecodeJSON(r *wire.Reader) *Trace {
	if !r.Object() {
		return nil
	}
	t := &Trace{}
	var seen uint64
	for r.More() {
		switch r.Key(traceMembers, &seen) {
		case 0:
			t.Protocol = r.Str()
		case 1:
			t.PathID = r.Str()
		case 2:
			t.Packets = decodePackets(r)
		default:
			r.Skip()
		}
	}
	return t
}

// decodePackets reads the packets array: nil for null, and a non-nil
// slice (empty for []) otherwise, as encoding/json decodes a slice.
func decodePackets(r *wire.Reader) []Packet {
	if !r.Array() {
		return nil
	}
	// Every packet object has one opening brace, so counting them sizes
	// the slice in one allocation; the bound keeps a body of bare braces
	// from reserving more than its own size in packets.
	rest := r.Rest()
	ps := make([]Packet, 0, min(bytes.Count(rest, []byte{'{'}), len(rest)/32))
	for r.More() {
		ps = append(ps, Packet{})
		p := &ps[len(ps)-1]
		if !r.Object() {
			continue // null leaves the packet zero
		}
		var seen uint64
		for r.More() {
			switch r.Key(packetMembers, &seen) {
			case 0:
				p.Seq = r.Int64()
			case 1:
				p.Size = r.Int()
			case 2:
				p.SendTime = sim.Time(r.Int64())
			case 3:
				p.RecvTime = sim.Time(r.Int64())
			case 4:
				p.Lost = r.Bool()
			default:
				r.Skip()
			}
		}
	}
	return ps
}

// WriteJSON encodes the trace as a single JSON object and a newline.
func (t *Trace) WriteJSON(w io.Writer) error {
	var e wire.Encoder
	EncodeJSON(&e, t)
	e.Raw("\n")
	_, err := w.Write(e.Buf)
	return err
}

// ReadJSON decodes and validates a trace written by WriteJSON. Bytes
// after the trace are ignored.
func ReadJSON(r io.Reader) (*Trace, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: read json: %w", err)
	}
	dec := wire.NewReader(b)
	t := DecodeJSON(dec)
	if err := dec.Err(); err != nil {
		return nil, fmt.Errorf("trace: decode json: %w", err)
	}
	if t == nil {
		t = &Trace{}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
