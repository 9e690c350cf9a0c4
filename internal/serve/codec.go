package serve

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"

	"ibox/internal/core"
	"ibox/internal/trace"
	"ibox/internal/wire"
)

// The wire codec of the trace-bearing routes, POST /v1/simulate and
// POST /v1/replay. This file owns the member names of their envelopes:
// SimulateRequest, ReplayRequest, SimulateResponse, the replay frames and
// core.Metrics (encoded under its Go field names); trace owns those of
// Trace and Packet. Requests decode with wire.Reader, which accepts
// exactly what encoding/json's Decoder accepted, to the same struct,
// except that a member set twice is a 400. Responses append with
// wire.Encoder, byte for byte what encoding/json wrote, except that an
// undefined metric is null where encoding/json could write nothing. The
// types keep their json tags: they document the wire format, clients use
// them, and the tests and bench/'s goldens encode them with encoding/json
// as an oracle independent of this code.

var (
	simulateMembers = []string{"model", "seed", "protocol", "duration_s", "variant", "input", "hierarchical", "timeout_ms"}
	replayMembers   = []string{"model", "seed", "input", "include_trace", "timeout_ms"}
)

func decodeSimulateRequest(b []byte) (SimulateRequest, error) {
	var req SimulateRequest
	r := wire.NewReader(b)
	if r.Object() {
		var seen uint64
		for r.More() {
			switch r.Key(simulateMembers, &seen) {
			case 0:
				req.Model = r.Str()
			case 1:
				req.Seed = r.Int64()
			case 2:
				req.Protocol = r.Str()
			case 3:
				req.DurationS = r.Float64()
			case 4:
				req.Variant = r.Str()
			case 5:
				req.Input = trace.DecodeJSON(r)
			case 6:
				req.Hierarchical = r.Bool()
			case 7:
				req.TimeoutMs = r.Int()
			default:
				r.Skip()
			}
		}
	}
	return req, r.Err()
}

func decodeReplayRequest(b []byte) (ReplayRequest, error) {
	var req ReplayRequest
	r := wire.NewReader(b)
	if r.Object() {
		var seen uint64
		for r.More() {
			switch r.Key(replayMembers, &seen) {
			case 0:
				req.Model = r.Str()
			case 1:
				req.Seed = r.Int64()
			case 2:
				req.Input = trace.DecodeJSON(r)
			case 3:
				req.IncludeTrace = r.Bool()
			case 4:
				req.TimeoutMs = r.Int()
			default:
				r.Skip()
			}
		}
	}
	return req, r.Err()
}

// appendMetrics encodes m. A metric with no defined value — P95DelayMs
// when nothing was delivered — is null.
func appendMetrics(e *wire.Encoder, m core.Metrics) {
	metric := func(f float64) {
		if math.IsNaN(f) {
			e.Raw("null")
		} else {
			e.Float(f)
		}
	}
	e.Raw(`{"ThroughputMbps":`)
	metric(m.ThroughputMbps)
	e.Raw(`,"P95DelayMs":`)
	metric(m.P95DelayMs)
	e.Raw(`,"LossPct":`)
	metric(m.LossPct)
	e.Raw("}")
}

func appendSimulateResponse(e *wire.Encoder, resp *SimulateResponse) {
	e.Raw(`{"model":`)
	e.Str(resp.Model)
	e.Raw(`,"kind":`)
	e.Str(string(resp.Kind))
	e.Raw(`,"metrics":`)
	appendMetrics(e, resp.Metrics)
	e.Raw(`,"trace":`)
	trace.EncodeJSON(e, resp.Trace)
	e.Raw("}")
}

func appendReplayWindows(e *wire.Encoder, f *replayWindows) {
	e.Raw(`{"type":`)
	e.Str(f.Type)
	e.Raw(`,"t0":`)
	e.Int(int64(f.T0))
	e.Raw(`,"mu":`)
	e.Floats(f.Mu)
	e.Raw(`,"sigma":`)
	e.Floats(f.Sigma)
	e.Raw("}")
}

func appendReplayEnd(e *wire.Encoder, f *replayEnd) {
	e.Raw(`{"type":`)
	e.Str(f.Type)
	e.Raw(`,"model":`)
	e.Str(f.Model)
	e.Raw(`,"kind":`)
	e.Str(string(f.Kind))
	e.Raw(`,"windows":`)
	e.Int(int64(f.Windows))
	e.Raw(`,"batch_size":`)
	e.Int(int64(f.BatchSize))
	e.Raw(`,"metrics":`)
	appendMetrics(e, f.Metrics)
	if f.Trace != nil {
		e.Raw(`,"trace":`)
		trace.EncodeJSON(e, f.Trace)
	}
	e.Raw("}")
}

func appendReplayError(e *wire.Encoder, f *replayError) {
	e.Raw(`{"type":`)
	e.Str(f.Type)
	e.Raw(`,"error":`)
	e.Str(f.Error)
	e.Raw("}")
}

// decodeBody reads the request body, bounded by MaxBodyBytes, into one
// buffer sized from its Content-Length, and decodes it. On failure it
// writes the status encoding/json's Decoder led to: 413 when the body
// passes MaxBodyBytes before its value ends, 400 for anything else. As
// with that Decoder, a value that ends within the bytes read decodes even
// if reading on failed.
func decodeBody[T any](s *Server, w http.ResponseWriter, r *http.Request, decode func([]byte) (T, error)) (T, bool) {
	body, err := readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), min(r.ContentLength, s.cfg.MaxBodyBytes))
	var req T
	if err == nil || !wire.Truncated(body) {
		req, err = decode(body)
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(w, http.StatusRequestEntityTooLarge, err)
		} else {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("serve: decode request: %w", err))
		}
		return req, false
	}
	return req, true
}

// readBody reads everything rd yields into a buffer with room for size
// bytes (the request's Content-Length; negative when unknown) and the
// read that reports io.EOF.
func readBody(rd io.Reader, size int64) ([]byte, error) {
	b := make([]byte, 0, max(size+1, 512))
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := rd.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// frameWriter writes /v1/replay frames in the negotiated framing through
// one stream encoder, flushing each frame as it ends.
type frameWriter struct {
	e   *wire.Encoder
	rc  *http.ResponseController
	sse bool
}

func newFrameWriter(w http.ResponseWriter, sse bool) *frameWriter {
	return &frameWriter{e: wire.NewStream(w), rc: http.NewResponseController(w), sse: sse}
}

// write sends the JSON value enc appends as one frame of the given event
// type. False means the client is gone (or the value could not be
// encoded) and the stream should stop.
func (f *frameWriter) write(event string, enc func(*wire.Encoder)) bool {
	e := f.e
	if f.sse {
		e.Raw("event: ")
		e.Raw(event)
		e.Raw("\ndata: ")
	}
	enc(e)
	if f.sse {
		e.Raw("\n\n")
	} else {
		e.Raw("\n")
	}
	e.Flush()
	return !e.Failed && f.rc.Flush() == nil
}
