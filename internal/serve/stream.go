package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"ibox/internal/core"
	"ibox/internal/trace"
	"ibox/internal/wire"
)

// Streaming replay: POST /v1/replay runs the same closed-loop iBoxML
// replay as /v1/simulate, but emits the window-delay predictions
// incrementally while the simulation advances instead of buffering the
// whole reply. Responses are Server-Sent Events when the client sends
// Accept: text/event-stream (frames: `event: windows` chunks, then one
// terminal `event: end`), and newline-delimited JSON otherwise (objects
// with "type": "windows"/"end"). Chunks flush on the lane-batch chunk
// boundary (Config.StreamChunk windows), so a long trace's first
// predictions arrive after a small fraction of the total compute — and
// because the batcher (batcher.go) advances every member of a sub-batch
// in lockstep and runs sub-batches above its split floor side by side on
// idle workers, concurrent streams make fair incremental progress instead
// of queueing behind each other's full replays. On a saturated pool the
// whole batch is one lockstep walk and chunks interleave member by
// member.
//
// Cancellation is that of every iBoxML replay (Server.replay): when the
// client disconnects or its deadline expires, the handler returns at
// once — releasing its admission slot — and closes its lane, which
// abandons the rest of its unroll at the next chunk boundary without
// touching any other lane, in its sub-batch or another.

// ReplayRequest is the body of POST /v1/replay. Replay is iBoxML-only:
// input is the send-side trace whose delays the model predicts.
type ReplayRequest struct {
	Model string       `json:"model"`
	Seed  int64        `json:"seed"`
	Input *trace.Trace `json:"input,omitempty"`
	// IncludeTrace attaches the fully-sampled output trace to the end
	// event (the incremental chunks carry window predictions only).
	IncludeTrace bool `json:"include_trace,omitempty"`
	// TimeoutMs overrides the server's default per-request deadline.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// replayWindows is one incremental chunk: closed-loop mu/sigma delay
// predictions (milliseconds) for windows [t0, t0+len(mu)).
type replayWindows struct {
	Type  string    `json:"type"`
	T0    int       `json:"t0"`
	Mu    []float64 `json:"mu"`
	Sigma []float64 `json:"sigma"`
}

// replayEnd is the terminal frame of a successful stream.
type replayEnd struct {
	Type      string       `json:"type"`
	Model     string       `json:"model"`
	Kind      Kind         `json:"kind"`
	Windows   int          `json:"windows"`
	BatchSize int          `json:"batch_size"`
	Metrics   core.Metrics `json:"metrics"`
	Trace     *trace.Trace `json:"trace,omitempty"`
}

// replayError is the terminal frame of a stream that failed mid-flight
// (pre-stream failures use the ordinary JSON error body + status code).
type replayError struct {
	Type  string `json:"type"`
	Error string `json:"error"`
}

// streamChunk is one emitted chunk queued between the batch lane and the
// HTTP handler.
type streamChunk struct {
	t0        int
	mu, sigma []float64
}

func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request, arrived time.Time) {
	req, ok := decodeBody(s, w, r, decodeReplayRequest)
	if !ok {
		return
	}
	model, ok := s.lookup(w, r, req.Model, func(m *Model) error {
		if m.Kind != KindIBoxML {
			return fmt.Errorf("%w: streaming replay requires an iboxml model, %s is %q", errBadRequest, m.ID, m.Kind)
		}
		return checkInput(m, req.Input)
	})
	if !ok {
		return
	}
	ctx, cancel := s.deadline(r, arrived, req.TimeoutMs)
	defer cancel()

	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	h := w.Header()
	if sse {
		h.Set("Content-Type", "text/event-stream")
	} else {
		h.Set("Content-Type", "application/x-ndjson")
	}
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	fw := newFrameWriter(w, sse)
	w.WriteHeader(http.StatusOK)
	if fw.rc.Flush() != nil {
		return
	}

	windows := 0
	ssp := metaFrom(ctx).childSpan("simulate")
	res := s.replay(ctx, model, req.Input, req.Seed, func(cs []streamChunk) bool {
		for _, c := range cs {
			ok := fw.write("windows", func(e *wire.Encoder) {
				appendReplayWindows(e, &replayWindows{Type: "windows", T0: c.t0, Mu: c.mu, Sigma: c.sigma})
			})
			if !ok {
				return false
			}
			windows += len(c.mu)
		}
		return true
	})
	ssp.End()
	switch {
	case res.err == nil:
		end := replayEnd{
			Type: "end", Model: model.ID, Kind: model.Kind,
			Windows: windows, BatchSize: res.size, Metrics: core.MetricsOf(res.out),
		}
		if req.IncludeTrace {
			end.Trace = res.out
		}
		fw.write("end", func(e *wire.Encoder) { appendReplayEnd(e, &end) })
		// The replay input carries observed delays — score a sampled
		// fraction into the model's drift sketch, as /v1/simulate does.
		s.maybeScoreDrift(ctx, model, req.Input)
	case ctx.Err() == nil && !errors.Is(res.err, errLaneClosed):
		fw.write("error", func(e *wire.Encoder) {
			appendReplayError(e, &replayError{Type: "error", Error: res.err.Error()})
		})
	}
	// Otherwise the client is gone or the deadline passed: the stream
	// just ends, with no terminal frame.
}
