package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"ibox/internal/core"
	"ibox/internal/obs"
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
// Cancellation: when the client disconnects or its deadline expires, the
// handler returns immediately — releasing its admission slot — and the
// sink is closed, which makes the lane's next Emit fail and abandons the
// rest of its unroll without touching any other lane, in its sub-batch
// or another.

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

// streamSink carries chunks from a batch lane to its HTTP handler
// without ever blocking the lockstep batch: push copies the chunk into a
// queue under a mutex and nudges a 1-buffered notify channel. After
// close (consumer gone), push reports false and the lane abandons the
// rest of its unroll at the next chunk boundary.
type streamSink struct {
	mu     sync.Mutex
	chunks []streamChunk
	closed bool
	notify chan struct{}
}

func newStreamSink() *streamSink {
	return &streamSink{notify: make(chan struct{}, 1)}
}

// push is the lane's Emit callback; it copies mu/sigma (the lane owns
// the backing arrays and keeps writing past them).
func (sk *streamSink) push(t0 int, mu, sigma []float64) bool {
	sk.mu.Lock()
	if sk.closed {
		sk.mu.Unlock()
		return false
	}
	sk.chunks = append(sk.chunks, streamChunk{
		t0: t0,
		mu: append([]float64(nil), mu...), sigma: append([]float64(nil), sigma...),
	})
	sk.mu.Unlock()
	select {
	case sk.notify <- struct{}{}:
	default:
	}
	return true
}

// drain takes all queued chunks.
func (sk *streamSink) drain() []streamChunk {
	sk.mu.Lock()
	cs := sk.chunks
	sk.chunks = nil
	sk.mu.Unlock()
	return cs
}

// close marks the consumer gone: queued chunks drop, future pushes fail.
func (sk *streamSink) close() {
	sk.mu.Lock()
	sk.closed = true
	sk.chunks = nil
	sk.mu.Unlock()
}

func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	if s.simulateHist != nil {
		defer s.simulateHist.ObserveSince(time.Now())
	}
	s.requests.Add(1)

	req, ok := decodeBody(s, w, r, decodeReplayRequest)
	if !ok {
		return
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	m := metaFrom(r.Context())
	lsp := m.childSpan("load")
	model, err := s.registry.Get(req.Model)
	lsp.End()
	if err != nil {
		code := http.StatusUnprocessableEntity
		switch {
		case os.IsNotExist(err):
			code = http.StatusNotFound
		case errors.Is(err, ErrInvalidModelID):
			code = http.StatusBadRequest
		}
		s.writeError(w, code, err)
		return
	}
	m.setModel(model.ID)
	if model.Kind != KindIBoxML {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("%w: streaming replay requires an iboxml model, %s is %q", errBadRequest, model.ID, model.Kind))
		return
	}
	if req.Input == nil || len(req.Input.Packets) == 0 {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("%w: iboxml model %s requires a non-empty \"input\" trace", errBadRequest, model.ID))
		return
	}
	if err := req.Input.Validate(); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("%w: %v", errBadRequest, err))
		return
	}
	if s.cfg.Quarantine && s.driftVerdict(model.ID) == obs.DriftFailing {
		s.quarantined.With(model.ID).Add(1)
		m.setShed("quarantine")
		s.shedByReason.With("quarantine").Add(1)
		s.writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("serve: model %s quarantined: drift verdict failing", model.ID))
		return
	}

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

	sink := newStreamSink()
	// Closing the sink on every exit path makes the lane abandon its
	// remaining unroll at the next chunk boundary; nothing resumes after
	// the handler returns.
	defer sink.close()

	ssp := m.childSpan("simulate")
	defer ssp.End()
	res := s.batch.enqueue(ctx, model.ID, model.ML, req.Input, req.Seed, sink)

	windows := 0
	writeChunks := func() bool {
		for _, c := range sink.drain() {
			ok := fw.write("windows", func(e *wire.Encoder) {
				appendReplayWindows(e, &replayWindows{Type: "windows", T0: c.t0, Mu: c.mu, Sigma: c.sigma})
			})
			if !ok {
				return false
			}
			windows += len(c.mu)
		}
		return true
	}
	for {
		select {
		case <-sink.notify:
			if !writeChunks() {
				return
			}
		case r := <-res:
			if !writeChunks() {
				return
			}
			if r.err != nil {
				if !errors.Is(r.err, errStreamClosed) {
					fw.write("error", func(e *wire.Encoder) {
						appendReplayError(e, &replayError{Type: "error", Error: r.err.Error()})
					})
				}
				return
			}
			m.setBatch(r.size)
			end := replayEnd{
				Type: "end", Model: model.ID, Kind: model.Kind,
				Windows: windows, BatchSize: r.size, Metrics: core.MetricsOf(r.out),
			}
			if req.IncludeTrace {
				end.Trace = r.out
			}
			fw.write("end", func(e *wire.Encoder) { appendReplayEnd(e, &end) })
			// The replay input carries observed delays — score a sampled
			// fraction into the model's drift sketch, as /v1/simulate does.
			s.maybeScoreDrift(ctx, model, req.Input)
			return
		case <-ctx.Done():
			// Client gone or deadline hit: free the admission slot now;
			// the deferred sink.close() aborts the lane.
			return
		}
	}
}
