package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ibox/internal/iboxml"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

// postReplay fires one streaming replay request; sse selects the
// Server-Sent-Events framing via the Accept header.
func postReplay(t testing.TB, ctx context.Context, url string, req ReplayRequest, sse bool) *http.Response {
	t.Helper()
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(req); err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/replay", &body)
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if sse {
		hr.Header.Set("Accept", "text/event-stream")
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatalf("POST /v1/replay: %v", err)
	}
	return resp
}

// parseSSE splits a complete SSE body into frames (reusing the
// sseFrame type from sessions_test.go).
func parseSSE(t testing.TB, body []byte) []sseFrame {
	t.Helper()
	var frames []sseFrame
	for _, block := range strings.Split(string(body), "\n\n") {
		if strings.TrimSpace(block) == "" {
			continue
		}
		var f sseFrame
		for _, line := range strings.Split(block, "\n") {
			switch {
			case strings.HasPrefix(line, "event: "):
				f.Event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				f.Data = []byte(strings.TrimPrefix(line, "data: "))
			default:
				t.Fatalf("malformed SSE line %q", line)
			}
		}
		frames = append(frames, f)
	}
	return frames
}

// checkReplayChunks asserts the streaming conformance contract over a
// decoded frame sequence: monotonically ordered contiguous chunks of the
// configured size, exactly one terminal end frame, and window values
// bitwise equal to the offline unbatched prediction (JSON round-trips
// float64 exactly, so byte-level equality is checkable post-decode).
func checkReplayChunks(t *testing.T, types []string, chunks []replayWindows, end replayEnd, chunkWin int, wantMu, wantSigma []float64) {
	t.Helper()
	for i, typ := range types {
		if i == len(types)-1 {
			if typ != "end" {
				t.Fatalf("last frame is %q, want end", typ)
			}
		} else if typ != "windows" {
			t.Fatalf("frame %d is %q, want windows", i, typ)
		}
	}
	next := 0
	var mu, sigma []float64
	for i, c := range chunks {
		if c.T0 != next {
			t.Fatalf("chunk %d starts at t0=%d, want %d (monotonic, contiguous)", i, c.T0, next)
		}
		if i < len(chunks)-1 && len(c.Mu) != chunkWin {
			t.Fatalf("chunk %d carries %d windows, want %d", i, len(c.Mu), chunkWin)
		}
		if len(c.Mu) != len(c.Sigma) {
			t.Fatalf("chunk %d: %d mus vs %d sigmas", i, len(c.Mu), len(c.Sigma))
		}
		next += len(c.Mu)
		mu = append(mu, c.Mu...)
		sigma = append(sigma, c.Sigma...)
	}
	if len(mu) != len(wantMu) {
		t.Fatalf("streamed %d windows, want %d", len(mu), len(wantMu))
	}
	if end.Windows != len(wantMu) {
		t.Fatalf("end frame reports %d windows, want %d", end.Windows, len(wantMu))
	}
	if end.BatchSize < 1 {
		t.Fatalf("end frame reports batch size %d", end.BatchSize)
	}
	for w := range wantMu {
		if math.Float64bits(mu[w]) != math.Float64bits(wantMu[w]) ||
			math.Float64bits(sigma[w]) != math.Float64bits(wantSigma[w]) {
			t.Fatalf("window %d: streamed (%v,%v) != offline unbatched (%v,%v)",
				w, mu[w], sigma[w], wantMu[w], wantSigma[w])
		}
	}
}

// decodeSSEReplay splits a complete SSE replay body into its frame types,
// window chunks and end frame.
func decodeSSEReplay(t *testing.T, body []byte) (types []string, chunks []replayWindows, end replayEnd) {
	t.Helper()
	frames := parseSSE(t, body)
	if len(frames) < 3 {
		t.Fatalf("got %d frames, want several chunks plus end", len(frames))
	}
	for _, f := range frames {
		types = append(types, f.Event)
		switch f.Event {
		case "windows":
			var c replayWindows
			if err := json.Unmarshal(f.Data, &c); err != nil {
				t.Fatalf("chunk decode: %v", err)
			}
			chunks = append(chunks, c)
		case "end":
			if err := json.Unmarshal(f.Data, &end); err != nil {
				t.Fatalf("end decode: %v", err)
			}
		default:
			t.Fatalf("unexpected event %q", f.Event)
		}
	}
	return types, chunks, end
}

func TestReplayStreamSSEConformance(t *testing.T) {
	const chunkWin = 4
	t.Run("single model", func(t *testing.T) {
		s, dir := newTestServer(t, func(c *Config) {
			c.Workers = 1
			c.StreamChunk = chunkWin
		})
		writeMLModel(t, dir, "m.json")
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		in := synthTrace(51, 4*sim.Second)
		resp := postReplay(t, context.Background(), ts.URL, ReplayRequest{Model: "m.json", Input: in, Seed: 7}, true)
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Fatalf("Content-Type %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		types, chunks, end := decodeSSEReplay(t, body)
		wantMu, wantSigma := trainedML(t).PredictWindows(in, nil)
		checkReplayChunks(t, types, chunks, end, chunkWin, wantMu, wantSigma)
		if end.Model != "m.json" || end.Kind != KindIBoxML {
			t.Fatalf("end frame identifies %q/%q", end.Model, end.Kind)
		}
		if end.Trace != nil {
			t.Fatal("end frame carries a trace without include_trace")
		}
	})

	// Concurrent streams on two checkpoints share one batch, scheduled
	// every way splitCases lists: each stream still carries exactly its
	// own offline windows and one terminal frame.
	models := []*iboxml.Model{trainedMLShape(t, 8, 1, 5), trainedMLShape(t, 8, 1, 6)}
	ids := []string{"a.json", "b.json"}
	inputs := []*trace.Trace{synthTrace(61, 4*sim.Second), synthTrace(62, 3*sim.Second)}
	for _, sc := range splitCases {
		t.Run(sc.name, func(t *testing.T) {
			s, dir, jobs, release := newSplitServer(t, sc, func(c *Config) { c.StreamChunk = chunkWin })
			for i, m := range models {
				saveModel(t, m, dir, ids[i])
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			// A stream's headers arrive before its lane is enqueued; the
			// batch runs once every stream has joined it.
			n := sc.requests()
			resps := make([]*http.Response, n)
			for i := range resps {
				resps[i] = postReplay(t, context.Background(), ts.URL,
					ReplayRequest{Model: ids[i], Input: inputs[i], Seed: int64(7 + i)}, true)
			}
			release()
			bodies := make([][]byte, n)
			for i, resp := range resps {
				var err error
				bodies[i], err = io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
			}
			sc.checkCounts(t, jobs)
			for i := 0; i < n; i++ {
				types, chunks, end := decodeSSEReplay(t, bodies[i])
				wantMu, wantSigma := models[i].PredictWindows(inputs[i], nil)
				checkReplayChunks(t, types, chunks, end, chunkWin, wantMu, wantSigma)
				if end.Model != ids[i] || end.BatchSize != n {
					t.Fatalf("stream %d: end frame says model %q batch size %d, want %q and %d",
						i, end.Model, end.BatchSize, ids[i], n)
				}
			}
		})
	}
}

func TestReplayStreamNDJSONConformance(t *testing.T) {
	const chunkWin = 5
	s, dir := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.StreamChunk = chunkWin
	})
	writeMLModel(t, dir, "m.json")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in := synthTrace(52, 3*sim.Second)
	resp := postReplay(t, context.Background(), ts.URL, ReplayRequest{
		Model: "m.json", Input: in, Seed: 9, IncludeTrace: true,
	}, false)
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	var types []string
	var chunks []replayWindows
	var end replayEnd
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		var typ struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &typ); err != nil {
			t.Fatalf("line decode: %v (%s)", err, line)
		}
		types = append(types, typ.Type)
		switch typ.Type {
		case "windows":
			var c replayWindows
			if err := json.Unmarshal(line, &c); err != nil {
				t.Fatal(err)
			}
			chunks = append(chunks, c)
		case "end":
			if err := json.Unmarshal(line, &end); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("unexpected type %q", typ.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	m := trainedML(t)
	wantMu, wantSigma := m.PredictWindows(in, nil)
	checkReplayChunks(t, types, chunks, end, chunkWin, wantMu, wantSigma)
	// include_trace: the end frame's trace must byte-match the offline
	// simulation (same contract as /v1/simulate).
	want := m.SimulateTrace(in, nil, 9)
	gb, _ := json.Marshal(end.Trace)
	wb, _ := json.Marshal(want)
	if !bytes.Equal(gb, wb) {
		t.Fatal("end frame trace differs from offline simulation")
	}
}

// TestReplayStreamCancelFreesSlot: canceling a streaming replay
// mid-stream must release its admission slot promptly (the lane aborts
// at its next chunk boundary and nothing resumes after the disconnect —
// the package leak checker would catch a stuck goroutine).
func TestReplayStreamCancelFreesSlot(t *testing.T) {
	t.Run("single lane", func(t *testing.T) {
		s, dir := newTestServer(t, func(c *Config) {
			c.Workers = 1
			c.MaxConcurrent = 1 // a stuck stream would wedge the server
			c.MaxQueue = 4
			c.StreamChunk = 1 // abort opportunities every window
		})
		writeMLModel(t, dir, "m.json")
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		ctx, cancel := context.WithCancel(context.Background())
		resp := postReplay(t, ctx, ts.URL, ReplayRequest{
			Model: "m.json", Input: synthTrace(53, 30*sim.Second), Seed: 3,
		}, true)
		hangUpAfterFirstChunk(t, resp, cancel)

		// The only admission slot must come back: an ordinary simulate
		// request goes through within the default deadline.
		code, _, body := postSimulate(t, ts.URL, SimulateRequest{
			Model: "m.json", Input: synthTrace(54, sim.Second), Seed: 4,
		})
		if code != 200 {
			t.Fatalf("request after canceled stream: status %d: %s", code, body)
		}
	})

	// The canceled lane sits on the sub-batch handed to the idle worker:
	// "a.json" sorts first, so its lane stays on the flushing job and
	// "b.json"'s goes. Hanging up on b must free b's slot and leave a's
	// stream exactly its offline windows.
	t.Run("handed-off lane", func(t *testing.T) {
		s, dir, jobs, release := newSplitServer(t, splitCase{workers: 2, floor: 0}, func(c *Config) {
			c.MaxConcurrent = 2
			c.StreamChunk = 1
		})
		mA := trainedMLShape(t, 8, 1, 5)
		saveModel(t, mA, dir, "a.json")
		saveModel(t, trainedMLShape(t, 8, 1, 6), dir, "b.json")
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		ctx, cancel := context.WithCancel(context.Background())
		respB := postReplay(t, ctx, ts.URL, ReplayRequest{
			Model: "b.json", Input: synthTrace(57, 120*sim.Second), Seed: 5,
		}, true)
		inA := synthTrace(58, 3*sim.Second)
		respA := postReplay(t, context.Background(), ts.URL, ReplayRequest{Model: "a.json", Input: inA, Seed: 6}, true)
		release()
		hangUpAfterFirstChunk(t, respB, cancel)
		bodyA, err := io.ReadAll(respA.Body)
		respA.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		types, chunks, end := decodeSSEReplay(t, bodyA)
		wantMu, wantSigma := mA.PredictWindows(inA, nil)
		checkReplayChunks(t, types, chunks, end, 1, wantMu, wantSigma)
		// a's lone lane may recruit the idle worker once b's has left;
		// only with both workers parked has every job been counted.
		waitFor(t, "both admission slots back", func() bool { return len(s.sem) == 0 })
		spinUntil(t, "both workers to park", func() bool { return parkedWorkers() == 2 })
		if got, _ := jobs(); got != 2 {
			t.Fatalf("batch ran as %d pool jobs, want 2 (b's lane handed off)", got)
		}
	})

	// A lone lane recruits the idle worker as its helper at its first
	// window. Hanging up ends the unroll at the next chunk boundary, and
	// the helper must leave with it: both workers park again.
	t.Run("helped lane", func(t *testing.T) {
		s, dir, jobs, release := newSplitServer(t, splitCase{workers: 2, floor: 0, single: true}, func(c *Config) {
			c.StreamChunk = 1
		})
		saveModel(t, trainedMLShape(t, 8, 1, 5), dir, "a.json")
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		ctx, cancel := context.WithCancel(context.Background())
		resp := postReplay(t, ctx, ts.URL, ReplayRequest{
			Model: "a.json", Input: synthTrace(59, 120*sim.Second), Seed: 8,
		}, true)
		release()
		hangUpAfterFirstChunk(t, resp, cancel)
		waitFor(t, "the admission slot back", func() bool { return len(s.sem) == 0 })
		spinUntil(t, "both workers to park", func() bool { return parkedWorkers() == 2 })
		if got, helpers := jobs(); got != 1 || helpers != 1 {
			t.Fatalf("lane ran as %d pool jobs with %d helpers, want 1 and 1", got, helpers)
		}
	})
}

// hangUpAfterFirstChunk reads a streamed replay until its first chunk
// arrives, then cancels the request and closes the body mid-stream.
func hangUpAfterFirstChunk(t *testing.T, resp *http.Response, cancel context.CancelFunc) {
	t.Helper()
	sc := bufio.NewScanner(resp.Body)
	sawData := false
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			sawData = true
			break
		}
	}
	if !sawData {
		t.Fatal("stream ended before the first chunk")
	}
	cancel()
	resp.Body.Close()
}

// TestReplayValidation covers the pre-stream error paths, which use the
// ordinary JSON error body + status code (no stream is started).
func TestReplayValidation(t *testing.T) {
	s, dir := newTestServer(t, nil)
	writeMLModel(t, dir, "m.json")
	writeNetModel(t, dir, "net.json")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		req  ReplayRequest
		code int
	}{
		{"unknown model", ReplayRequest{Model: "nope.json", Input: synthTrace(55, sim.Second)}, 404},
		{"iboxnet model", ReplayRequest{Model: "net.json", Input: synthTrace(55, sim.Second)}, 400},
		{"empty input", ReplayRequest{Model: "m.json"}, 400},
	}
	for _, tc := range cases {
		resp := postReplay(t, context.Background(), ts.URL, tc.req, true)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.code, body)
		}
		if !json.Valid(body) || !bytes.Contains(body, []byte(`"error"`)) {
			t.Fatalf("%s: not a JSON error body: %s", tc.name, body)
		}
	}

	// Deadline already expired: the stream must terminate without an end
	// event rather than hang (covers ctx.Done before completion).
	resp := postReplay(t, context.Background(), ts.URL, ReplayRequest{
		Model: "m.json", Input: synthTrace(56, 10*sim.Second), TimeoutMs: 1,
	}, true)
	done := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(resp.Body)
		done <- b
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("expired-deadline stream did not terminate")
	}
	resp.Body.Close()
}

// TestExpiredRequestNeverStarts: a unary replay whose deadline passes
// while its batch waits for a worker is dropped from the batch before
// its first window. The streamed replay it queued with runs as a batch
// of one, with exactly its offline windows.
func TestExpiredRequestNeverStarts(t *testing.T) {
	const chunkWin = 4
	s, dir := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.DriftEvery = -1
		c.StreamChunk = chunkWin
	})
	writeMLModel(t, dir, "m.json")
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close) // after the gate opens, so a failed test does not hang

	open := gatePool(t, s.pool, 1)
	in := synthTrace(59, 2*sim.Second)
	resp := postReplay(t, context.Background(), ts.URL, ReplayRequest{Model: "m.json", Input: in, Seed: 8}, true)
	defer resp.Body.Close()
	code, _, body := postSimulate(t, ts.URL, SimulateRequest{
		Model: "m.json", Input: synthTrace(60, 2*sim.Second), Seed: 9, TimeoutMs: 1,
	})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("expired unary replay: status %d (%s), want 504", code, body)
	}
	spinUntil(t, "both replays to queue", func() bool { return queued(s.batch) == 2 })
	open()
	all, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	types, chunks, end := decodeSSEReplay(t, all)
	wantMu, wantSigma := trainedML(t).PredictWindows(in, nil)
	checkReplayChunks(t, types, chunks, end, chunkWin, wantMu, wantSigma)
	if end.BatchSize != 1 {
		t.Fatalf("stream ran in a batch of %d, want 1: the expired replay started", end.BatchSize)
	}
}
