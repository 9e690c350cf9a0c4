package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"ibox/internal/obs"
	"ibox/internal/session"
)

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	ID    int64
	Event string // "" for plain data frames
	Data  []byte
}

// sseReader incrementally parses an SSE stream.
type sseReader struct {
	sc *bufio.Scanner
}

func newSSEReader(r io.Reader) *sseReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	return &sseReader{sc: sc}
}

// next returns the next frame, or an error at stream end.
func (r *sseReader) next() (sseFrame, error) {
	var f sseFrame
	seen := false
	for r.sc.Scan() {
		line := r.sc.Text()
		switch {
		case line == "":
			if seen {
				return f, nil
			}
		case strings.HasPrefix(line, "id: "):
			f.ID, _ = strconv.ParseInt(line[4:], 10, 64)
			seen = true
		case strings.HasPrefix(line, "event: "):
			f.Event = line[7:]
			seen = true
		case strings.HasPrefix(line, "data: "):
			f.Data = []byte(line[6:])
			seen = true
		case strings.HasPrefix(line, ":"):
			// comment (gap report); ignore
		}
	}
	if err := r.sc.Err(); err != nil {
		return f, err
	}
	return f, io.EOF
}

// sessionEvent mirrors the session event stream's JSON for test
// assertions.
type sessionEvent struct {
	Seq    int64   `json:"seq"`
	Type   string  `json:"type"`
	VT     float64 `json:"vt"`
	Packet *struct {
		DelayMs float64 `json:"delay_ms"`
		Cwnd    int     `json:"cwnd"`
	} `json:"packet"`
	Summary *struct {
		Cwnd          int     `json:"cwnd"`
		ThroughputBps float64 `json:"throughput_bps"`
	} `json:"summary"`
	Mutation *struct {
		BandwidthScale float64 `json:"bandwidth_scale"`
		LossRate       float64 `json:"loss_rate"`
		Checkpoint     string  `json:"checkpoint"`
	} `json:"mutation"`
	State string `json:"state"`
}

// postJSON posts a JSON body and returns status + decoded body bytes.
func postJSON(t testing.TB, url string, body any) (int, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// createSession posts a session create and returns the decoded response.
func createSession(t testing.TB, baseURL, tenant string, req SessionRequest) (int, SessionResponse) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest("POST", baseURL+"/v1/sessions", &buf)
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		hreq.Header.Set(tenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("POST /v1/sessions: %v", err)
	}
	defer resp.Body.Close()
	var sr SessionResponse
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusCreated {
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatalf("decode create response: %v (%s)", err, data)
		}
	}
	return resp.StatusCode, sr
}

// getSession fetches one session's control-plane snapshot.
func getSession(t testing.TB, baseURL, id string) (int, session.Info) {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SessionResponse
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatalf("decode session: %v (%s)", err, data)
		}
	}
	return resp.StatusCode, sr.Session
}

// TestSessionControlPlaneE2E is the acceptance path: create a session
// against a fitted checkpoint, stream ≥100 SSE events, mutate the path
// mid-session (bandwidth ×0.5 + loss burst) and watch cwnd respond,
// pause/resume, close — with the serve.session.* gauges, /statusz and
// the session list agreeing on counts throughout. Goroutine hygiene is
// enforced by the package's leakcheck TestMain.
func TestSessionControlPlaneE2E(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	s, dir := newTestServer(t, nil)
	writeNetModel(t, dir, "path-a.json")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, created := createSession(t, ts.URL, "acme", SessionRequest{
		Model: "path-a.json", Protocol: "cubic", Seed: 9,
		Speed: 50, DurationS: 600,
	})
	if code != http.StatusCreated {
		t.Fatalf("create status %d", code)
	}
	id := created.Session.ID
	if created.EventsURL != "/v1/sessions/"+id+"/events" {
		t.Fatalf("events_url = %q", created.EventsURL)
	}

	// Attach the SSE stream.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sreq, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+created.EventsURL, nil)
	sresp, err := http.DefaultClient.Do(sreq)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content-type %q", ct)
	}
	rd := newSSEReader(sresp.Body)

	// Phase 1: ≥100 events including a healthy batch of summaries.
	var preCwnd []int
	events, lastID := 0, int64(0)
	for events < 100 || len(preCwnd) < 10 {
		f, err := rd.next()
		if err != nil {
			t.Fatalf("stream ended early: %v", err)
		}
		if f.ID != 0 {
			if lastID != 0 && f.ID <= lastID {
				t.Fatalf("SSE ids not increasing: %d after %d", f.ID, lastID)
			}
			lastID = f.ID
		}
		events++
		var ev sessionEvent
		if err := json.Unmarshal(f.Data, &ev); err != nil {
			t.Fatalf("bad event %q: %v", f.Data, err)
		}
		if ev.Summary != nil {
			preCwnd = append(preCwnd, ev.Summary.Cwnd)
		}
	}

	// Mid-session mutation: halve the bottleneck, 20% loss for 10 s.
	loss := 0.2
	code, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/path", PathRequest{
		Mutation: session.Mutation{BandwidthScale: 0.5, LossRate: &loss, LossBurstS: 10},
	})
	if code != http.StatusOK {
		t.Fatalf("mutate status %d: %s", code, body)
	}

	// Phase 2: past the mutate event, cwnd must respond to the harsher
	// path. The response lags the mutation by the old path's in-flight
	// tail and queue drain (~2 virtual s), so collect 20 summaries (4
	// virtual s) and judge the second half.
	var postCwnd []int
	sawMutate := false
	for len(postCwnd) < 20 {
		f, err := rd.next()
		if err != nil {
			t.Fatalf("stream ended early post-mutate: %v", err)
		}
		var ev sessionEvent
		if err := json.Unmarshal(f.Data, &ev); err != nil {
			t.Fatalf("bad event %q: %v", f.Data, err)
		}
		if ev.Type == session.EventMutate {
			if ev.Mutation == nil || ev.Mutation.BandwidthScale != 0.5 || ev.Mutation.LossRate != 0.2 {
				t.Fatalf("mutate event %s", f.Data)
			}
			sawMutate = true
			continue
		}
		if sawMutate && ev.Summary != nil {
			postCwnd = append(postCwnd, ev.Summary.Cwnd)
		}
	}
	mean := func(xs []int) float64 {
		sum := 0
		for _, x := range xs {
			sum += x
		}
		return float64(sum) / float64(len(xs))
	}
	pre, post := mean(preCwnd), mean(postCwnd[10:])
	if post >= pre {
		t.Fatalf("cwnd did not respond to mutation: pre %.1f, post %.1f", pre, post)
	}

	// Counts agree while the session lives: HTTP list, /statusz, gauges.
	if code, info := getSession(t, ts.URL, id); code != http.StatusOK || info.State != "running" {
		t.Fatalf("GET session: %d %+v", code, info)
	}
	if n := statuszSessions(t, ts.URL); n != 1 {
		t.Fatalf("statusz sessions_active = %d, want 1", n)
	}
	s.rollTick()
	snap := obs.Get().Snapshot()
	if got := snap.Gauges["serve.session.active"]; got != 1 {
		t.Fatalf("serve.session.active = %v, want 1", got)
	}
	if got := snap.Gauges[`serve.session.tenant{tenant="acme"}`]; got != 1 {
		t.Fatalf("tenant gauge = %v, want 1", got)
	}

	// Pause: state flips everywhere and virtual time freezes.
	if code, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/pause", nil); code != http.StatusOK {
		t.Fatalf("pause status %d: %s", code, body)
	}
	_, info := getSession(t, ts.URL, id)
	if info.State != "paused" {
		t.Fatalf("state after pause = %q", info.State)
	}
	vt1 := info.VTSeconds
	time.Sleep(100 * time.Millisecond)
	_, info = getSession(t, ts.URL, id)
	if info.VTSeconds != vt1 {
		t.Fatalf("virtual time advanced while paused: %v -> %v", vt1, info.VTSeconds)
	}
	s.rollTick()
	if got := obs.Get().Snapshot().Gauges[`serve.session.state{state="paused"}`]; got != 1 {
		t.Fatalf("paused state gauge = %v, want 1", got)
	}
	if code, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/resume", nil); code != http.StatusOK {
		t.Fatalf("resume status %d: %s", code, body)
	}

	// Close: the stream drains to its end marker, every count drops to
	// zero, and the session is gone from the control plane.
	dreq, _ := http.NewRequest("DELETE", ts.URL+"/v1/sessions/"+id, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("close status %d", dresp.StatusCode)
	}
	sawEnd := false
	for {
		f, err := rd.next()
		if err != nil {
			break
		}
		if f.Event == "end" {
			sawEnd = true
			break
		}
	}
	if !sawEnd {
		t.Fatal("stream did not end with the end marker")
	}
	if code, _ := getSession(t, ts.URL, id); code != http.StatusNotFound {
		t.Fatalf("closed session GET status %d, want 404", code)
	}
	if n := statuszSessions(t, ts.URL); n != 0 {
		t.Fatalf("statusz sessions_active = %d after close", n)
	}
	s.rollTick()
	snap = obs.Get().Snapshot()
	if got := snap.Gauges["serve.session.active"]; got != 0 {
		t.Fatalf("serve.session.active = %v after close", got)
	}
	if got := snap.Counters["serve.session.created"]; got != 1 {
		t.Fatalf("serve.session.created = %d", got)
	}
	if got := snap.Counters["serve.session.closed"]; got != 1 {
		t.Fatalf("serve.session.closed = %d", got)
	}
	if got := snap.Counters["serve.session.mutations"]; got != 1 {
		t.Fatalf("serve.session.mutations = %d", got)
	}
	if got := snap.Counters["serve.session.events"]; got < 100 {
		t.Fatalf("serve.session.events = %d, want ≥100", got)
	}

	// The human statusz page carries the session block.
	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(page, []byte("sessions: 0 active")) {
		t.Fatalf("statusz page missing session block:\n%s", page)
	}
}

// statuszSessions reads sessions_active from /statusz?format=json.
func statuszSessions(t testing.TB, baseURL string) int {
	t.Helper()
	resp, err := http.Get(baseURL + "/statusz?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ls LoadStats
	if err := json.NewDecoder(resp.Body).Decode(&ls); err != nil {
		t.Fatal(err)
	}
	return ls.SessionsActive
}

// TestSessionSSEResume drops the stream and reconnects with ?after=,
// resuming exactly where it left off.
func TestSessionSSEResume(t *testing.T) {
	s, dir := newTestServer(t, nil)
	_ = s
	writeNetModel(t, dir, "path-a.json")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Summaries only (no per-packet events): at Speed 50 that is ~250
	// events per wall second, so the 4096-slot ring holds ~16 s of
	// history and the reconnect below can never race past an evicted
	// tail, even under the race detector's slowdown.
	code, created := createSession(t, ts.URL, "", SessionRequest{
		Model: "path-a.json", Protocol: "reno", Seed: 4, Speed: 50, DurationS: 600,
		PacketEvery: -1,
	})
	if code != http.StatusCreated {
		t.Fatalf("create status %d", code)
	}
	id := created.Session.ID
	defer func() {
		req, _ := http.NewRequest("DELETE", ts.URL+"/v1/sessions/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	read := func(url string, n int) (first, last int64) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		req, _ := http.NewRequestWithContext(ctx, "GET", url, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		rd := newSSEReader(resp.Body)
		for i := 0; i < n; i++ {
			f, err := rd.next()
			if err != nil {
				t.Fatalf("stream: %v", err)
			}
			if first == 0 {
				first = f.ID
			}
			last = f.ID
		}
		return first, last
	}

	_, last := read(ts.URL+created.EventsURL, 25)
	first2, _ := read(fmt.Sprintf("%s%s?after=%d", ts.URL, created.EventsURL, last), 5)
	if first2 != last+1 {
		t.Fatalf("resume after %d started at %d, want %d", last, first2, last+1)
	}
}

// TestSessionCapsAndReaperE2E drives the per-tenant and global caps
// through the HTTP front door, then lets the real idle-TTL reaper
// expire the unwatched sessions and verifies every counter agrees.
func TestSessionCapsAndReaperE2E(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	s, dir := newTestServer(t, func(c *Config) {
		c.MaxSessions = 2
		c.MaxSessionsPerTenant = 1
		c.SessionTTL = 150 * time.Millisecond
	})
	writeNetModel(t, dir, "path-a.json")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	mk := func(tenant string) int {
		code, _ := createSession(t, ts.URL, tenant, SessionRequest{
			Model: "path-a.json", Protocol: "cubic", Seed: 1, Speed: 1,
		})
		return code
	}
	if code := mk("a"); code != http.StatusCreated {
		t.Fatalf("tenant a create: %d", code)
	}
	if code := mk("a"); code != http.StatusTooManyRequests {
		t.Fatalf("tenant cap not enforced: %d", code)
	}
	if code := mk("b"); code != http.StatusCreated {
		t.Fatalf("tenant b create: %d", code)
	}
	if code := mk("c"); code != http.StatusTooManyRequests {
		t.Fatalf("global cap not enforced: %d", code)
	}

	// No subscribers attached: both sessions idle out and the reaper
	// expires them.
	deadline := time.Now().Add(10 * time.Second)
	for statuszSessions(t, ts.URL) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("reaper never expired the idle sessions")
		}
		time.Sleep(20 * time.Millisecond)
	}
	s.rollTick()
	snap := obs.Get().Snapshot()
	if got := snap.Counters["serve.session.expired"]; got != 2 {
		t.Fatalf("serve.session.expired = %d, want 2", got)
	}
	if got := snap.Gauges["serve.session.active"]; got != 0 {
		t.Fatalf("serve.session.active = %v after reap", got)
	}
	if got := snap.Counters[`serve.session.shed{reason="tenant_sessions_full"}`]; got != 1 {
		t.Fatalf("tenant shed counter = %d", got)
	}
	if got := snap.Counters[`serve.session.shed{reason="sessions_full"}`]; got != 1 {
		t.Fatalf("global shed counter = %d", got)
	}

	// Slots freed: admission works again.
	if code := mk("a"); code != http.StatusCreated {
		t.Fatalf("create after reap: %d", code)
	}
}

// TestSessionDriftScoring runs an iBoxML session and checks the live
// drift sketch fills (display-only: never a quarantine input).
func TestSessionDriftScoring(t *testing.T) {
	s, dir := newTestServer(t, nil)
	writeMLModel(t, dir, "lstm.json")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, created := createSession(t, ts.URL, "", SessionRequest{
		Model: "lstm.json", Protocol: "cubic", Seed: 11, Speed: 100, DurationS: 600,
	})
	if code != http.StatusCreated {
		t.Fatalf("create status %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		sts := s.SessionDriftStatuses()
		if len(sts) == 1 && sts[0].Samples > 0 {
			if sts[0].Model != "lstm.json" {
				t.Fatalf("drift model = %q", sts[0].Model)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("live-session drift sketch never filled")
		}
		time.Sleep(10 * time.Millisecond)
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/sessions/"+created.Session.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// TestSessionDriftRebindsOnSwap: drift scoring follows the session's
// *current* checkpoint. A session created from an iboxnet artifact has
// no drift tap, but swapping an ML checkpoint in mid-session must start
// filling that model's sketch — not stay dark or credit the old id.
func TestSessionDriftRebindsOnSwap(t *testing.T) {
	s, dir := newTestServer(t, nil)
	writeNetModel(t, dir, "path-a.json")
	writeMLModel(t, dir, "lstm.json")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, created := createSession(t, ts.URL, "", SessionRequest{
		Model: "path-a.json", Protocol: "cubic", Seed: 3, Speed: 100, DurationS: 600,
	})
	if code != http.StatusCreated {
		t.Fatalf("create status %d", code)
	}
	id := created.Session.ID
	defer func() {
		req, _ := http.NewRequest("DELETE", ts.URL+"/v1/sessions/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	if sts := s.SessionDriftStatuses(); len(sts) != 0 {
		t.Fatalf("iboxnet session opened a drift sketch: %+v", sts)
	}
	code, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/path", PathRequest{
		Mutation: session.Mutation{Checkpoint: "lstm.json"},
	})
	if code != http.StatusOK {
		t.Fatalf("swap status %d: %s", code, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		sts := s.SessionDriftStatuses()
		if len(sts) == 1 && sts[0].Model == "lstm.json" && sts[0].Samples > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("swapped-in model never accrued drift samples: %+v", sts)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSessionDrainClosesSessions shuts a server down with a live session
// and checks the drain closes it, and that a draining server refuses new
// sessions.
func TestSessionDrainClosesSessions(t *testing.T) {
	s, dir := newTestServer(t, nil)
	writeNetModel(t, dir, "path-a.json")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, _ := createSession(t, ts.URL, "ops", SessionRequest{
		Model: "path-a.json", Protocol: "bbr", Seed: 2, Speed: 1,
	})
	if code != http.StatusCreated {
		t.Fatalf("create status %d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// A session leaves the list just after its run loop ends.
	waitFor(t, "drained session to leave the list", func() bool { return len(s.sessions.List()) == 0 })

	if code, _ := createSession(t, ts.URL, "", SessionRequest{
		Model: "path-a.json", Protocol: "cubic",
	}); code != http.StatusServiceUnavailable {
		t.Fatalf("draining create status %d, want 503", code)
	}
}

// TestProtocolsEndpoint lists the cc senders and warm model kinds.
func TestProtocolsEndpoint(t *testing.T) {
	s, dir := newTestServer(t, nil)
	writeNetModel(t, dir, "path-a.json")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Warm the net model so kinds has something to count.
	if _, err := s.registry.Get("path-a.json"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/protocols")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr ProtocolsResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"cubic": false, "bbr": false, "reno": false, "vegas": false}
	for _, p := range pr.Protocols {
		if _, ok := want[p]; ok {
			want[p] = true
		}
	}
	for p, seen := range want {
		if !seen {
			t.Errorf("protocol %q missing from /v1/protocols", p)
		}
	}
	if pr.ModelsLoaded != 1 || pr.Kinds["iboxnet"] != 1 {
		t.Fatalf("loaded/kinds = %d/%v", pr.ModelsLoaded, pr.Kinds)
	}
}

// serveFuzz sends one request straight through h and checks the
// invariants every session route keeps whatever the body: no 5xx but
// 503, and a JSON error body on every non-2xx.
func serveFuzz(t *testing.T, h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rec.Code >= 500 && rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("%s %s %q: status %d (%s)", method, path, body, rec.Code, rec.Body)
	}
	if rec.Code >= 300 {
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("%s %s %q: status %d without a JSON error body: %s", method, path, body, rec.Code, rec.Body)
		}
	}
	return rec
}

// closeFuzzSession closes a session the fuzzer created, if it is still
// live, and checks the server holds no session afterwards.
func closeFuzzSession(t *testing.T, s *Server, id string) {
	t.Helper()
	rec := serveFuzz(t, s.Handler(), "DELETE", "/v1/sessions/"+id, nil)
	if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
		t.Fatalf("close %s: status %d (%s)", id, rec.Code, rec.Body)
	}
	waitFor(t, "every session to close", func() bool { return s.sessions.Active() == 0 })
}

// newFuzzSessionServer builds the server both session fuzzers share: an
// iBoxNet and an iBoxML checkpoint, and a corrupt artifact.
func newFuzzSessionServer(f *testing.F) *Server {
	s, dir := newTestServer(f, nil)
	writeNetModel(f, dir, "path-a.json")
	writeMLModel(f, dir, "lstm.json")
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte(`{"net": {}}`), 0o644); err != nil {
		f.Fatal(err)
	}
	return s
}

// FuzzSessionCreate fuzzes POST /v1/sessions bodies.
func FuzzSessionCreate(f *testing.F) {
	for _, seed := range []string{
		`{"model":"path-a.json","protocol":"cubic","seed":9,"speed":50,"duration_s":600}`,
		`{"model":"path-a.json","protocol":"reno","seed":4,"speed":50,"duration_s":600,"packet_every":-1}`,
		`{"model":"lstm.json","protocol":"cubic","seed":11,"speed":100,"duration_s":600}`,
		`{"model":"path-a.json","protocol":"bbr","seed":2,"speed":1,"variant":"noct","summary_every_ms":50}`,
		`{"model":"path-a.json","protocol":"cubic","speed":-1,"duration_s":0.001}`,
		`{"model":"path-a.json","protocol":"cubic","speed":1e308,"duration_s":1e308}`,
		`{"model":"path-a.json","protocol":"cubic","speed":1e-300,"duration_s":-5}`,
		`{"model":"path-a.json","protocol":"cubic","summary_every_ms":1e-300}`,
		`{"model":"path-a.json","protocol":"cubic","speed":-1,"summary_every_ms":0.000001}`,
		`{"model":"path-a.json","protocol":"cubic","variant":"warp"}`,
		`{"model":"path-a.json","protocol":"warp"}`,
		`{"model":"nope.json","protocol":"cubic"}`,
		`{"model":"bad.json","protocol":"cubic"}`,
		`{"model":"../x.json","protocol":"cubic"}`,
		`{"model":null,"protocol":null,"seed":null,"speed":null}`,
		`{"model":7,"protocol":["cubic"],"speed":"fast"}`,
		`null`, `[]`, `{`, ``,
	} {
		f.Add([]byte(seed))
	}
	s := newFuzzSessionServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serveFuzz(t, s.Handler(), "POST", "/v1/sessions", body)
		if rec.Code == http.StatusCreated {
			var sr SessionResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
				t.Fatalf("create response %s: %v", rec.Body, err)
			}
			closeFuzzSession(t, s, sr.Session.ID)
		}
		if n := s.sessions.Active(); n != 0 {
			t.Fatalf("%d sessions live after the fuzzed create", n)
		}
	})
}

// FuzzSessionPath fuzzes POST /v1/sessions/{id}/path bodies against a
// live iBoxNet session.
func FuzzSessionPath(f *testing.F) {
	for _, seed := range []string{
		`{"bandwidth_scale":0.5,"loss_rate":0.2,"loss_burst_s":10}`,
		`{"checkpoint":"lstm.json"}`,
		`{"checkpoint":"path-a.json","variant":"statloss"}`,
		`{"reorder_rate":0.1,"reorder_extra_ms":30,"reorder_burst_s":2}`,
		`{"reorder_rate":1,"reorder_extra_ms":-5}`,
		`{"reorder_rate":0.5,"reorder_extra_ms":1e300}`,
		`{"bandwidth_scale":-1}`,
		`{"bandwidth_scale":1e-300}`,
		`{"loss_rate":1}`,
		`{"loss_rate":0.5,"loss_burst_s":-1e308}`,
		`{"checkpoint":"nope.json"}`,
		`{"checkpoint":"bad.json"}`,
		`{"checkpoint":"../x.json"}`,
		`{"checkpoint":"lstm.json","variant":"warp"}`,
		`{"checkpoint":null,"loss_rate":null}`,
		`{"loss_rate":"high"}`,
		`{}`, `null`, `[]`, `{`, ``,
	} {
		f.Add([]byte(seed))
	}
	s := newFuzzSessionServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serveFuzz(t, s.Handler(), "POST", "/v1/sessions",
			[]byte(`{"model":"path-a.json","protocol":"cubic","seed":1,"speed":50,"packet_every":-1}`))
		var sr SessionResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sr); rec.Code != http.StatusCreated || err != nil {
			t.Fatalf("create: status %d (%s)", rec.Code, rec.Body)
		}
		id := sr.Session.ID
		if serveFuzz(t, s.Handler(), "POST", "/v1/sessions/"+id+"/path", body).Code == http.StatusOK {
			// Let the mutated path carry traffic for a few ticks.
			sess, err := s.sessions.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			vt := sess.Info().VTSeconds
			waitFor(t, "the mutated session to advance", func() bool { return sess.Info().VTSeconds >= vt+0.2 })
		}
		closeFuzzSession(t, s, id)
	})
}
