package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ibox/internal/obs"
)

// waitFor polls cond until it holds or the deadline passes. The
// instrument middleware records metrics and access logs after the
// response body is flushed, so a client that just read a response may
// be momentarily ahead of the server's bookkeeping.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRequestIDHeader checks every /v1 response carries X-Request-Id:
// generated when the client sent none, echoed verbatim when it did, and
// replaced when the client's ID is abusively long.
func TestRequestIDHeader(t *testing.T) {
	s, dir := newTestServer(t, nil)
	writeNetModel(t, dir, "path-a.json")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := func() *bytes.Reader {
		b, _ := json.Marshal(SimulateRequest{Model: "path-a.json", Protocol: "cubic", DurationS: 0.2, Seed: 1})
		return bytes.NewReader(b)
	}

	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", body())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	gen := resp.Header.Get(RequestIDHeader)
	if gen == "" {
		t.Fatal("response missing generated X-Request-Id")
	}

	req, _ := http.NewRequest("POST", ts.URL+"/v1/simulate", body())
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RequestIDHeader, "client-supplied-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "client-supplied-42" {
		t.Fatalf("supplied request id not echoed: got %q", got)
	}

	req, _ = http.NewRequest("POST", ts.URL+"/v1/simulate", body())
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RequestIDHeader, strings.Repeat("x", maxRequestIDLen+1))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got == "" || strings.HasPrefix(got, "xxx") {
		t.Fatalf("oversized request id not replaced: got %q", got)
	}
}

// TestMetricsEndpoint checks GET /metrics returns a valid Prometheus
// exposition including the labeled per-route/per-model latency
// histogram and the labeled status-class counters.
func TestMetricsEndpoint(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	s, dir := newTestServer(t, nil)
	writeNetModel(t, dir, "path-a.json")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, _, _ := postSimulate(t, ts.URL, SimulateRequest{Model: "path-a.json", Protocol: "cubic", DurationS: 0.2, Seed: 1})
	if code != http.StatusOK {
		t.Fatalf("simulate: %d", code)
	}
	waitFor(t, "request metrics", func() bool { return s.httpRequests.With("simulate", "2xx").Value() >= 1 })

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if _, _, err := obs.ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("/metrics failed exposition validation: %v\n%s", err, out)
	}
	for _, want := range []string{
		`serve_http_requests_total{route="simulate",status="2xx"} 1`,
		`serve_request_ns_bucket{route="simulate",model="path-a.json",status="2xx",batched="false",le="+Inf"} 1`,
		`serve_request_ns_count{route="simulate",model="path-a.json",status="2xx",batched="false"} 1`,
		"serve_requests_total 1",
		"# TYPE serve_http_request_ns histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q\n%s", want, out)
		}
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing log output.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuffer) String() string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.String()
}

// TestAccessLog checks the structured access-log line: one JSON record
// per request whose request_id matches the response header and whose
// fields report route, model, status, latency, queue wait and batch
// size.
func TestAccessLog(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	var buf syncBuffer
	obs.SetLogger(slog.New(obs.NewLogHandler(&buf, slog.LevelInfo)))
	defer obs.SetLogger(nil)

	s, dir := newTestServer(t, nil)
	writeNetModel(t, dir, "path-a.json")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, hdr, _ := postSimulate(t, ts.URL, SimulateRequest{Model: "path-a.json", Protocol: "cubic", DurationS: 0.2, Seed: 1})
	if code != http.StatusOK {
		t.Fatalf("simulate: %d", code)
	}
	waitFor(t, "access log line", func() bool { return strings.Contains(buf.String(), `"msg":"access"`) })

	var rec map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.Contains(line, `"msg":"access"`) {
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("access line is not JSON: %v\n%s", err, line)
			}
		}
	}
	if rec["request_id"] != hdr.Get(RequestIDHeader) {
		t.Fatalf("access log request_id %v != header %q", rec["request_id"], hdr.Get(RequestIDHeader))
	}
	if rec["route"] != "simulate" || rec["model"] != "path-a.json" {
		t.Fatalf("access log route/model = %v/%v", rec["route"], rec["model"])
	}
	if rec["status"] != float64(200) {
		t.Fatalf("access log status = %v", rec["status"])
	}
	for _, k := range []string{"latency_ms", "queue_wait_ms", "batch_size", "bytes_out"} {
		if _, ok := rec[k]; !ok {
			t.Fatalf("access log missing %q: %v", k, rec)
		}
	}
	if rec["latency_ms"].(float64) <= 0 {
		t.Fatalf("latency_ms = %v, want > 0", rec["latency_ms"])
	}
}

// TestCountersReconcileUnderBurst floods a MaxConcurrent=1, MaxQueue=1
// server with concurrent requests and asserts the flat counters
// (serve.requests / serve.shed / serve.errors) and the labeled
// status-class counters reconcile exactly with the client-observed HTTP
// responses. Run under -race in CI.
func TestCountersReconcileUnderBurst(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	s, dir := newTestServer(t, func(c *Config) {
		c.MaxConcurrent = 1
		c.MaxQueue = 1
	})
	writeNetModel(t, dir, "path-a.json")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 24
	reqBody, _ := json.Marshal(SimulateRequest{Model: "path-a.json", Protocol: "cubic", DurationS: 0.2, Seed: 1})
	var mu sync.Mutex
	byStatus := map[int]int64{}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(reqBody))
			if err != nil {
				t.Errorf("POST: %v", err)
				return
			}
			resp.Body.Close()
			if resp.Header.Get(RequestIDHeader) == "" {
				t.Errorf("response %d missing X-Request-Id", resp.StatusCode)
			}
			mu.Lock()
			byStatus[resp.StatusCode]++
			mu.Unlock()
		}()
	}
	wg.Wait()

	ok, shed := byStatus[http.StatusOK], byStatus[http.StatusTooManyRequests]
	if ok+shed != n {
		t.Fatalf("unexpected status mix %v (want only 200 and 429)", byStatus)
	}
	if ok == 0 || shed == 0 {
		t.Skipf("burst did not contend (ok=%d shed=%d); nothing to reconcile", ok, shed)
	}
	// The middleware records after the response flushes; wait for the
	// bookkeeping to catch up, then every ledger must agree exactly.
	waitFor(t, "labeled counters", func() bool {
		return s.httpRequests.With("simulate", "2xx").Value()+s.httpRequests.With("simulate", "4xx").Value() >= n
	})
	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"serve.requests (admitted)", s.requests.Value(), ok},
		{"serve.shed", s.shed.Value(), shed},
		{"serve.errors", s.errors.Value(), shed},
		{`http_requests{simulate,2xx}`, s.httpRequests.With("simulate", "2xx").Value(), ok},
		{`http_requests{simulate,4xx}`, s.httpRequests.With("simulate", "4xx").Value(), shed},
		{`shed_reason{queue_full}`, s.shedByReason.With("queue_full").Value(), shed},
		{"request_ns observations", s.httpLatency.Count(), int64(n)},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d (client saw %v)", c.name, c.got, c.want, byStatus)
		}
	}
}

// TestTraceSampling checks TraceSample=1 records a span lane per
// request (request → queue → load → simulate) exportable as Chrome
// trace JSON, and that the span ring limit bounds retention.
func TestTraceSampling(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	s, dir := newTestServer(t, func(c *Config) {
		c.TraceSample = 1
	})
	writeNetModel(t, dir, "path-a.json")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		code, _, _ := postSimulate(t, ts.URL, SimulateRequest{Model: "path-a.json", Protocol: "cubic", DurationS: 0.2, Seed: 1})
		if code != http.StatusOK {
			t.Fatalf("simulate: %d", code)
		}
	}
	var out string
	waitFor(t, "sampled request spans", func() bool {
		var b bytes.Buffer
		if err := reg.TraceJSON(&b); err != nil {
			t.Fatal(err)
		}
		out = b.String()
		return strings.Count(out, `"request"`) >= 2
	})
	for _, stage := range []string{`"queue"`, `"load"`, `"simulate"`} {
		if !strings.Contains(out, stage) {
			t.Errorf("trace missing %s span:\n%s", stage, out)
		}
	}
	var trace struct {
		Events []struct {
			Name string            `json:"name"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &trace); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	found := false
	for _, ev := range trace.Events {
		if ev.Name == "request" && ev.Args["route"] == "simulate" && ev.Args["model"] == "path-a.json" && ev.Args["status"] == "2xx" {
			found = true
		}
	}
	if !found {
		t.Errorf("no request span carries route/model/status args:\n%s", out)
	}
}

// TestStatusz checks the human text page and the JSON load signal.
func TestStatusz(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	s, dir := newTestServer(t, nil)
	writeNetModel(t, dir, "path-a.json")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.rollTick() // baseline before the request so the next tick sees a delta
	if code, _, _ := postSimulate(t, ts.URL, SimulateRequest{Model: "path-a.json", Protocol: "cubic", DurationS: 0.2, Seed: 1}); code != http.StatusOK {
		t.Fatalf("simulate: %d", code)
	}
	waitFor(t, "latency recorded", func() bool { return s.httpLatency.Count() >= 1 })
	s.rollTick()

	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	b.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"ibox-serve statusz", "window", "models loaded: 1", "serve.requests"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("/statusz missing %q:\n%s", want, b.String())
		}
	}

	resp, err = http.Get(ts.URL + "/statusz?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var ls LoadStats
	if err := json.NewDecoder(resp.Body).Decode(&ls); err != nil {
		t.Fatalf("statusz json: %v", err)
	}
	resp.Body.Close()
	if ls.ModelsLoaded != 1 {
		t.Fatalf("LoadStats.ModelsLoaded = %d, want 1", ls.ModelsLoaded)
	}
	if ls.UptimeS <= 0 || ls.Draining {
		t.Fatalf("LoadStats = %+v", ls)
	}
	if ls.Rate10s <= 0 {
		t.Fatalf("LoadStats.Rate10s = %v, want > 0 after manual ticks", ls.Rate10s)
	}
}

// TestRollingGauges checks the collector republishes the serve.win.*
// windowed gauges.
func TestRollingGauges(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	s, dir := newTestServer(t, nil)
	writeNetModel(t, dir, "path-a.json")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.rollTick() // baseline
	if code, _, _ := postSimulate(t, ts.URL, SimulateRequest{Model: "path-a.json", Protocol: "cubic", DurationS: 0.2, Seed: 1}); code != http.StatusOK {
		t.Fatalf("simulate: %d", code)
	}
	waitFor(t, "latency recorded", func() bool { return s.httpLatency.Count() >= 1 })
	s.rollTick()

	snap := obs.Get().Snapshot()
	if got := snap.Gauges["serve.win.req_rate_1s"]; got <= 0 {
		t.Fatalf("serve.win.req_rate_1s = %v, want > 0 (gauges: %v)", got, snap.Gauges)
	}
	if got := snap.Gauges["serve.win.p99_ns_10s"]; got <= 0 {
		t.Fatalf("serve.win.p99_ns_10s = %v, want > 0", got)
	}
}

// TestDebugMuxRepeated checks two DebugMux calls in one process (two
// servers, or a server plus ibox-experiments) don't double-publish the
// expvar name, and that the exported snapshot carries histogram
// summaries with count, sum and quantiles.
func TestDebugMuxRepeated(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	obs.Get().Histogram("serve.simulate_ns").Observe(1500)

	m1 := DebugMux()
	m2 := DebugMux() // must not panic on expvar re-publish
	for _, m := range []*http.ServeMux{m1, m2} {
		rec := httptest.NewRecorder()
		m.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/debug/vars: %d", rec.Code)
		}
		var vars map[string]json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
			t.Fatalf("vars not JSON: %v", err)
		}
		var snap struct {
			Histograms map[string]struct {
				Count int64   `json:"count"`
				Sum   int64   `json:"sum_ns"`
				P99   float64 `json:"p99_ns"`
			} `json:"histograms"`
		}
		if err := json.Unmarshal(vars["ibox.obs"], &snap); err != nil {
			t.Fatalf("ibox.obs: %v", err)
		}
		h := snap.Histograms["serve.simulate_ns"]
		if h.Count != 1 || h.Sum != 1500 || h.P99 <= 0 {
			t.Fatalf("exported histogram summary = %+v, want count=1 sum=1500 p99>0", h)
		}
	}

	// The debug mux also exposes the Prometheus endpoint for the
	// -debug-addr deployment shape.
	rec := httptest.NewRecorder()
	m1.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "serve_simulate_ns_count 1") {
		t.Fatalf("debug-mux /metrics: %d\n%s", rec.Code, rec.Body.String())
	}
}
