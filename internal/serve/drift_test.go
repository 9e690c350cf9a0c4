package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ibox/internal/iboxml"
	"ibox/internal/obs"
	"ibox/internal/sim"
)

// syncBuf is a mutex-guarded bytes.Buffer: the rolling collector's SLO
// evaluations can log concurrently with the test's reads.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// writeCalibratedML writes the shared trained checkpoint with an
// embedded held-out calibration baseline, without mutating the shared
// model (round-trips through serialization first). Returns the raw
// artifact bytes for further perturbation.
func writeCalibratedML(t testing.TB, dir, id string) []byte {
	t.Helper()
	m := trainedML(t)
	var raw bytes.Buffer
	if err := m.Write(&raw); err != nil {
		t.Fatal(err)
	}
	clone, err := iboxml.Read(bytes.NewReader(raw.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Calibrate on the exact trace the test replays: live traffic drawn
	// from the calibration distribution scores the healthy model at
	// precisely its baseline (zero excess), so the only thing that can
	// move the verdict is a perturbed checkpoint.
	held := []iboxml.TrainingSample{{Trace: synthTrace(9, 4*sim.Second)}}
	clone.SetBaseline(clone.Calibrate(held))
	if err := clone.Save(filepath.Join(dir, id)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// perturbSigma rewrites a serialized artifact with y_std scaled by
// factor — the checkpoint-corruption drill: the model's predictive
// distribution no longer matches the calibration baseline it carries.
// (factor 1/3 shrinks every predicted sigma 3× — an overconfident head
// whose standardized residuals explode.)
func perturbSigma(t testing.TB, artifact []byte, factor float64, path string) {
	t.Helper()
	// The header is the artifact's first line; the weight section after
	// it is carried over untouched.
	header, section, _ := bytes.Cut(artifact, []byte("\n"))
	var doc map[string]any
	if err := json.Unmarshal(header, &doc); err != nil {
		t.Fatal(err)
	}
	ystd, ok := doc["y_std"].(float64)
	if !ok {
		t.Fatalf("artifact has no numeric y_std")
	}
	doc["y_std"] = ystd * factor
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	out = append(append(out, '\n'), section...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDriftLoopCloses is the end-to-end acceptance drill: a
// deliberately perturbed checkpoint (sigma scaled down 3× — an
// overconfident head) trips the drift verdict, flips /healthz to
// failing, emits an obs.slo alert event, and — with quarantine on —
// 503s the drifted model while the healthy model keeps serving.
func TestDriftLoopCloses(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	var buf syncBuf
	obs.SetLogger(slog.New(obs.NewLogHandler(&buf, slog.LevelInfo)))
	defer obs.SetLogger(nil)

	dir := t.TempDir()
	raw := writeCalibratedML(t, dir, "healthy.json")
	perturbSigma(t, raw, 1.0/3, filepath.Join(dir, "drifted.json"))

	s, err := NewServer(Config{
		ModelDir:    dir,
		DriftEvery:  1, // score every eligible replay
		Quarantine:  true,
		DriftPolicy: obs.DriftPolicy{MinWindows: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in := synthTrace(9, 4*sim.Second)

	// Replay the same observed trace through both models. The healthy
	// model's sketch matches its baseline; the perturbed model's PIT
	// collapses and its NLL spikes, so its verdict goes failing after
	// the first scored request.
	code, _, body := postSimulate(t, ts.URL, SimulateRequest{Model: "healthy.json", Input: in, Seed: 1})
	if code != http.StatusOK {
		t.Fatalf("healthy replay: %d (%s)", code, body)
	}
	code, _, body = postSimulate(t, ts.URL, SimulateRequest{Model: "drifted.json", Input: in, Seed: 1})
	if code != http.StatusOK {
		t.Fatalf("first drifted replay should serve (cold verdict): %d (%s)", code, body)
	}

	if v := s.driftVerdict("drifted.json"); v != obs.DriftFailing {
		t.Fatalf("drifted verdict = %v, want failing; statuses: %+v", v, s.DriftStatuses())
	}
	if v := s.driftVerdict("healthy.json"); v != obs.DriftOK {
		t.Fatalf("healthy verdict = %v, want ok; statuses: %+v", v, s.DriftStatuses())
	}

	// Quarantine: the drifted model 503s, the healthy one keeps serving.
	code, _, body = postSimulate(t, ts.URL, SimulateRequest{Model: "drifted.json", Input: in, Seed: 1})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("quarantined replay: %d (%s), want 503", code, body)
	}
	if !strings.Contains(string(body), "quarantined") {
		t.Fatalf("quarantine error body: %s", body)
	}
	code, _, body = postSimulate(t, ts.URL, SimulateRequest{Model: "healthy.json", Input: in, Seed: 1})
	if code != http.StatusOK {
		t.Fatalf("healthy replay after quarantine: %d (%s)", code, body)
	}

	// Tick the collector: SLO evaluation sees the drift level objective
	// failing, transitions, logs the alert and publishes the gauges.
	s.rollTick()
	s.rollTick()

	// /healthz degrades to failing (503) and carries the detail body.
	resp, err := http.Get(ts.URL + "/healthz?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var hs HealthStatus
	if derr := json.NewDecoder(resp.Body).Decode(&hs); derr != nil {
		t.Fatal(derr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz status code = %d, want 503", resp.StatusCode)
	}
	if hs.Status != obs.SLOFailing {
		t.Fatalf("/healthz status = %v, want failing (%+v)", hs.Status, hs)
	}
	foundDrift := false
	for _, d := range hs.Drift {
		if d.Model == "drifted.json" {
			foundDrift = true
			if d.Verdict != "failing" || d.Windows == 0 || d.Baseline == nil {
				t.Fatalf("drift detail: %+v", d)
			}
		}
	}
	if !foundDrift {
		t.Fatalf("/healthz detail missing drifted.json: %+v", hs.Drift)
	}
	sloFailing := false
	for _, o := range hs.SLO {
		if o.Name == "drift" && o.State == obs.SLOFailing {
			sloFailing = true
		}
	}
	if !sloFailing {
		t.Fatalf("drift SLO objective not failing: %+v", hs.SLO)
	}

	// LoadStats — the router-tier load signal — carries the verdict.
	ls := s.LoadStats()
	if ls.Health != "failing" || ls.ModelsDrifted != 1 {
		t.Fatalf("LoadStats health=%q drifted=%d, want failing/1", ls.Health, ls.ModelsDrifted)
	}

	// The SLO engine emitted a structured alert event, and the drift
	// verdict transition was logged.
	logs := buf.String()
	if !strings.Contains(logs, `"msg":"slo alert"`) || !strings.Contains(logs, `"objective":"drift"`) {
		t.Fatalf("no slo alert event in logs:\n%s", logs)
	}
	if !strings.Contains(logs, `"msg":"drift verdict"`) {
		t.Fatalf("no drift verdict event in logs:\n%s", logs)
	}

	// The labeled serve.drift.* gauges flowed through the registry.
	snap := obs.Get().Snapshot()
	if v := snap.Gauges[`serve.drift.state{model="drifted.json"}`]; v != float64(obs.DriftFailing) {
		t.Fatalf("serve.drift.state gauge = %v, want %v", v, float64(obs.DriftFailing))
	}
	if c := snap.Counters[`serve.drift.quarantined{model="drifted.json"}`]; c == 0 {
		t.Fatalf("quarantine counter not incremented: %v", snap.Counters)
	}
}

// shutdownServer drains s with a bounded context (helper for tests that
// build servers without newTestServer).
func shutdownServer(t testing.TB, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestDriftLegacyArtifactTolerated proves an artifact without an
// embedded baseline still serves and judges PIT-only (no NLL baseline).
func TestDriftLegacyArtifactTolerated(t *testing.T) {
	s, dir := newTestServer(t, func(c *Config) {
		c.DriftEvery = 1
		// PIT-only judging against the uniform ideal needs slack for a
		// tiny quick-trained model's honest miscalibration.
		c.DriftPolicy = obs.DriftPolicy{MinWindows: 20, PITSlack: 0.5}
	})
	writeMLModel(t, dir, "legacy.json") // no SetBaseline → no calibration field
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in := synthTrace(9, 4*sim.Second)
	code, _, body := postSimulate(t, ts.URL, SimulateRequest{Model: "legacy.json", Input: in, Seed: 1})
	if code != http.StatusOK {
		t.Fatalf("legacy replay: %d (%s)", code, body)
	}
	sts := s.DriftStatuses()
	if len(sts) != 1 || sts[0].Baseline != nil {
		t.Fatalf("legacy drift status: %+v", sts)
	}
	if sts[0].Windows == 0 {
		t.Fatalf("legacy model was not scored: %+v", sts)
	}
	// A healthy legacy model must not be judged worse than its own PIT
	// shape allows — in particular it must never be quarantined for
	// lacking a baseline.
	if v := s.driftVerdict("legacy.json"); v == obs.DriftFailing {
		t.Fatalf("legacy verdict failing without a baseline: %+v", sts)
	}
}

// TestDriftDisabled proves DriftEvery < 0 turns the whole layer off:
// no sketches, no verdicts, health stays ok.
func TestDriftDisabled(t *testing.T) {
	s, dir := newTestServer(t, func(c *Config) { c.DriftEvery = -1 })
	writeMLModel(t, dir, "ml.json")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in := synthTrace(9, 4*sim.Second)
	code, _, body := postSimulate(t, ts.URL, SimulateRequest{Model: "ml.json", Input: in, Seed: 1})
	if code != http.StatusOK {
		t.Fatalf("replay: %d (%s)", code, body)
	}
	if sts := s.DriftStatuses(); len(sts) != 0 {
		t.Fatalf("drift statuses with detection disabled: %+v", sts)
	}
	if h := s.Health(); h != obs.SLOOK {
		t.Fatalf("health = %v, want ok", h)
	}
}

// TestSanitizeRequestID covers the hostile-header table.
func TestSanitizeRequestID(t *testing.T) {
	long := strings.Repeat("a", maxRequestIDLen+1)
	for _, tc := range []struct {
		in, want string
	}{
		{"req-123", "req-123"},
		{"", ""},
		{long, ""},                                       // over-long → reject
		{"abc\r\ndef", "abcdef"},                         // CRLF injection stripped
		{"a\x1b[31mred\x1b[0m", "a[31mred[0m"},           // ANSI escapes stripped
		{"tab\tand space x", "tabandspacex"},             // whitespace stripped
		{"snowman☃id", "snowmanid"},                      // non-ASCII stripped
		{"\x00\x01\x02", ""},                             // nothing survives
		{"ok_~!@#$%^&*()[]{}<>", "ok_~!@#$%^&*()[]{}<>"}, // visible ASCII kept
	} {
		if got := sanitizeRequestID(tc.in); got != tc.want {
			t.Errorf("sanitizeRequestID(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestHealthRoutesJSON proves /healthz and /readyz return real JSON
// bodies with uptime and build info (the drain flip to 503 is covered
// by the graceful-drain test in serve_test.go).
func TestHealthRoutesJSON(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hs HealthStatus
	if derr := json.NewDecoder(resp.Body).Decode(&hs); derr != nil {
		t.Fatalf("healthz is not JSON: %v", derr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hs.Status != obs.SLOOK {
		t.Fatalf("healthz: code %d status %v", resp.StatusCode, hs.Status)
	}
	if hs.GoVersion == "" || hs.UptimeS < 0 {
		t.Fatalf("healthz body incomplete: %+v", hs)
	}
	if len(hs.SLO) != 0 || len(hs.Drift) != 0 {
		t.Fatalf("healthz without format=json should omit detail: %+v", hs)
	}

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rs ReadyStatus
	if derr := json.NewDecoder(resp.Body).Decode(&rs); derr != nil {
		t.Fatalf("readyz is not JSON: %v", derr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !rs.Ready || rs.Draining {
		t.Fatalf("readyz: code %d body %+v", resp.StatusCode, rs)
	}
	if rs.GoVersion == "" {
		t.Fatalf("readyz body incomplete: %+v", rs)
	}
}
