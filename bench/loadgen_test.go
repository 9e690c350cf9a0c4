package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var okBody = []byte(`{"ok":true}` + "\n")

// fakeTargets is one unary target whose golden is what fake servers send.
func fakeTargets() []target {
	return []target{{path: "/v1/simulate", body: []byte(`{}`), golden: okBody, simSeconds: 1, packets: 1}}
}

// A server stall must be charged to the requests that came due during
// it: their latency runs from the due time, not from the delayed send,
// and the lateness of those sends is reported.
func TestOpenLoopChargesStallToDueRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	var first atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
		w.Write(okBody)
	}))
	defer srv.Close()

	c := newClient(srv.URL, 1) // one connection: everything queues behind the stall
	defer c.close()
	ph := c.openLoop(fakeTargets(), 50, 600*time.Millisecond)
	if att, failed := ph.counts(); att != 30 || failed != 0 {
		t.Fatalf("attempted %d failed %d, want 30 and 0", att, failed)
	}
	// Request 5 was due 100 ms in and could not be sent before 300 ms.
	s := ph.samples[5]
	if lat := s.done.Sub(s.due); lat < 150*time.Millisecond {
		t.Errorf("request due during the stall has latency %v; the stall was not charged to it", lat)
	}
	if sendLat := s.done.Sub(s.sent); sendLat > 100*time.Millisecond {
		t.Errorf("request 5 took %v from its actual send; the test's premise is broken", sendLat)
	}
	// Requests due well after the stall cleared are fast again.
	if lat := ph.samples[29].done.Sub(ph.samples[29].due); lat > 100*time.Millisecond {
		t.Errorf("request due after the stall has latency %v", lat)
	}
	worst := 0.0
	for _, l := range ph.lateness {
		worst = max(worst, l)
	}
	if worst < 150 {
		t.Errorf("worst reported lateness %.1f ms; the generator hid how late it sent", worst)
	}
}

// The generator may never hold more connections than it was given.
func TestNeverMoreThanConnsConnections(t *testing.T) {
	const conns = 2
	var mu sync.Mutex
	open, peak := map[net.Conn]bool{}, 0
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(3 * time.Millisecond)
		w.Write(okBody)
	}))
	srv.Config.ConnState = func(c net.Conn, st http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch st {
		case http.StateNew:
			open[c] = true
			peak = max(peak, len(open))
		case http.StateClosed, http.StateHijacked:
			delete(open, c)
		}
	}
	srv.Start()
	defer srv.Close()

	c := newClient(srv.URL, conns)
	defer c.close()
	closed := c.closedLoop(fakeTargets(), 200*time.Millisecond)
	// An offered rate far above what two connections carry: the backlog
	// must wait for a connection, not open more.
	opened := c.openLoop(fakeTargets(), 2000, 200*time.Millisecond)
	for _, ph := range []*phase{closed, opened} {
		if att, failed := ph.counts(); att == 0 || failed != 0 {
			t.Fatalf("%s loop: attempted %d failed %d", ph.name, att, failed)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if peak > conns {
		t.Errorf("server saw %d connections at once, generator was given %d", peak, conns)
	}
}

// A wrong response is a failed request with a reason.
func TestUnaryMismatchFails(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":false}` + "\n"))
	}))
	defer srv.Close()
	c := newClient(srv.URL, 1)
	defer c.close()
	var s sample
	c.newWorker().do(&fakeTargets()[0], &s)
	if s.ok || s.why == "" {
		t.Errorf("mismatching response accepted: ok=%v why=%q", s.ok, s.why)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{99, 90, false, 0}, {100, 90, true, 90}, {1000, 99, true, 990}, {999, 99, false, 0},
		{19, 50, false, 0}, {20, 50, true, 10}, {100, 10, true, 10}, {99, 10, false, 0},
	} {
		got, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err=%v, want ok=%v", c.p, c.n, err, c.ok)
		}
		if c.ok && got != c.want {
			t.Errorf("p%g of 1..%d = %g, want %g", c.p, c.n, got, c.want)
		}
	}
}

// streamFixture is a streamed target over 5 windows plus frames that
// satisfy it.
func streamFixture() (*target, [][]byte) {
	t := &target{
		stream: true, model: "m.json",
		mu: []float64{1.5, 2.5, 3.5, 4.5, 5.5}, sigma: []float64{.1, .2, .3, .4, .5},
		endTail: []byte(`,"metrics":{"ThroughputMbps":1,"P95DelayMs":2,"LossPct":0}}` + "\n"),
	}
	frame := func(t0, n int) []byte {
		b, _ := json.Marshal(windowsFrame{"windows", t0, t.mu[t0 : t0+n], t.sigma[t0 : t0+n]})
		return append(b, '\n')
	}
	end := []byte(`{"type":"end","model":"m.json","kind":"iboxml","windows":5,"batch_size":3,"metrics":{"ThroughputMbps":1,"P95DelayMs":2,"LossPct":0}}` + "\n")
	return t, [][]byte{frame(0, 3), frame(3, 2), end}
}

func TestVerifyStream(t *testing.T) {
	tg, good := streamFixture()
	join := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	if err := verifyStream(tg, join(good...)); err != nil {
		t.Fatalf("good stream rejected: %v", err)
	}
	other, _ := json.Marshal(windowsFrame{"windows", 3, []float64{4.5, 5.6}, []float64{.4, .5}})
	for name, frames := range map[string][]byte{
		"gap in t0":        join(good[0], good[2]),
		"repeated chunk":   join(good[0], good[0], good[1], good[2]),
		"no terminal":      join(good[0], good[1]),
		"two terminals":    join(good[0], good[1], good[2], good[2]),
		"value differs":    join(good[0], append(other, '\n'), good[2]),
		"terminal differs": join(good[0], good[1], bytes.Replace(good[2], []byte(`"P95DelayMs":2`), []byte(`"P95DelayMs":3`), 1)),
		"empty":            nil,
	} {
		if err := verifyStream(tg, frames); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	corruptTarget(tg)
	if err := verifyStream(tg, join(good...)); err == nil {
		t.Error("corrupted golden still matches: -corrupt would prove nothing")
	}
}

func TestEventKindVT(t *testing.T) {
	typ, vt := eventKindVT([]byte(`data: {"seq":7,"type":"summary","vt":12.25,"summary":{"cwnd":10}}` + "\n"))
	if typ != "summary" || vt != 12.25 {
		t.Errorf("got %q %g", typ, vt)
	}
	typ, vt = eventKindVT([]byte(`data: {"seq":1,"type":"state","vt":0}` + "\n"))
	if typ != "state" || vt != 0 {
		t.Errorf("got %q %g", typ, vt)
	}
}

// BENCHMARK.json is rendered from this program's tables (-manifest); the
// committed file must still say what the program measures.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var committed, rendered any
	if err := json.Unmarshal(b, &committed); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(manifestJSON()), &rendered); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(committed, rendered) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with `go run . -manifest`")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
		if len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %s (%s) exceeds the contract's name or unit length", d.Name, d.Unit)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, contract allows 128", len(perLayer))
	}
}
