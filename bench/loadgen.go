package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator. One process, at most `conns` client goroutines and
// at most `conns` open connections (conns = nproc at run time). Request
// bodies are encoded during set-up; on the timed path a client writes the
// body, reads the response into a reused buffer and compares bytes. No
// JSON is decoded while a request is being timed: streamed responses are
// kept as raw lines and checked after the phase ends.

// target is one pre-encoded request with everything needed to verify its
// response.
type target struct {
	path string // "/v1/simulate" or "/v1/replay"
	body []byte
	// golden is the exact response body of a unary request (the offline
	// call encoded the way the server encodes it).
	golden []byte
	// stream marks an NDJSON /v1/replay request; its frames are verified
	// against mu/sigma after the phase (see verifyStream).
	stream    bool
	mu, sigma []float64
	model     string
	endTail   []byte // the terminal frame from `,"metrics":` on
	// simSeconds and packets are what one verified response is worth.
	simSeconds float64
	packets    int
}

// sample is the timed record of one request.
type sample struct {
	target int
	due    time.Time // when the schedule said to send (closed loop: the send time)
	sent   time.Time
	first  time.Time // first stream frame (zero for unary)
	done   time.Time
	ok     bool   // transport + status + unary bytes all good
	why    string // first failure reason
	// stream frames, copied off the wire, verified after the phase.
	frames  []byte
	arrived []time.Time // arrival time of each frame
}

// client sends targets over a bounded connection pool.
type client struct {
	base  string
	conns int
	http  *http.Client
	// spans, when set, records one span per closed-loop request: the
	// client-side tracing whose cost harness.trace_overhead_pct reports.
	spans *spanLog
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
	}
	return &client{base: base, conns: conns, http: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// worker holds one client goroutine's reusable buffers.
type worker struct {
	c   *client
	buf []byte
	br  *bufio.Reader
}

func (c *client) newWorker() *worker {
	return &worker{c: c, buf: make([]byte, 0, 64<<10), br: bufio.NewReaderSize(nil, 64<<10)}
}

// do sends one target and fills s. Only byte copies and comparisons
// happen here.
func (w *worker) do(t *target, s *sample) {
	s.sent = time.Now()
	req, err := http.NewRequest(http.MethodPost, w.c.base+t.path, bytes.NewReader(t.body))
	if err != nil {
		s.done, s.why = s.sent, err.Error()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.c.http.Do(req)
	if err != nil {
		s.done = time.Now()
		s.why = "transport: " + err.Error()
		return
	}
	defer resp.Body.Close()
	if t.stream && resp.StatusCode == http.StatusOK {
		w.readStream(resp.Body, s)
		return
	}
	w.buf = w.buf[:0]
	for {
		if len(w.buf) == cap(w.buf) {
			w.buf = append(w.buf, 0)[:len(w.buf)]
		}
		n, err := resp.Body.Read(w.buf[len(w.buf):cap(w.buf)])
		w.buf = w.buf[:len(w.buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			s.done = time.Now()
			s.why = "read: " + err.Error()
			return
		}
	}
	s.done = time.Now()
	switch {
	case resp.StatusCode != http.StatusOK:
		s.why = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(w.buf))
	case !bytes.Equal(w.buf, t.golden):
		s.why = fmt.Sprintf("response differs from the offline golden (%d bytes, want %d)", len(w.buf), len(t.golden))
	default:
		s.ok = true
	}
}

// readStream copies the NDJSON frames and their arrival times.
func (w *worker) readStream(body io.Reader, s *sample) {
	w.br.Reset(body)
	for {
		line, err := w.br.ReadBytes('\n')
		if len(line) > 0 {
			now := time.Now()
			if s.first.IsZero() {
				s.first = now
			}
			s.frames = append(s.frames, line...)
			s.arrived = append(s.arrived, now)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			s.done = time.Now()
			s.why = "read stream: " + err.Error()
			return
		}
	}
	s.done = time.Now()
	s.ok = true // provisional: verifyStream decides after the phase
}

// phase is the outcome of one load phase.
type phase struct {
	name     string
	start    time.Time
	wall     time.Duration
	samples  []sample
	lateness []float64 // open loop: ms between due and actual send
}

// closedLoop keeps `conns` clients sending in lockstep rounds for d: every
// client sends its next request when all clients' previous requests have
// completed. A free-running closed loop against a micro-batching server
// is bistable — the clients either lock into co-batched rounds (an
// absorbing state: co-batched requests complete together, so the next
// ones arrive together) or keep missing each other's batch window — and
// runs of the same code differed 1.7× in throughput depending on when
// they locked in. Starting every round together measures the locked-in
// steady state from the first request. The round in flight at the
// deadline completes and counts; wall is measured to its completion.
func (c *client) closedLoop(targets []target, d time.Duration) *phase {
	ph := &phase{name: "closed", start: time.Now()}
	deadline := ph.start.Add(d)
	workers := make([]*worker, c.conns)
	for i := range workers {
		workers[i] = c.newWorker()
	}
	round := make([]sample, c.conns)
	for next := 0; time.Now().Before(deadline); next += c.conns {
		var wg sync.WaitGroup
		for i := range workers {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				k := (next + i) % len(targets)
				s := sample{target: k}
				workers[i].do(&targets[k], &s)
				s.due = s.sent
				round[i] = s
			}(i)
		}
		wg.Wait()
		if c.spans != nil {
			for i, s := range round {
				c.spans.add(span{name: "http.request", request: "load", lane: i, start: s.sent, end: s.done})
			}
		}
		ph.samples = append(ph.samples, round...)
	}
	ph.wall = lastDone(ph.samples).Sub(ph.start)
	return ph
}

// openLoop sends rate requests per second for d on a precomputed, evenly
// spaced schedule over the same bounded connections. A request is timed
// from the instant it was due, so a server stall is charged to every
// request that came due during it, not just to the one that hit it.
func (c *client) openLoop(targets []target, rate float64, d time.Duration) *phase {
	n := int(rate * d.Seconds())
	if n < 1 {
		n = 1
	}
	ph := &phase{name: "open", start: time.Now().Add(5 * time.Millisecond)}
	gap := time.Duration(float64(time.Second) / rate)
	ph.samples = make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < c.conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := c.newWorker()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				s := &ph.samples[k]
				s.target = k % len(targets)
				s.due = ph.start.Add(time.Duration(k) * gap)
				waitUntil(s.due)
				w.do(&targets[s.target], s)
			}
		}()
	}
	wg.Wait()
	for i := range ph.samples {
		ph.lateness = append(ph.lateness, ms(ph.samples[i].sent.Sub(ph.samples[i].due)))
	}
	ph.wall = lastDone(ph.samples).Sub(ph.start)
	return ph
}

// waitUntil returns at t. The runtime's timers fire up to a millisecond
// late on a busy machine, which is a fifth of replay_tiny's latency, so
// the last millisecond is spent yielding instead of sleeping.
func waitUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

func lastDone(ss []sample) time.Time {
	var last time.Time
	for i := range ss {
		if ss[i].done.After(last) {
			last = ss[i].done
		}
	}
	return last
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns due→done in ms for the verified samples.
func (ph *phase) latencies() []float64 {
	var out []float64
	for i := range ph.samples {
		if s := &ph.samples[i]; s.ok {
			out = append(out, ms(s.done.Sub(s.due)))
		}
	}
	return out
}

// firstFrames returns due→first stream frame in ms for verified samples.
func (ph *phase) firstFrames() []float64 {
	var out []float64
	for i := range ph.samples {
		if s := &ph.samples[i]; s.ok && !s.first.IsZero() {
			out = append(out, ms(s.first.Sub(s.due)))
		}
	}
	return out
}

// counts reports attempted and failed requests of the phase.
func (ph *phase) counts() (attempted, failed int) {
	for i := range ph.samples {
		if !ph.samples[i].ok {
			failed++
		}
	}
	return len(ph.samples), failed
}

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule. It refuses a percentile with fewer than ten samples
// beyond it on its thin side: with fewer, the figure is one or two
// outliers, not a percentile. So p90 needs 100 samples and p50 needs 20.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	thin := math.Min(p, 100-p)
	if beyond := int(math.Floor(float64(n) * thin / 100)); beyond < 10 {
		return 0, fmt.Errorf("p%g of %d samples has %d samples beyond it, need 10", p, n, beyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], nil
}

// median is the plain middle value, for a few repeated measurements of
// the same thing (set-up times, loop timings) where percentile's sample
// rule does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
