package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"time"

	"ibox/internal/serve"
	"ibox/internal/session"
)

// session_live drives /v1/sessions in two phases of --seconds/2 each.
//
// Paced: pacedNet iBoxNet cubic sessions at speed 20 and pacedML iBoxML
// cbr sessions at speed 5, all with full per-packet telemetry. One SSE
// subscriber watches session 0; one control connection mutates session 0
// (bandwidth_scale, alternating 0.8 and 1.25 so the path keeps returning
// to its fitted rate) every mutateEvery seconds and polls GET
// /v1/sessions every 500 ms. This half verifies the control plane and the
// event stream and reports pace_ratio, lag and mutate → event (POST
// …/path → the `mutate` frame arriving on the stream). None of those is
// gated: they are sub-millisecond goroutine hand-offs whose median moves
// ±20 % between runs of the same code and seed on the reference sandbox.
//
// Unpaced: `unpaced` iBoxNet cubic sessions at speed −1 (as fast as the
// scheduler steps) with full telemetry and no subscriber — an unpaced
// producer overruns any subscriber by design — closed after the phase.
// sim_s_per_wall_s and cpu_s_per_sim_s come from here, and so does
// latency_p50_ms: the wall milliseconds a session took per virtual
// second, median over the sessions — what one user of a loaded daemon
// waits for a second of emulation.

// sessionAPI is the control-plane client: a thin wrapper over the
// bounded http.Client that counts every call into the result.
type sessionAPI struct {
	hc   *http.Client
	base string
	r    *result
}

// call sends one control-plane request and decodes the reply into out
// (when non-nil). Any transport error or unexpected status is a failed
// operation.
func (a *sessionAPI) call(method, path string, body []byte, want int, out any) bool {
	req, err := http.NewRequest(method, a.base+path, bytes.NewReader(body))
	if err != nil {
		a.r.fail("%s %s: %v", method, path, err)
		return false
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		a.r.fail("%s %s: %v", method, path, err)
		return false
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != want {
		a.r.fail("%s %s: status %d (want %d) %s %v", method, path, resp.StatusCode, want, bytes.TrimSpace(b), err)
		return false
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			a.r.fail("%s %s: decode: %v", method, path, err)
			return false
		}
	}
	a.r.Attempted++
	return true
}

func (a *sessionAPI) create(req serve.SessionRequest) (string, bool) {
	body, _ := json.Marshal(req)
	var resp serve.SessionResponse
	if !a.call(http.MethodPost, "/v1/sessions", body, http.StatusCreated, &resp) {
		return "", false
	}
	return resp.Session.ID, true
}

func (a *sessionAPI) list() ([]session.Info, time.Time, bool) {
	var resp struct {
		Sessions []session.Info `json:"sessions"`
	}
	ok := a.call(http.MethodGet, "/v1/sessions", nil, http.StatusOK, &resp)
	return resp.Sessions, time.Now(), ok
}

func (a *sessionAPI) close(id string) (session.Info, bool) {
	var resp serve.SessionResponse
	ok := a.call(http.MethodDelete, "/v1/sessions/"+id, nil, http.StatusOK, &resp)
	return resp.Session, ok
}

// watched is what the SSE subscriber saw on one session's stream; it is
// read only after watch has returned.
type watched struct {
	mutateAt  []time.Time // arrival of each `mutate` event, in order
	sumAt     []time.Time // arrival of each `summary` event
	sumVT     []float64
	events    int
	bytes     int
	gaps      int
	idBreaks  int
	ends      int
	err       error
	lastID    int64
	firstSeen bool
}

// watch reads a session's SSE stream until it ends. It parses only the
// frame kind and virtual time out of each data line.
func watch(hc *http.Client, url string, w *watched, done chan<- struct{}) {
	defer close(done)
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := hc.Do(req)
	if err != nil {
		w.err = err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		w.err = fmt.Errorf("events: status %d", resp.StatusCode)
		return
	}
	br := bufio.NewReaderSize(resp.Body, 256<<10)
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			now := time.Now()
			w.bytes += len(line)
			switch {
			case bytes.HasPrefix(line, []byte("data: {")):
				typ, vt := eventKindVT(line)
				w.events++
				switch typ {
				case "mutate":
					w.mutateAt = append(w.mutateAt, now)
				case "summary":
					w.sumAt = append(w.sumAt, now)
					w.sumVT = append(w.sumVT, vt)
				}
			case bytes.HasPrefix(line, []byte("id: ")):
				id, _ := strconv.ParseInt(string(bytes.TrimSpace(line[4:])), 10, 64)
				if w.firstSeen && id != w.lastID+1 {
					w.idBreaks++
				}
				w.lastID, w.firstSeen = id, true
			case bytes.HasPrefix(line, []byte(": gap")):
				w.gaps++
			case bytes.HasPrefix(line, []byte("event: end")):
				w.ends++
			}
		}
		if err != nil {
			if err != io.EOF {
				w.err = err
			}
			return
		}
	}
}

// eventKindVT pulls "type" and "vt" out of one encoded session event
// (`data: {"seq":N,"type":"…","vt":F,…`) without decoding it.
func eventKindVT(line []byte) (string, float64) {
	var typ string
	if i := bytes.Index(line, []byte(`"type":"`)); i >= 0 {
		rest := line[i+8:]
		if j := bytes.IndexByte(rest, '"'); j >= 0 {
			typ = string(rest[:j])
		}
	}
	var vt float64
	if i := bytes.Index(line, []byte(`"vt":`)); i >= 0 {
		rest := line[i+5:]
		j := bytes.IndexAny(rest, ",}")
		if j < 0 {
			j = len(rest)
		}
		vt, _ = strconv.ParseFloat(string(rest[:j]), 64)
	}
	return typ, vt
}

// sessionFixtures are the checkpoint files session_live serves.
type sessionFixtures struct {
	profiles []profile
	ml       []ckpt
}

func (f *sessionFixtures) warm() []string {
	var out []string
	for _, p := range f.profiles {
		out = append(out, p.id)
	}
	return append(out, ids(f.ml)...)
}

// buildSession fits the profiles and, unless the caller already has small
// checkpoints in dir, trains the ones the iBoxML sessions run on.
func buildSession(cfg *config, dir string, ml []ckpt) (*sessionFixtures, error) {
	sz := cfg.sz
	n := max(sz.pacedNet, sz.unpaced)
	profiles, err := fitProfiles(dir, n, sz.profileDur, cfg.nproc)
	if err != nil {
		return nil, err
	}
	if ml == nil {
		ml, err = trainCheckpoints(dir, "small", cfg.seed, sz.pacedML, sz.smallHidden, sz.smallLayers, cfg.nproc, []float64{sz.bulkRate, sz.tinyRate})
		if err != nil {
			return nil, err
		}
	}
	return &sessionFixtures{profiles: profiles, ml: ml}, nil
}

// pacedOutcome is what the paced phase measured.
type pacedOutcome struct {
	createMs  []float64
	mutateMs  []float64
	paceRatio float64
	lagMs     []float64
	watched   *watched
}

// pacedPhase runs the paced half of session_live for d.
func pacedPhase(cfg *config, api *sessionAPI, fx *sessionFixtures, d time.Duration) *pacedOutcome {
	sz := cfg.sz
	type live struct {
		id    string
		speed float64
	}
	var ss []live
	out := &pacedOutcome{watched: &watched{}}
	create := func(model, protocol string, seed int64, speed float64) {
		t0 := time.Now()
		id, ok := api.create(serve.SessionRequest{Model: model, Protocol: protocol, Seed: seed, Speed: speed, DurationS: 1e6})
		if ok {
			out.createMs = append(out.createMs, ms(time.Since(t0)))
			ss = append(ss, live{id, speed})
		}
	}
	for i := 0; i < sz.pacedNet; i++ {
		create(fx.profiles[i%len(fx.profiles)].id, "cubic", cfg.seed+int64(i), sz.pacedNetSpeed)
	}
	for i := 0; i < sz.pacedML; i++ {
		create(fx.ml[i%len(fx.ml)].id, "cbr", cfg.seed+100+int64(i), sz.pacedMLSpeed)
	}
	if len(ss) == 0 {
		return out
	}
	speed := map[string]float64{}
	for _, s := range ss {
		speed[s.id] = s.speed
	}

	w := out.watched
	watchDone := make(chan struct{})
	go watch(api.hc, api.base+"/v1/sessions/"+ss[0].id+"/events", w, watchDone)

	scales := [2][]byte{[]byte(`{"bandwidth_scale":0.8}`), []byte(`{"bandwidth_scale":1.25}`)}
	type poll struct {
		at time.Time
		vt float64
	}
	first, last := map[string]poll{}, map[string]poll{}
	record := func() {
		infos, at, ok := api.list()
		if !ok {
			return
		}
		for _, in := range infos {
			if _, seen := first[in.ID]; !seen {
				first[in.ID] = poll{at, in.VTSeconds}
			}
			last[in.ID] = poll{at, in.VTSeconds}
			if in.State != "running" {
				api.r.fail("paced session %s is %s", in.ID, in.State)
			}
		}
	}
	var sentAt []time.Time
	start := time.Now()
	deadline := start.Add(d)
	mutateGap := time.Duration(cfg.sz.mutateEvery * float64(time.Second))
	nextPoll := start
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * mutateGap)
		if !due.Before(deadline) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if !time.Now().Before(nextPoll) {
			record()
			nextPoll = nextPoll.Add(500 * time.Millisecond)
		}
		t0 := time.Now()
		if api.call(http.MethodPost, "/v1/sessions/"+ss[0].id+"/path", scales[k%2], http.StatusOK, nil) {
			sentAt = append(sentAt, t0)
		}
	}
	record()

	// Close every session, the watched one last, then wait for its
	// stream to end.
	for i := len(ss) - 1; i >= 0; i-- {
		in, ok := api.close(ss[i].id)
		if ok && in.State != "closed" {
			api.r.fail("session %s is %s after DELETE", ss[i].id, in.State)
		}
	}
	select {
	case <-watchDone:
	case <-time.After(10 * time.Second):
		api.r.fail("SSE stream of %s did not end within 10s of DELETE", ss[0].id)
		return out
	}

	api.r.check(w.err == nil, "SSE stream: %v", w.err)
	api.r.check(w.gaps == 0 && w.idBreaks == 0, "SSE stream lost events: %d gap comments, %d id breaks", w.gaps, w.idBreaks)
	api.r.check(w.ends == 1, "SSE stream carried %d `event: end` frames, want 1", w.ends)
	api.r.check(len(w.mutateAt) == len(sentAt), "saw %d mutate events for %d mutations", len(w.mutateAt), len(sentAt))
	for i := 0; i < len(sentAt) && i < len(w.mutateAt); i++ {
		out.mutateMs = append(out.mutateMs, ms(w.mutateAt[i].Sub(sentAt[i])))
	}
	var dvt, dwall float64
	for id, f := range first {
		l := last[id]
		dvt += l.vt - f.vt
		dwall += l.at.Sub(f.at).Seconds() * speed[id]
	}
	if dwall > 0 {
		out.paceRatio = dvt / dwall
	}
	// Lag of each summary event: how much later it arrived, relative to
	// its virtual time at the session's speed, than the most punctual
	// event of the stream did (the first event is a poor anchor: it
	// carries the session's start-up).
	var offs []float64
	for i := range w.sumAt {
		offs = append(offs, ms(w.sumAt[i].Sub(w.sumAt[0]))-(w.sumVT[i]-w.sumVT[0])/ss[0].speed*1000)
	}
	if len(offs) > 0 {
		best := slices.Min(offs)
		for _, o := range offs {
			out.lagMs = append(out.lagMs, o-best)
		}
	}
	return out
}

// unpacedOutcome is what the unpaced phase measured.
type unpacedOutcome struct {
	simS, wall, cpu float64
	events          int64
	msPerVirtS      []float64 // per session: wall ms per virtual second
}

// unpacedPhase runs n unpaced sessions for d, then closes them.
func unpacedPhase(cfg *config, api *sessionAPI, d *daemon, fx *sessionFixtures, n int, dur time.Duration) (*unpacedOutcome, error) {
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var sessIDs []string
	created := map[string]time.Time{}
	for i := 0; i < n; i++ {
		id, ok := api.create(serve.SessionRequest{
			Model: fx.profiles[i%len(fx.profiles)].id, Protocol: "cubic", Seed: cfg.seed + 200 + int64(i),
			Speed: -1, DurationS: 1e7,
		})
		if ok {
			sessIDs = append(sessIDs, id)
			created[id] = time.Now()
		}
	}
	prev := map[string]float64{}
	deadline := start.Add(dur)
	for time.Now().Before(deadline) {
		time.Sleep(min(500*time.Millisecond, time.Until(deadline)))
		infos, _, ok := api.list()
		if !ok {
			continue
		}
		for _, in := range infos {
			if in.State != "running" || in.VTSeconds < prev[in.ID] {
				api.r.fail("unpaced session %s: state %s, vt %.3f after %.3f", in.ID, in.State, in.VTSeconds, prev[in.ID])
			}
			prev[in.ID] = in.VTSeconds
		}
	}
	out := &unpacedOutcome{}
	for _, id := range sessIDs {
		if in, ok := api.close(id); ok && in.VTSeconds > 0 {
			out.simS += in.VTSeconds
			out.events += in.Events
			out.msPerVirtS = append(out.msPerVirtS, ms(time.Since(created[id]))/in.VTSeconds)
			if in.State != "closed" {
				api.r.fail("session %s is %s after DELETE", id, in.State)
			}
		}
	}
	out.wall = time.Since(start).Seconds()
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	out.cpu = cpu1 - cpu0
	return out, nil
}

func runSessionLive(cfg *config) (*result, error) {
	r := newResult("session_live", cfg.seed)
	dir, err := modelDir(cfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	fx, err := buildSession(cfg, dir, nil)
	if err != nil {
		return nil, fmt.Errorf("fixtures: %w", err)
	}
	r.Detail["harness.fixtures_s"] = time.Since(t0).Seconds()

	d, setup, err := startMeasured(cfg, r, dir, fx.warm())
	if err != nil {
		return nil, err
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	r.set(endToEnd, "setup_s", setup)

	// One connection streams events while another issues control calls,
	// so this workload needs two even on a one-CPU machine.
	c := newClient(d.base, max(cfg.nproc, 2))
	defer c.close()
	api := &sessionAPI{hc: c.http, base: d.base, r: r}
	half := time.Duration(cfg.seconds / 2 * float64(time.Second))

	att0, fail0 := r.Attempted, r.Failed
	paced := pacedPhase(cfg, api, fx, half)
	r.Detail["paced.mutations"] = float64(len(paced.mutateMs))
	if v, err := percentile(paced.mutateMs, 50); err == nil {
		r.Detail["mutate_to_event_p50_ms"] = v
	}
	if v, err := percentile(paced.mutateMs, 90); err == nil {
		r.Detail["mutate_to_event_p90_ms"] = v
	}
	r.Detail["pace_ratio"] = paced.paceRatio
	if v, err := percentile(paced.lagMs, 90); err == nil {
		r.Detail["lag_p90_ms"] = v
	}
	r.Detail["paced.sse_events"] = float64(paced.watched.events)
	r.check(paced.paceRatio > 0.98 && paced.paceRatio < 1.02, "pace_ratio %.4f outside 1 ± 0.02: paced sessions are not keeping their speed", paced.paceRatio)
	r.phaseSince("paced", att0, fail0)

	att0, fail0 = r.Attempted, r.Failed
	un, err := unpacedPhase(cfg, api, d, fx, cfg.sz.unpaced, half)
	if err != nil {
		return nil, err
	}
	r.phaseSince("unpaced", att0, fail0)
	if un.simS > 0 {
		r.set(endToEnd, "sim_s_per_wall_s", un.simS/un.wall)
		r.set(endToEnd, "cpu_s_per_sim_s", un.cpu/un.simS)
		r.set(endToEnd, "latency_p50_ms", median(un.msPerVirtS))
		r.Detail["unpaced.events_per_wall_s"] = float64(un.events) / un.wall
		r.Detail["unpaced.daemon_cpu_cores"] = un.cpu / un.wall
	}

	infos, _, ok := api.list()
	r.check(ok && len(infos) == 0, "%d sessions still listed before drain", len(infos))
	rss, err := peakRSSMiB(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	r.set(endToEnd, "peak_rss_mb", rss)
	c.close()
	err = d.stop()
	d = nil
	r.check(err == nil, "daemon drain: %v", err)
	return r, nil
}
