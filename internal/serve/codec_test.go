package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"ibox/internal/core"
	"ibox/internal/sim"
	"ibox/internal/trace"
	"ibox/internal/wire"
)

// checkDecode requires decode to agree with encoding/json's Decoder, the
// oracle, on body: both accept it, to the same struct, or both refuse it.
// A member set twice is the one permitted difference: the codec refuses
// it with wire.ErrDuplicateMember whatever encoding/json made of it.
func checkDecode[T any](t *testing.T, body []byte, decode func([]byte) (T, error)) {
	t.Helper()
	got, err := decode(body)
	if errors.Is(err, wire.ErrDuplicateMember) {
		return
	}
	var want T
	werr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%.200q: codec err = %v, encoding/json err = %v", body, err, werr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%.200q: codec decoded %+v, encoding/json %+v", body, got, want)
	}
}

// decodeSeeds are request bodies for both decoder fuzz targets: each
// spelling, spacing, null, number, string and nesting case encoding/json
// has a rule for.
func decodeSeeds(f *testing.F) []string {
	in := synthTrace(41, 2*sim.Second)
	in.PathID = "bench-41"
	in.Packets[3].Lost = true
	bench, err := json.Marshal(SimulateRequest{Model: "small-0.json", Seed: 41, Input: in})
	if err != nil {
		f.Fatal(err)
	}
	deep := func(levels int) string { // levels of nesting in all, the top-level object included
		return `{"x":` + strings.Repeat("[", levels-1) + strings.Repeat("]", levels-1) + `}`
	}
	seeds := []string{
		string(bench),
		`{"model": "m.json", "seed": 3, "include_trace": true, "hierarchical": false, "input": {"protocol": "cubic", "path_id": "p", "packets": [{"seq": 0, "size": 1500, "send": 0, "recv": 20000000, "lost": false}, {"seq": 1, "size": 1500, "send": 10, "recv": 0, "lost": true}]}}`,
		`{"Input":{"Packets":[{"SEQ":1,"Size":2,"Send":3,"RECV":4,"Lost":true}],"PROTOCOL":"x"},"SEED":5,"Model":"x","Timeout_MS":9}`,
		`{"mod\u0065l":"a","ſeed":7,"duration_ſ":1.5,"\u0069nput":{"pac\u006bets":[]}}`,
		`{"x":{"y":[1,{"z":null}],"w":"v"},"model":"m","input":{"extra":[[]],"packets":[{"seq":1,"meta":{"a":[true,false,-1.5e3]},"size":3}]}}`,
		`{"model":null,"seed":null,"protocol":null,"duration_s":null,"variant":null,"input":null,"hierarchical":null,"include_trace":null,"timeout_ms":null}`,
		`{"input":{"protocol":null,"path_id":null,"packets":null}}`,
		`{"input":{"packets":[null,{"seq":null,"size":null,"send":null,"recv":null,"lost":null}]}}`,
		`null`, `null garbage`, `nul`, ``, " \t\r\n", `{`, `{"model":`, `[`, `"str"`, `5`, `true`,
		`{"seed":1.0}`, `{"seed":1e3}`, `{"seed":-0}`, `{"seed":01}`, `{"seed":-}`, `{"seed":1.}`, `{"seed":1e}`, `{"seed":+1}`,
		`{"seed":9223372036854775807}`, `{"seed":-9223372036854775808}`, `{"seed":9223372036854775808}`, `{"seed":-9223372036854775809}`,
		`{"timeout_ms":1.5}`, `{"duration_s":1e400}`, `{"duration_s":-0.0}`, `{"duration_s":1E-5}`, `{"duration_s":4e-400}`,
		`{"model":5}`, `{"input":[]}`, `{"input":{"packets":{}}}`, `{"hierarchical":"true"}`, `{"seed":"5"}`,
		`{"input":{"packets":[1]}}`, `{"input":{"packets":[{"lost":1}]}}`, `{"input":{"protocol":{}}}`,
		`{"model":"m"} trailing`, `{"model":"m"}{"model":"n"}`, `{"model":"m",}`, `{,"model":"m"}`, `{"model" "m"}`, `{"model":"m" "seed":1}`,
		`{"model":"a\"b\\c\/\b\f\n\r\t\u00e9\ud83d\ude00\ud800x<>&"}`, "{\"model\":\"\xff\xfe\"}", "{\"model\":\"a\x01\"}",
		`{"model":"\u12"}`, `{"model":"\q"}`, "{\"mo\xffdel\":\"m\"}", `{"x":"\u00"}`,
		`{"model":"a","MODEL":"b"}`, `{"input":{"packets":[{"seq":1,"Seq":2}]}}`, `{"x":1,"x":2,"model":"m"}`,
		"\t\n\r {\n\"model\"\t:\r\"m\" } ",
		deep(10000), deep(10001),
	}
	// The wire reader's fast-path cases, as a seed and as a packet.
	fast, err := os.ReadFile("../wire/testdata/fastpaths.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(fast), "\n") {
		switch {
		case line == "" || line[0] == '#':
		case line[0] == '{':
			seeds = append(seeds, `{"input":{"packets":[`+line+`]}}`)
		default:
			seeds = append(seeds, `{"seed":`+line+`,"input":{"packets":[{"seq":`+line+`}]}}`)
		}
	}
	return seeds
}

func FuzzDecodeSimulateRequest(f *testing.F) {
	for _, s := range decodeSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode(t, body, decodeSimulateRequest) })
}

func FuzzDecodeReplayRequest(f *testing.F) {
	for _, s := range decodeSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode(t, body, decodeReplayRequest) })
}

// TestDecodeRefusesDuplicateMembers: a known member set twice in one
// object, after case folding and at any depth, is wire.ErrDuplicateMember
// and a 400; an unknown member may repeat.
func TestDecodeRefusesDuplicateMembers(t *testing.T) {
	for _, body := range []string{
		`{"model":"a","model":"b"}`,
		`{"Seed":1,"seed":2}`,
		`{"input":{"packets":[],"PACKETS":null}}`,
		`{"input":{"packets":[{"seq":1,"s\u0065q":2}]}}`,
	} {
		if _, err := decodeSimulateRequest([]byte(body)); !errors.Is(err, wire.ErrDuplicateMember) {
			t.Errorf("%s: err = %v, want ErrDuplicateMember", body, err)
		}
	}
	if req, err := decodeSimulateRequest([]byte(`{"x":1,"model":"m","x":{}}`)); err != nil || req.Model != "m" {
		t.Errorf("repeated unknown member: %+v, %v", req, err)
	}

	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, route := range []string{"/v1/simulate", "/v1/replay"} {
		resp, err := http.Post(ts.URL+route, "application/json", strings.NewReader(`{"model":"a","model":"b"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: duplicate member got %d, want 400", route, resp.StatusCode)
		}
	}
}

// TestDecodeBodyReadLimit: as with encoding/json's Decoder, a value that
// ends within MaxBodyBytes decodes whatever follows it, and one that runs
// past the limit is a 413.
func TestDecodeBodyReadLimit(t *testing.T) {
	s, dir := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 1024 })
	writeNetModel(t, dir, "net.json")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, tc := range []struct {
		body string
		code int
	}{
		{`{"model":"net.json","protocol":"cubic","duration_s":0.2}` + strings.Repeat(" junk", 1000), http.StatusOK},
		{`{"model":"net.json","protocol":"cubic","x":"` + strings.Repeat("a", 2000) + `"}`, http.StatusRequestEntityTooLarge},
		{`{"model":"net.json","protocol":"cubic","x":"` + strings.Repeat("a", 2000), http.StatusRequestEntityTooLarge},
		{`{"model":"net.json","protocol":"cubic","x":` + strings.Repeat("a", 2000), http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%.60s…: status %d, want %d", tc.body, resp.StatusCode, tc.code)
		}
	}
}

// checkEncode requires an appender's bytes to be encoding/json's (want,
// werr) for the same value, or both to refuse it.
func checkEncode(t *testing.T, what string, e *wire.Encoder, want []byte, werr error) {
	t.Helper()
	if e.Failed != (werr != nil) {
		t.Fatalf("%s: appender failed = %v, encoding/json err = %v", what, e.Failed, werr)
	}
	if werr == nil && !bytes.Equal(e.Buf, want) {
		t.Fatalf("%s: encodings differ\n got %.300s\nwant %.300s", what, e.Buf, want)
	}
}

// definedMetrics returns m with each NaN (an undefined metric, which the
// codec writes as null) set to 0, and a function that turns encoding/json's
// encoding of the result into the codec's.
func definedMetrics(m core.Metrics) (core.Metrics, func([]byte) []byte) {
	var nulls []string
	for _, f := range []struct {
		name string
		v    *float64
	}{{"ThroughputMbps", &m.ThroughputMbps}, {"P95DelayMs", &m.P95DelayMs}, {"LossPct", &m.LossPct}} {
		if math.IsNaN(*f.v) {
			*f.v = 0
			nulls = append(nulls, f.name)
		}
	}
	return m, func(b []byte) []byte {
		for _, n := range nulls {
			b = bytes.Replace(b, []byte(`"`+n+`":0`), []byte(`"`+n+`":null`), 1)
		}
		return b
	}
}

// FuzzEncodeSimulateResponse: the /v1/simulate body and the three
// /v1/replay frames are byte for byte what encoding/json writes for the
// same values, an undefined metric aside (null).
func FuzzEncodeSimulateResponse(f *testing.F) {
	f.Add("small-0.json", "iboxml", 12.5, 40.25, 0.5, "synth", "synth-41", int64(0), 1500, int64(937500), int64(21937500), false, uint8(3), uint8(0))
	f.Add(`quote"back\slash`, "iboxnet", 1e21, 1e-7, 100.0, "<script>&amp;</script>", "tab\there", int64(math.MaxInt64), math.MinInt, int64(math.MinInt64), int64(-1), true, uint8(7), uint8(0))
	f.Add("héllo wörld", "k", 0.0, math.NaN(), 100.0, "bad utf8 \xff\xfe", "nul\x00del\x7f", int64(-5), -1, int64(0), int64(0), true, uint8(1), uint8(0))
	f.Add("m", "iboxml", math.Copysign(0, -1), 9.999999e-7, 1.5e-10, "", "", int64(1), 1, int64(1), int64(2), false, uint8(0), uint8(0))
	f.Add("m", "iboxml", 1.0, math.Inf(1), 2.0, "p", "q", int64(1), 1, int64(1), int64(2), false, uint8(2), uint8(0))
	f.Add("m", "iboxml", math.NaN(), math.NaN(), math.NaN(), "p", "q", int64(1), 1, int64(1), int64(2), false, uint8(2), uint8(1)) // nil Packets
	f.Add("m", "iboxml", 3.0, 4.0, 5.0, "p", "q", int64(1), 1, int64(1), int64(2), false, uint8(2), uint8(2))                      // nil Trace
	f.Fuzz(func(t *testing.T, model, kind string, tput, p95, loss float64, proto, path string, seq int64, size int, send, recv int64, lost bool, n, shape uint8) {
		var tr *trace.Trace
		switch shape % 3 {
		case 0:
			tr = &trace.Trace{Protocol: proto, PathID: path, Packets: []trace.Packet{}}
			for i := 0; i < int(n%8); i++ {
				tr.Packets = append(tr.Packets, trace.Packet{
					Seq: seq ^ int64(i), Size: size - i, SendTime: sim.Time(send + int64(i)),
					RecvTime: sim.Time(recv - int64(i)), Lost: lost != (i%2 == 1),
				})
			}
		case 1:
			tr = &trace.Trace{Protocol: proto, PathID: path}
		}
		metrics := core.Metrics{ThroughputMbps: tput, P95DelayMs: p95, LossPct: loss}
		defined, patch := definedMetrics(metrics)

		var e wire.Encoder
		resp := SimulateResponse{Model: model, Kind: Kind(kind), Metrics: metrics, Trace: tr}
		appendSimulateResponse(&e, &resp)
		e.Raw("\n")
		var want bytes.Buffer
		resp.Metrics = defined
		werr := json.NewEncoder(&want).Encode(resp)
		checkEncode(t, "simulate response", &e, patch(want.Bytes()), werr)

		e = wire.Encoder{}
		end := replayEnd{Type: "end", Model: model, Kind: Kind(kind), Windows: int(seq), BatchSize: size, Metrics: metrics, Trace: tr}
		appendReplayEnd(&e, &end)
		end.Metrics = defined
		wb, werr := json.Marshal(end)
		checkEncode(t, "end frame", &e, patch(wb), werr)

		e = wire.Encoder{}
		win := replayWindows{Type: "windows", T0: size, Mu: []float64{tput, p95}, Sigma: []float64{loss}}
		if shape%3 == 1 {
			win.Mu, win.Sigma = nil, []float64{}
		}
		appendReplayWindows(&e, &win)
		wb, werr = json.Marshal(win)
		checkEncode(t, "windows frame", &e, wb, werr)

		e = wire.Encoder{}
		rerr := replayError{Type: "error", Error: model + proto}
		appendReplayError(&e, &rerr)
		wb, werr = json.Marshal(rerr)
		checkEncode(t, "error frame", &e, wb, werr)
	})
}

// TestAllLostReplay: when every input packet is lost the replay is all
// lost too and its p95 delay is undefined. Both routes still answer 200
// with a complete body carrying "P95DelayMs":null and LossPct 100, and a
// stream ends with exactly one end frame, in either framing.
func TestAllLostReplay(t *testing.T) {
	s, dir := newTestServer(t, nil)
	writeMLModel(t, dir, "m.json")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	in := &trace.Trace{Packets: []trace.Packet{{Seq: 0, Size: 100, Lost: true}}}
	const null = `"P95DelayMs":null`

	code, _, body := postSimulate(t, ts.URL, SimulateRequest{Model: "m.json", Seed: 1, Input: in})
	var resp SimulateResponse
	if code != http.StatusOK || json.Unmarshal(body, &resp) != nil || !bytes.HasSuffix(body, []byte("}\n")) {
		t.Fatalf("simulate: status %d, body %q", code, body)
	}
	if !bytes.Contains(body, []byte(null)) || resp.Metrics.LossPct != 100 {
		t.Fatalf("simulate: metrics %s", body)
	}

	for _, sse := range []bool{false, true} {
		r := postReplay(t, context.Background(), ts.URL, ReplayRequest{Model: "m.json", Seed: 1, Input: in}, sse)
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil || r.StatusCode != http.StatusOK {
			t.Fatalf("replay (sse=%v): status %d, %v", sse, r.StatusCode, err)
		}
		var ends [][]byte
		if sse {
			for _, f := range parseSSE(t, body) {
				if f.Event == "end" {
					ends = append(ends, f.Data)
				}
			}
		} else {
			sc := bufio.NewScanner(bytes.NewReader(body))
			for sc.Scan() {
				if bytes.HasPrefix(sc.Bytes(), []byte(`{"type":"end"`)) {
					ends = append(ends, append([]byte(nil), sc.Bytes()...))
				}
			}
		}
		if len(ends) != 1 {
			t.Fatalf("replay (sse=%v): %d end frames in %q", sse, len(ends), body)
		}
		var end replayEnd
		if err := json.Unmarshal(ends[0], &end); err != nil || !bytes.Contains(ends[0], []byte(null)) || end.Metrics.LossPct != 100 {
			t.Fatalf("replay (sse=%v): end frame %s (%v)", sse, ends[0], err)
		}
	}
}

// bulkTrace is a trace at bench's replay_bulk shape: 30 s at 1.6 MB/s of
// 1500-byte packets (32 k packets, ≈2 MB as JSON), 1 % lost.
func bulkTrace() *trace.Trace {
	rng := sim.NewRand(1, 5)
	tr := &trace.Trace{Protocol: "synth", PathID: "synth-1"}
	gap := sim.Time(1500 / 1.6e6 * float64(sim.Second))
	for seq, now := int64(0), sim.Time(0); now < 30*sim.Second; seq, now = seq+1, now+gap {
		delay := sim.Time((40 + 10*math.Sin(now.Seconds()) + rng.NormFloat64()) * float64(sim.Millisecond))
		tr.Packets = append(tr.Packets, trace.Packet{
			Seq: seq, Size: 1500, SendTime: now, RecvTime: now + delay, Lost: rng.Intn(100) == 0,
		})
	}
	return tr
}

// TestStreamedBodies: a response or frame longer than the stream
// encoder's buffer, written in pieces, is still encoding/json's bytes.
func TestStreamedBodies(t *testing.T) {
	out := bulkTrace()
	m := core.MetricsOf(out)
	resp := SimulateResponse{Model: "m.json", Kind: KindIBoxML, Metrics: m, Trace: out}
	rec := httptest.NewRecorder()
	e := wire.NewStream(rec)
	appendSimulateResponse(e, &resp)
	e.Raw("\n")
	e.Flush()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(resp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatal("streamed /v1/simulate body differs from encoding/json's")
	}

	end := replayEnd{Type: "end", Model: "m.json", Kind: KindIBoxML, Windows: 300, BatchSize: 2, Metrics: m, Trace: out}
	for _, sse := range []bool{false, true} {
		rec := httptest.NewRecorder()
		if !newFrameWriter(rec, sse).write("end", func(e *wire.Encoder) { appendReplayEnd(e, &end) }) {
			t.Fatal("frame write failed")
		}
		data, err := json.Marshal(end)
		if err != nil {
			t.Fatal(err)
		}
		want := append(data, '\n')
		if sse {
			want = []byte("event: end\ndata: " + string(data) + "\n\n")
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("streamed end frame (sse=%v) differs from encoding/json's", sse)
		}
	}
}

// TestDecodeBulkAllocs bounds the allocations of decoding a
// replay_bulk-shaped /v1/simulate body at six: the reader's container
// stack, the trace, its packets in one slice, and the three strings
// (model, protocol and path_id).
func TestDecodeBulkAllocs(t *testing.T) {
	body, err := json.Marshal(SimulateRequest{Model: "small-0.json", Seed: 1, Input: bulkTrace()})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(5, func() { sinkRequest, _ = decodeSimulateRequest(body) }); n > 6 {
		t.Fatalf("decoding a bulk /v1/simulate body allocates %v times, want at most 6", n)
	}
}

var (
	sinkRequest SimulateRequest
	sinkMetrics core.Metrics
)

// BenchmarkTraceCodec times a replay_bulk-shaped /v1/simulate request's
// codec work in process: decoding the request body, encoding the
// response body, and computing the response's metrics. The
// encoding-json sub-benchmarks time the encoding/json calls the codec
// replaced, on the same values.
func BenchmarkTraceCodec(b *testing.B) {
	in := bulkTrace()
	body, err := json.Marshal(SimulateRequest{Model: "small-0.json", Seed: 1, Input: in})
	if err != nil {
		b.Fatal(err)
	}
	resp := SimulateResponse{Model: "small-0.json", Kind: KindIBoxML, Metrics: core.MetricsOf(in), Trace: in}
	b.Run("decode/wire", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if sinkRequest, err = decodeSimulateRequest(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			sinkRequest = SimulateRequest{}
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&sinkRequest); err != nil {
				b.Fatal(err)
			}
		}
	})
	var e wire.Encoder
	b.Run("encode/wire", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			e = wire.Encoder{Buf: e.Buf[:0]}
			appendSimulateResponse(&e, &resp)
		}
	})
	b.Run("encode/encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("metrics", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkMetrics = core.MetricsOf(in)
		}
	})
}
