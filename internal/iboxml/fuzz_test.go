package iboxml

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ibox/internal/nn"
	"ibox/internal/sim"
)

// corpusModel trains one small model for the serializer tests to corrupt.
func corpusModel(t testing.TB) *Model {
	t.Helper()
	m, err := Train(trainSamples(1, 2*sim.Second), Config{
		Hidden: 4, Layers: 1, Epochs: 1, Seed: 3,
	})
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	return m
}

// artifactBytes serializes m in the current layout.
func artifactBytes(t testing.TB, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	return buf.Bytes()
}

// legacyBytes serializes m the way Write did before artifacts had a raw
// weight section: one JSON document with the weights inline.
// TestLegacyCheckpoint pins it byte for byte against a file the old
// writer produced. The inline arrays are the raw section cut into its
// tensors (per layer Wx, Wh, b; then the head's W and b).
func legacyBytes(t testing.TB, m *Model) []byte {
	t.Helper()
	net := m.Net.Header()
	net.Weights, net.CRC32C = 0, 0
	var sec bytes.Buffer
	if err := m.Net.WriteWeights(&sec); err != nil {
		t.Fatal(err)
	}
	H, in, out := net.Hidden, net.In, 2
	if net.Kind == nn.BinaryHead {
		out = 1
	}
	var sizes []int
	for l := 0; l < net.Layers; l++ {
		sizes = append(sizes, 4*H*in, 4*H*H, 4*H)
		in = H
	}
	for _, n := range append(sizes, out*H, out) {
		w := make([]float64, n)
		for i := range w {
			w[i] = math.Float64frombits(binary.LittleEndian.Uint64(sec.Next(8)))
		}
		net.Params = append(net.Params, w)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(modelJSON{
		Cfg: m.Cfg, Net: &net,
		XMean: m.xScale.Mean, XStd: m.xScale.Std,
		YMean: m.yMean, YStd: m.yStd,
		OutlierRate: m.outlierRate, MinDelayMs: m.minDelayMs,
		Envelope: m.env, Calibration: m.baseline,
	}); err != nil {
		t.Fatalf("encode legacy artifact: %v", err)
	}
	return buf.Bytes()
}

// splitArtifact cuts an artifact after its first line: the header and the
// weight section of the current layout, the whole document and nothing of
// a legacy one.
func splitArtifact(t testing.TB, data []byte) (header, section []byte) {
	t.Helper()
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		t.Fatal("artifact has no newline")
	}
	return data[:i+1], data[i+1:]
}

// mutate decodes the artifact's JSON part to a generic map, applies fn,
// and re-encodes — the easiest way to corrupt a single field. The weight
// section, if any, is carried over untouched.
func mutate(t testing.TB, data []byte, fn func(map[string]any)) []byte {
	t.Helper()
	header, section := splitArtifact(t, data)
	var doc map[string]any
	if err := json.Unmarshal(header, &doc); err != nil {
		t.Fatalf("unmarshal corpus model: %v", err)
	}
	fn(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatalf("marshal mutated model: %v", err)
	}
	return append(append(out, '\n'), section...)
}

// withWeight overwrites weight i of a current-layout artifact's section
// and re-stamps the CRC, so only a check on the values themselves can
// object.
func withWeight(t testing.TB, good []byte, i int, v float64) []byte {
	t.Helper()
	header, section := splitArtifact(t, good)
	section = append([]byte(nil), section...)
	binary.LittleEndian.PutUint64(section[8*i:], math.Float64bits(v))
	crc := crc32.Checksum(section, crc32.MakeTable(crc32.Castagnoli))
	return mutate(t, append(append([]byte(nil), header...), section...), func(d map[string]any) {
		d["net"].(map[string]any)["crc32c"] = crc
	})
}

// narrowed returns a weight section of net as a model read from it
// holds it: each LSTM weight (all but the head's, which come last)
// rounded through float32.
func narrowed(section []byte, net *nn.Header) []byte {
	section = append([]byte(nil), section...)
	head := 2
	if net.Kind == nn.BinaryHead {
		head = 1
	}
	for i := 0; i < int(net.Weights)-head*(net.Hidden+1); i++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(section[8*i:]))
		binary.LittleEndian.PutUint64(section[8*i:], math.Float64bits(float64(float32(v))))
	}
	return section
}

// unsized hides a reader's Len method, so Read cannot learn how much
// input remains and has to take its buffering path.
type unsized struct{ io.Reader }

// FuzzRead checks the model deserializer never panics, and that any model
// it accepts is fully usable: Validate passes and closed-loop inference
// runs without panicking. This is the registry's warm-load guarantee — a
// checkpoint either loads into a working model or is rejected. An
// accepted artifact also re-serializes to itself: byte for byte once its
// header is in the writer's canonical JSON and its LSTM weights are
// rounded to the float32 a model holds (a no-op on any artifact written
// since; the header's CRC follows), and writing, reading and writing
// again reproduces the same bytes whichever layout came in.
func FuzzRead(f *testing.F) {
	m := corpusModel(f)
	good, legacy := artifactBytes(f, m), legacyBytes(f, m)
	header, section := splitArtifact(f, good)
	f.Add(string(good))
	f.Add("")
	f.Add("{}")
	f.Add(`{"net":{}}`)
	f.Add(`{"net":{"kind":0,"in":4,"hidden":2,"layers":1,"params":[]}}`)
	f.Add(`{"config":{"Window":0},"net":null}`)
	f.Add("IBOX1\x00\x01\x02 not json at all")
	f.Add(string(good[:len(good)/2]))
	f.Add(string(legacy))
	f.Add(string(legacy[:len(legacy)/2]))
	f.Add(string(header))
	f.Add(string(good) + "\n")
	f.Add(string(header[:len(header)-1]) + string(section))
	f.Add(`{"format":2,"net":{"kind":0,"in":4096,"hidden":4096,"layers":64,"weights":8590991362}}` + "\n12345678")
	f.Add(`{"format":3,"net":{"kind":0,"in":4,"hidden":2,"layers":1}}` + "\n")
	// A 3 ns feature window. Were it accepted, replaying even this
	// half-second trace would take ≈1.7·10⁸ closed-loop steps, past the
	// fuzz engine's hang limit.
	for _, a := range [][]byte{good, legacy} {
		f.Add(string(mutate(f, a, func(d map[string]any) { d["config"].(map[string]any)["Window"] = 3 })))
	}
	// A section from when LSTM weights were float64 (a weight off the
	// float32 grid), and LSTM weights float32 cannot hold, in both
	// layouts.
	for _, v := range []float64{0.1, 1e39} {
		f.Add(string(withWeight(f, good, 0, v)))
		f.Add(string(mutate(f, legacy, func(d map[string]any) {
			d["net"].(map[string]any)["params"].([]any)[0].([]any)[0] = v
		})))
	}
	tr := synthTrace(9, 500*sim.Millisecond)
	f.Fuzz(func(t *testing.T, s string) {
		m, err := Read(strings.NewReader(s))
		if _, uerr := Read(unsized{strings.NewReader(s)}); (uerr == nil) != (err == nil) {
			t.Fatalf("sized read: %v; unsized read: %v", err, uerr)
		}
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("Read accepted a model that fails Validate: %v", err)
		}
		mu, sigma := m.PredictWindows(tr, nil)
		if len(mu) != len(sigma) {
			t.Fatalf("inference on accepted model: %d mus, %d sigmas", len(mu), len(sigma))
		}
		out := artifactBytes(t, m)
		if !bytes.Equal(artifactBytes(t, readBack(t, m)), out) {
			t.Fatal("writing a re-read artifact gives different bytes")
		}
		var hdr modelJSON
		if json.NewDecoder(strings.NewReader(s)).Decode(&hdr) != nil || hdr.Format != formatRaw {
			return // legacy: the weights were JSON numbers, not these bytes
		}
		section := narrowed([]byte(s[len(s)-8*m.NumParams():]), hdr.Net)
		hdr.Net.CRC32C = crc32.Checksum(section, crc32.MakeTable(crc32.Castagnoli))
		var canonical bytes.Buffer
		if err := json.NewEncoder(&canonical).Encode(hdr); err != nil {
			t.Fatal(err)
		}
		canonical.Write(section)
		if !bytes.Equal(out, canonical.Bytes()) {
			t.Fatal("accepted artifact does not re-serialize to itself")
		}
	})
}

// TestReadRejectsCorruptModels walks the corruption taxonomy the serving
// registry must survive: truncation, wrong format, missing network,
// impossible shapes, non-finite or nonsensical statistics — in the JSON
// part of both layouts — and every way a weight section can disagree with
// its header.
func TestReadRejectsCorruptModels(t *testing.T) {
	m := corpusModel(t)
	raw, legacy := artifactBytes(t, m), legacyBytes(t, m)
	both := [][]byte{raw, legacy}

	// field corrupts one field of the JSON part.
	field := func(fn func(map[string]any)) func(*testing.T, []byte) []byte {
		return func(t *testing.T, good []byte) []byte { return mutate(t, good, fn) }
	}
	net := func(fn func(net map[string]any)) func(*testing.T, []byte) []byte {
		return field(func(d map[string]any) { fn(d["net"].(map[string]any)) })
	}
	fixed := func(data string) func(*testing.T, []byte) []byte {
		return func(*testing.T, []byte) []byte { return []byte(data) }
	}
	weight := func(i int, v float64) func(*testing.T, []byte) []byte {
		return func(t *testing.T, good []byte) []byte { return withWeight(t, good, i, v) }
	}
	cases := []struct {
		name string
		on   [][]byte // the pristine artifacts the corruption applies to
		fn   func(t *testing.T, good []byte) []byte
	}{
		{"empty", both, fixed("")},
		{"not-json", both, fixed("IBOX1\x00binary junk")},
		{"truncated", both, func(_ *testing.T, good []byte) []byte { return good[:len(good)/2] }},
		{"empty-object", both, fixed("{}")},
		{"null-net", both, field(func(d map[string]any) { d["net"] = nil })},
		{"empty-net", both, field(func(d map[string]any) { d["net"] = map[string]any{} })},
		{"zero-y-std", both, field(func(d map[string]any) { d["y_std"] = 0.0 })},
		{"nan-y-mean-as-string", both, field(func(d map[string]any) { d["y_mean"] = "NaN" })},
		{"wrong-x-std-len", both, field(func(d map[string]any) { d["x_std"] = []any{1.0} })},
		{"negative-feature-std", both, field(func(d map[string]any) {
			d["x_std"].([]any)[0] = -1.0
		})},
		{"outlier-rate-above-one", both, field(func(d map[string]any) { d["outlier_rate"] = 1.5 })},
		{"negative-min-delay", both, field(func(d map[string]any) { d["min_delay_ms"] = -3.0 })},
		{"zero-window", both, field(func(d map[string]any) {
			d["config"].(map[string]any)["Window"] = 0
		})},
		{"nanosecond-window", both, field(func(d map[string]any) {
			d["config"].(map[string]any)["Window"] = 3
		})},
		{"window-below-floor", both, field(func(d map[string]any) {
			d["config"].(map[string]any)["Window"] = int64(minWindow) - 1
		})},
		{"ct-flag-vs-4dim-net", both, field(func(d map[string]any) {
			d["config"].(map[string]any)["UseCrossTraffic"] = true
		})},
		{"huge-hidden", both, net(func(n map[string]any) { n["hidden"] = 1 << 30 })},
		{"binary-head-net", both, net(func(n map[string]any) { n["kind"] = 1 })},
		{"unknown-format", both, field(func(d map[string]any) { d["format"] = 3 })},

		// Legacy layout: the inline tensors against the shape.
		{"wrong-tensor-count", both[1:], net(func(n map[string]any) {
			n["params"] = n["params"].([]any)[:1]
		})},
		{"wrong-tensor-len", both[1:], net(func(n map[string]any) {
			p := n["params"].([]any)
			p[0] = p[0].([]any)[:1]
		})},
		{"legacy-declares-section", both[1:], net(func(n map[string]any) { n["weights"] = 5 })},
		{"legacy-marked-raw", both[1:], field(func(d map[string]any) { d["format"] = formatRaw })},

		// Current layout: the weight section against the header.
		{"section-missing", both[:1], func(t *testing.T, good []byte) []byte {
			header, _ := splitArtifact(t, good)
			return header
		}},
		{"section-truncated", both[:1], func(_ *testing.T, good []byte) []byte { return good[:len(good)-8] }},
		{"section-truncated-mid-value", both[:1], func(_ *testing.T, good []byte) []byte { return good[:len(good)-3] }},
		{"section-longer-than-declared", both[:1], func(_ *testing.T, good []byte) []byte {
			return append(append([]byte(nil), good...), make([]byte, 8)...)
		}},
		{"trailing-byte", both[:1], func(_ *testing.T, good []byte) []byte {
			return append(append([]byte(nil), good...), '\n')
		}},
		{"crc-mismatch", both[:1], net(func(n map[string]any) { n["crc32c"] = n["crc32c"].(float64) + 1 })},
		{"section-bit-flip", both[:1], func(_ *testing.T, good []byte) []byte {
			out := append([]byte(nil), good...)
			out[len(out)-20] ^= 0x10
			return out
		}},
		{"nan-weight", both[:1], weight(3, math.NaN())},
		{"inf-weight", both[:1], weight(0, math.Inf(1))},
		{"weight-beyond-float32", both[:1], weight(3, 1e39)},
		{"legacy-weight-beyond-float32", both[1:], net(func(n map[string]any) {
			n["params"].([]any)[0].([]any)[0] = -1e39
		})},
		{"count-below-shape", both[:1], func(t *testing.T, good []byte) []byte {
			return net(func(n map[string]any) { n["weights"] = n["weights"].(float64) - 1 })(t, good[:len(good)-8])
		}},
		{"count-above-shape", both[:1], func(t *testing.T, good []byte) []byte {
			longer := append(append([]byte(nil), good...), make([]byte, 8)...)
			return net(func(n map[string]any) { n["weights"] = n["weights"].(float64) + 1 })(t, longer)
		}},
		{"zero-count", both[:1], net(func(n map[string]any) { delete(n, "weights") })},
		{"shape-grows-count-stays", both[:1], net(func(n map[string]any) { n["layers"] = 2 })},
		{"section-and-inline-params", both[:1], net(func(n map[string]any) { n["params"] = []any{} })},
		{"header-over-prefix-cap", both[:1], field(func(d map[string]any) {
			d["padding"] = strings.Repeat("x", maxHeaderBytes)
		})},
		{"header-without-newline", both[:1], func(t *testing.T, good []byte) []byte {
			header, section := splitArtifact(t, good)
			return append(append([]byte(nil), header[:len(header)-1]...), section...)
		}},
		{"raw-marked-legacy", both[:1], field(func(d map[string]any) { delete(d, "format") })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, good := range tc.on {
				data := tc.fn(t, good)
				if _, err := Read(bytes.NewReader(data)); err == nil {
					t.Error("Read accepted a corrupt model")
				}
				if _, err := Read(unsized{bytes.NewReader(data)}); err == nil {
					t.Error("Read accepted a corrupt model from an unsized reader")
				}
			}
		})
	}
	// Sanity: the uncorrupted bytes still load, and survive a mutate that
	// changes nothing (so the cases above fail for the reason they name).
	for _, good := range both {
		for _, data := range [][]byte{good, mutate(t, good, func(map[string]any) {})} {
			if _, err := Read(bytes.NewReader(data)); err != nil {
				t.Fatalf("Read rejected the pristine model: %v", err)
			}
			if _, err := Read(unsized{bytes.NewReader(data)}); err != nil {
				t.Fatalf("Read rejected the pristine model from an unsized reader: %v", err)
			}
		}
	}
}

// TestReadChecksLengthBeforeAllocating: a file of under 1 KiB whose header
// consistently declares the largest shape the caps allow (hidden 4096 × 64
// layers, ≈64 GiB of weights) is refused from its length, whichever way it
// arrives, without anything of that size being allocated.
func TestReadChecksLengthBeforeAllocating(t *testing.T) {
	good := artifactBytes(t, corpusModel(t))
	data := mutate(t, good[:bytes.IndexByte(good, '\n')+1+64], func(d map[string]any) {
		n := d["net"].(map[string]any)
		n["in"], n["hidden"], n["layers"] = 4096, 4096, 64
		n["weights"] = int64(4*4096*(4096+4096+1)*64 + 2*(4096+1))
	})
	if len(data) > 1<<10 {
		t.Fatalf("hostile artifact is %d bytes, want ≤ 1 KiB", len(data))
	}
	path := filepath.Join(t.TempDir(), "hostile.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	loads := map[string]func() error{
		"sized":   func() error { _, err := Read(bytes.NewReader(data)); return err },
		"unsized": func() error { _, err := Read(unsized{bytes.NewReader(data)}); return err },
		"file":    func() error { _, err := Load(path); return err },
	}
	for name, load := range loads {
		var err error
		d := allocated(func() { err = load() })
		if err == nil {
			t.Fatalf("%s: oversized header accepted", name)
		}
		if !strings.Contains(err.Error(), "weight section is") {
			t.Errorf("%s: rejected for the wrong reason: %v", name, err)
		}
		if d > 1<<20 {
			t.Errorf("%s: rejecting it allocated %d bytes, want < 1 MiB", name, d)
		}
	}
}
