package nn

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// inlineHeader is the legacy serialized form of m: weights inside the JSON.
func inlineHeader(m *SequenceModel) Header {
	h := m.Header()
	h.Weights, h.CRC32C = 0, 0
	for _, x := range m.tensors() {
		w := make([]float64, x.len())
		x.get(0, w)
		h.Params = append(h.Params, w)
	}
	return h
}

// rawSection is the weight section WriteWeights emits for m.
func rawSection(t testing.TB, m *SequenceModel) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteWeights(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSequenceModelJSONRoundTrip: a model survives both serialized forms —
// header JSON with inline params, and header JSON plus raw section — with
// bit-identical weights and outputs.
func TestSequenceModelJSONRoundTrip(t *testing.T) {
	m := NewSequenceModel(GaussianHead, 3, 5, 2, 7)
	// viaJSON is what a reader gets back after the header has been
	// through an artifact's JSON part.
	viaJSON := func(h Header) Header {
		data, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		var out Header
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	inline, err := viaJSON(inlineHeader(m)).Inline()
	if err != nil {
		t.Fatalf("inline: %v", err)
	}
	sec := rawSection(t, m)
	raw, err := viaJSON(m.Header()).ReadWeights(bytes.NewReader(sec), int64(len(sec)))
	if err != nil {
		t.Fatalf("raw: %v", err)
	}
	for name, got := range map[string]*SequenceModel{"inline": inline, "raw": raw} {
		if got.NumParams() != m.NumParams() || got.Kind != m.Kind {
			t.Fatalf("%s: architecture changed: %d vs %d params", name, got.NumParams(), m.NumParams())
		}
		if !bytes.Equal(rawSection(t, got), sec) {
			t.Fatalf("%s: weights differ", name)
		}
		// Identical outputs.
		xs := [][]float64{{0.1, -0.2, 0.3}, {0.5, 0.5, -0.5}}
		a := predictSeq(m, xs)
		b := predictSeq(got, xs)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: output %d differs: %v vs %v", name, i, a[i], b[i])
			}
		}
	}
}

// readBack serializes m in the raw-section layout and reads it back.
func readBack(t testing.TB, m *SequenceModel) *SequenceModel {
	t.Helper()
	sec := rawSection(t, m)
	got, err := m.Header().ReadWeights(bytes.NewReader(sec), int64(len(sec)))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestReadHoldsOneCopy: both readers build the packed weights and the
// head and nothing else — no gradients, no training workspace — and
// running the model or asking it questions builds neither.
func TestReadHoldsOneCopy(t *testing.T) {
	m := NewSequenceModel(GaussianHead, 5, 9, 2, 3)
	inline, err := inlineHeader(m).Inline()
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*SequenceModel{"raw": readBack(t, m), "inline": inline} {
		oneCopy := func(when string) {
			t.Helper()
			if got.ws != nil {
				t.Fatalf("%s, %s: model holds a training workspace", name, when)
			}
			for i, p := range got.Params() {
				if p.Grad != nil {
					t.Fatalf("%s, %s: parameter %d holds a gradient buffer", name, when, i)
				}
			}
		}
		oneCopy("after reading")
		got.Arch()
		got.NumParams()
		got.Finite()
		got.Header()
		predictSeq(got, randSeq(1, 3, 5))
		oneCopy("after inference and questions")
	}
}

// TestLoadedModelMatchesOriginal pins a model read back from its artifact
// against the in-memory model it was written from, over every kernel
// shape: the same bits from StepInto and the Gaussian head, the same bytes
// when written again (from either reader), and the same loss and weights
// after one training step.
func TestLoadedModelMatchesOriginal(t *testing.T) {
	for _, sh := range kernelShapes {
		name := fmt.Sprintf("%dx%dx%d", sh.in, sh.hidden, sh.layers)
		m := NewSequenceModel(GaussianHead, sh.in, sh.hidden, sh.layers, 23)
		sec := rawSection(t, m)
		got := readBack(t, m)
		inline, err := inlineHeader(m).Inline()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rawSection(t, got), sec) || !bytes.Equal(rawSection(t, inline), sec) {
			t.Fatalf("%s: a read model writes different weights", name)
		}
		if !reflect.DeepEqual(got.Header(), m.Header()) {
			t.Fatalf("%s: header %+v, want %+v", name, got.Header(), m.Header())
		}

		xs := randSeq(71, 5, sh.in)
		want, loaded := m.Infer().NewState(), got.Infer().NewState()
		for _, x := range xs {
			bitsEqual(t, name+" step", got.Infer().StepInto(loaded, x), m.Infer().StepInto(want, x))
		}
		a, b := predictSeq(m, xs), predictSeq(got, xs)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: prediction %d: %v vs %v", name, i, b[i], a[i])
			}
		}

		ys := randSeq(72, 1, len(xs))[0]
		optM, optG := NewAdam(0.01, m.Params()), NewAdam(0.01, got.Params())
		lm, lg := m.TrainSequence(xs, ys, nil), got.TrainSequence(xs, ys, nil)
		optM.Step()
		optG.Step()
		if math.Float64bits(lm) != math.Float64bits(lg) {
			t.Fatalf("%s: loss %v on the read model, %v on the original", name, lg, lm)
		}
		if !bytes.Equal(rawSection(t, got), rawSection(t, m)) {
			t.Fatalf("%s: one training step leaves different weights", name)
		}
	}
}

// TestTensorSizesMatchArchitecture pins the shape arithmetic the readers
// check counts with against the tensors the constructors really allocate:
// each packed layer holds exactly its three tensors, and the head its two.
func TestTensorSizesMatchArchitecture(t *testing.T) {
	for _, h := range []Header{
		{Kind: GaussianHead, In: 4, Hidden: 8, Layers: 1},
		{Kind: GaussianHead, In: 5, Hidden: 16, Layers: 4},
		{Kind: BinaryHead, In: 2, Hidden: 3, Layers: 2},
	} {
		sizes := h.tensorSizes()
		params := NewSequenceModel(h.Kind, h.In, h.Hidden, h.Layers, 1).Params()
		if len(sizes) != tensorsPerLayer*h.Layers+2 || len(params) != h.Layers+2 {
			t.Fatalf("%+v: %d sizes, %d params", h, len(sizes), len(params))
		}
		for i, p := range params {
			want := sizes[tensorsPerLayer*h.Layers+i-h.Layers] // a head tensor
			if i < h.Layers {
				want = sizes[tensorsPerLayer*i] + sizes[tensorsPerLayer*i+1] + sizes[tensorsPerLayer*i+2]
			}
			if int64(p.size()) != want {
				t.Fatalf("%+v: param %d is %d long, tensorSizes says %d", h, i, p.size(), want)
			}
		}
	}
}

func TestSequenceModelUnmarshalRejectsCorrupt(t *testing.T) {
	var h Header
	if err := json.Unmarshal([]byte(`{"kind":0,"in":2,"hidden":3,"layers":1,"params":[[1,2]]}`), &h); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Inline(); err == nil {
		t.Error("wrong tensor count accepted")
	}
	if err := json.Unmarshal([]byte(`not json`), &h); err == nil {
		t.Error("garbage accepted")
	}
	good := NewSequenceModel(BinaryHead, 2, 3, 1, 0)
	// Truncate one tensor.
	h = inlineHeader(good)
	h.Params[0] = []float64{1}
	if _, err := h.Inline(); err == nil {
		t.Error("wrong tensor size accepted")
	}
	// LSTM weights float32 cannot hold: they would narrow to ±Inf.
	for _, v := range []float64{1e39, -math.MaxFloat64} {
		h = inlineHeader(good)
		h.Params[1][2] = v
		if _, err := h.Inline(); err == nil {
			t.Errorf("inline LSTM weight %g accepted", v)
		}
	}
	if _, err := inlineHeader(good).Inline(); err != nil {
		t.Fatalf("pristine inline header rejected: %v", err)
	}

	// The raw-section layout: every way the section can disagree with
	// the header.
	sec := rawSection(t, good)
	setWeight := func(i int, v float64) []byte {
		out := append([]byte(nil), sec...)
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
		return out
	}
	// A non-finite weight whose CRC matches, so only the finiteness check
	// can catch it.
	nanSec := setWeight(3, math.NaN())
	nanHdr := good.Header()
	nanHdr.CRC32C = crc32.Checksum(nanSec, castagnoli)
	// Likewise an LSTM weight beyond float32's range.
	bigSec := setWeight(3, -1e39)
	bigHdr := good.Header()
	bigHdr.CRC32C = crc32.Checksum(bigSec, castagnoli)
	cases := []struct {
		name string
		hdr  func(*Header)
		sec  []byte
		size int64 // 0: len(sec)
	}{
		{"truncated section", nil, sec[:len(sec)-8], 0},
		{"truncated mid-value", nil, sec[:len(sec)-3], 0},
		{"truncated, size lies", nil, sec[:len(sec)/2], int64(len(sec))},
		{"empty section", nil, nil, 0},
		{"section longer than declared", nil, append(append([]byte(nil), sec...), make([]byte, 8)...), 0},
		{"trailing byte, size lies", nil, append(append([]byte(nil), sec...), 0), int64(len(sec))},
		{"crc mismatch in header", func(h *Header) { h.CRC32C ^= 1 }, sec, 0},
		{"bit flip in section", nil, setWeight(5, 0.125), 0},
		{"nan weight", func(h *Header) { *h = nanHdr }, nanSec, 0},
		{"inf weight", nil, setWeight(0, math.Inf(-1)), 0},
		{"weight beyond float32", func(h *Header) { *h = bigHdr }, bigSec, 0},
		{"count below shape", func(h *Header) { h.Weights-- }, sec[:len(sec)-8], 0},
		{"count above shape", func(h *Header) { h.Weights++ }, append(append([]byte(nil), sec...), make([]byte, 8)...), 0},
		{"zero count", func(h *Header) { h.Weights = 0 }, nil, 0},
		{"shape grows, count stays", func(h *Header) { h.Hidden++ }, sec, 0},
		{"inline params too", func(h *Header) { h.Params = [][]float64{} }, sec, 0},
		{"unknown kind", func(h *Header) { h.Kind = 7 }, sec, 0},
		{"zero layers", func(h *Header) { h.Layers = 0 }, sec, 0},
		{"huge hidden", func(h *Header) { h.Hidden = 1 << 30 }, sec, 0},
	}
	for _, tc := range cases {
		h := good.Header()
		if tc.hdr != nil {
			tc.hdr(&h)
		}
		size := tc.size
		if size == 0 {
			size = int64(len(tc.sec))
		}
		if _, err := h.ReadWeights(bytes.NewReader(tc.sec), size); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	h = good.Header()
	if _, err := h.ReadWeights(bytes.NewReader(sec), int64(len(sec))); err != nil {
		t.Fatalf("pristine section rejected: %v", err)
	}
}

// TestReadWeightsChecksLengthBeforeAllocating: a header may declare the
// largest shape the caps allow (hidden 4096 × 64 layers, ≈64 GiB of
// tensors), consistently, over an input of a few bytes. Both layouts must
// refuse it from the lengths alone, before building anything.
func TestReadWeightsChecksLengthBeforeAllocating(t *testing.T) {
	h := Header{Kind: GaussianHead, In: 4096, Hidden: 4096, Layers: 64}
	for _, n := range h.tensorSizes() {
		h.Weights += n
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, rawErr := h.ReadWeights(strings.NewReader("12345678"), 8)
	inline := h
	inline.Weights = 0
	inline.Params = make([][]float64, len(h.tensorSizes()))
	_, inlineErr := inline.Inline()
	runtime.ReadMemStats(&after)
	if rawErr == nil || inlineErr == nil {
		t.Fatalf("oversized header accepted: raw %v, inline %v", rawErr, inlineErr)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
		t.Fatalf("rejecting an oversized header allocated %d bytes, want < 1 MiB", d)
	}
}

// narrowed returns sec, a raw section read with header h, as a model
// holds it: each LSTM weight (all but the head's, which come last)
// rounded through float32.
func narrowed(h Header, sec []byte) []byte {
	out := append([]byte(nil), sec...)
	lstm := int(h.Weights) - headOut(h.Kind)*(h.Hidden+1)
	for i := 0; i < lstm; i++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(out[8*i:]))
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(float64(float32(v))))
	}
	return out
}

// FuzzReadWeights checks the raw-section reader never panics, never
// accepts a weight that narrows to ±Inf, and never accepts a header or
// section its own writer would not reproduce, once
// the LSTM weights are rounded to the float32 a model holds (a no-op on
// any section written since): the accepted model describes itself with
// the header it was read with, its CRC over the rounded section, and
// writes the rounded section back byte for byte.
func FuzzReadWeights(f *testing.F) {
	good := NewSequenceModel(GaussianHead, 2, 3, 1, 1)
	hdr, _ := json.Marshal(good.Header())
	sec := rawSection(f, good)
	f.Add(hdr, sec)
	f.Add(hdr, sec[:len(sec)-1])
	f.Add(hdr, append(append([]byte(nil), sec...), 0))
	f.Add([]byte(`{"kind":0,"in":4096,"hidden":4096,"layers":64,"weights":1}`), []byte{})
	f.Add([]byte(`{}`), sec)
	// A section from when LSTM weights were float64 (its first weight
	// off the float32 grid), and one whose first weight float32 cannot
	// hold, each under a matching CRC.
	for _, v := range []float64{0.1, 1e39, -math.MaxFloat64} {
		s := append([]byte(nil), sec...)
		binary.LittleEndian.PutUint64(s, math.Float64bits(v))
		h := good.Header()
		h.CRC32C = crc32.Checksum(s, castagnoli)
		hb, _ := json.Marshal(h)
		f.Add(hb, s)
	}
	f.Fuzz(func(t *testing.T, hdr, sec []byte) {
		var h Header
		if json.Unmarshal(hdr, &h) != nil {
			return
		}
		m, err := h.ReadWeights(bytes.NewReader(sec), int64(len(sec)))
		if err != nil {
			return
		}
		if !m.Finite() {
			t.Fatal("accepted section narrows to a non-finite weight")
		}
		want := narrowed(h, sec)
		if got := rawSection(t, m); !bytes.Equal(got, want) {
			t.Fatal("accepted section does not round-trip")
		}
		h.CRC32C = crc32.Checksum(want, castagnoli)
		if got := m.Header(); !reflect.DeepEqual(got, h) {
			t.Fatalf("accepted header %+v re-serializes as %+v", h, got)
		}
	})
}
